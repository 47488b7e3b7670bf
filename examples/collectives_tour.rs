//! A tour of the collective and synchronization API on GPU symmetric
//! memory: broadcast, fcollect, alltoall, typed reductions and locks.
//!
//! ```text
//! cargo run --release --example collectives_tour
//! ```

use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, Domain, RedOp, RuntimeConfig, ShmemMachine};

fn main() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(4, 2), // 8 PEs on 4 nodes
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );

    m.run(|pe| {
        let me = pe.my_pe();
        let n = pe.n_pes();

        // broadcast from PE 3, GPU-domain payload
        let bdata = pe.shmalloc_slice::<u64>(8, Domain::Gpu);
        if me == 3 {
            pe.write_sym(&bdata, &[7; 8]);
        }
        pe.broadcast(bdata.addr(), bdata.byte_len(), 3);
        assert_eq!(pe.read_sym(&bdata), vec![7; 8]);

        // fcollect: everyone's rank, gathered everywhere
        let mine = pe.shmalloc_slice::<u64>(1, Domain::Gpu);
        let all = pe.shmalloc_slice::<u64>(n, Domain::Gpu);
        pe.write_sym(&mine, &[me as u64]);
        pe.barrier_all();
        pe.fcollect(&all, &mine);
        assert_eq!(pe.read_sym(&all), (0..n as u64).collect::<Vec<_>>());
        if me == 0 {
            println!("fcollect gathered ranks: {:?}", pe.read_sym(&all));
        }

        // alltoall transpose
        let src = pe.shmalloc_slice::<u32>(n, Domain::Host);
        let dst = pe.shmalloc_slice::<u32>(n, Domain::Host);
        let vals: Vec<u32> = (0..n as u32).map(|j| (me as u32) * 10 + j).collect();
        pe.write_sym(&src, &vals);
        pe.barrier_all();
        pe.alltoall(&dst, &src, 1);
        let got = pe.read_sym(&dst);
        assert!(got.iter().enumerate().all(|(i, &v)| v == (i as u32) * 10 + me as u32));

        // typed reductions
        let rs = pe.shmalloc_slice::<i64>(1, Domain::Host);
        let rd = pe.shmalloc_slice::<i64>(1, Domain::Host);
        pe.write_sym(&rs, &[(me as i64) - 3]);
        pe.reduce(&rs, &rd, RedOp::Min, 0);
        if me == 0 {
            println!("min over (rank-3): {:?}", pe.read_sym(&rd));
        }
        pe.barrier_all();

        // a lock-protected critical section
        let lock = pe.shmalloc(8, Domain::Host);
        let log = pe.shmalloc_slice::<u64>(n + 1, Domain::Host);
        pe.barrier_all();
        pe.set_lock(lock);
        let slot = pe.get_one::<u64>(log.at(0), 0);
        pe.put_one::<u64>(log.at(1 + slot as usize), me as u64, 0);
        pe.put_one::<u64>(log.at(0), slot + 1, 0);
        pe.quiet();
        pe.clear_lock(lock);
        pe.barrier_all();
        if me == 0 {
            let order = pe.read_sym(&log);
            println!("lock acquisition order: {:?}", &order[1..=n]);
            assert_eq!(order[0] as usize, n);
        }
    });

    println!("simulated time: {}", m.sim().now());
}
