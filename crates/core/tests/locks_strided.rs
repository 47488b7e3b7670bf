//! Lock routines and strided/scalar RMA.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, Pod, RuntimeConfig, ShmemMachine, SimDuration};

fn machine(nodes: usize, ppn: usize) -> std::rc::Rc<ShmemMachine> {
    ShmemMachine::build(
        ClusterSpec::wilkes(nodes, ppn),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    )
}

#[test]
fn lock_provides_mutual_exclusion() {
    let m = machine(2, 2); // 4 PEs
    let out = m.run(|pe| {
        let lock = pe.shmalloc(8, Domain::Host);
        let shared = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        for _ in 0..8 {
            pe.set_lock(lock);
            // non-atomic read-modify-write on pe0's cell under the lock
            let cur = pe.get_one::<u64>(shared, 0);
            pe.compute(SimDuration::from_ns(700));
            pe.put_one::<u64>(shared, cur + 1, 0);
            pe.quiet();
            pe.clear_lock(lock);
        }
        pe.barrier_all();
        pe.get_one::<u64>(shared, 0)
    });
    assert!(out.iter().all(|&v| v == 32), "lost updates: {out:?}");
}

#[test]
fn test_lock_fails_when_held() {
    let m = machine(2, 1);
    m.run(|pe| {
        let lock = pe.shmalloc(8, Domain::Host);
        let flag = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            pe.set_lock(lock);
            pe.put_u64(flag, 1, 1);
            pe.quiet();
            // hold it long enough for pe1 to try
            pe.compute(SimDuration::from_us(60));
            pe.clear_lock(lock);
        } else {
            pe.wait_until(flag, shmem_gdr::Cmp::Ge, 1);
            assert!(!pe.test_lock(lock), "lock should be held by pe0");
            // eventually acquirable
            pe.set_lock(lock);
            pe.clear_lock(lock);
        }
        pe.barrier_all();
    });
}

#[test]
#[should_panic(expected = "clear_lock")]
fn clearing_an_unheld_lock_panics() {
    let m = machine(2, 1);
    m.run(|pe| {
        let lock = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 1 {
            pe.clear_lock(lock); // never acquired
        }
        pe.barrier_all();
    });
}

#[test]
fn scalar_p_and_g_round_trip() {
    let m = machine(2, 1);
    m.run(|pe| {
        let cell = pe.shmalloc_slice::<f64>(4, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            pe.put_one::<f64>(cell.at(2), 6.75, 1);
            pe.quiet();
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert_eq!(pe.read_sym(&cell)[2], 6.75);
        }
        pe.barrier_all();
        // g: read back remotely
        if pe.my_pe() == 0 {
            assert_eq!(pe.get_one::<f64>(cell.at(2), 1), 6.75);
        }
        pe.barrier_all();
    });
}

#[test]
fn iput_scatters_with_strides() {
    let m = machine(2, 1);
    m.run(|pe| {
        let dest = pe.shmalloc_slice::<u32>(32, Domain::Gpu);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let src = pe.malloc_host(64);
            let vals: Vec<u32> = (0..8).map(|i| 100 + i).collect();
            pe.write_raw(src, &Pod::to_bytes(&vals));
            // every 2nd source element into every 3rd dest element
            pe.iput::<u32>(dest.addr(), src, 3, 2, 4, 1);
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            let got = pe.read_sym(&dest);
            assert_eq!(got[0], 100);
            assert_eq!(got[3], 102);
            assert_eq!(got[6], 104);
            assert_eq!(got[9], 106);
            assert_eq!(got[1], 0, "untouched cells stay zero");
        }
        pe.barrier_all();
    });
}

#[test]
fn iget_gathers_with_strides() {
    let m = machine(1, 2); // intra-node too
    m.run(|pe| {
        let source = pe.shmalloc_slice::<u64>(16, Domain::Host);
        let me = pe.my_pe() as u64;
        let vals: Vec<u64> = (0..16).map(|i| me * 1000 + i).collect();
        pe.write_sym(&source, &vals);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let dst = pe.malloc_host(256);
            // every 4th element of pe1's copy, packed
            pe.iget::<u64>(dst, source.addr(), 1, 4, 4, 1);
            let got = u64::from_bytes(&pe.read_raw(dst, 32));
            assert_eq!(got, vec![1000, 1004, 1008, 1012]);
        }
        pe.barrier_all();
    });
}
