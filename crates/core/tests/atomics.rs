//! Atomics: IB hardware atomics on host and (via GDR) GPU symmetric
//! memory, the <64-bit mask technique, and lock construction (§III-D).

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, RuntimeConfig, ShmemMachine};

fn machine(nodes: usize, ppn: usize) -> std::rc::Rc<ShmemMachine> {
    ShmemMachine::build(
        ClusterSpec::wilkes(nodes, ppn),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    )
}

#[test]
fn fetch_add_on_host_and_gpu_domains() {
    for domain in [Domain::Host, Domain::Gpu] {
        let m = machine(2, 1);
        m.run(move |pe| {
            let ctr = pe.shmalloc(8, domain);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                let old = pe.atomic_fetch_add(ctr, 5, 1);
                assert_eq!(old, 0);
                let old = pe.atomic_fetch_add(ctr, 3, 1);
                assert_eq!(old, 5);
            }
            pe.barrier_all();
            if pe.my_pe() == 1 {
                assert_eq!(pe.local_u64(ctr), 8, "{domain}");
            }
        });
    }
}

#[test]
fn concurrent_fetch_adds_from_all_pes_sum_exactly() {
    let m = machine(4, 2); // 8 PEs
    m.run(|pe| {
        let ctr = pe.shmalloc(8, Domain::Gpu);
        pe.barrier_all();
        for _ in 0..25 {
            pe.atomic_fetch_add(ctr, 1, 0);
        }
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // counter lives in pe0's GPU heap
            let v = pe.local_u64(ctr);
            assert_eq!(v, 8 * 25);
        }
    });
}

#[test]
fn compare_swap_builds_a_working_spinlock() {
    let m = machine(2, 2); // 4 PEs
    let out = m.run(|pe| {
        let lock = pe.shmalloc(8, Domain::Host);
        let shared = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        // critical section: read-modify-write a non-atomic cell under the lock
        for _ in 0..10 {
            // acquire
            loop {
                let got = pe.atomic_compare_swap(lock, 0, pe.my_pe() as u64 + 1, 0);
                if got == 0 {
                    break;
                }
                pe.compute(shmem_gdr::SimDuration::from_us(1));
            }
            // critical section on pe0's copy of `shared`
            let cur = {
                let b = pe.read_raw(pe.addr_of(shared, 0), 8);
                u64::from_le_bytes(b.try_into().unwrap())
            };
            pe.compute(shmem_gdr::SimDuration::from_ns(300));
            pe.write_raw(pe.addr_of(shared, 0), &(cur + 1).to_le_bytes());
            // release
            let prev = pe.atomic_compare_swap(lock, pe.my_pe() as u64 + 1, 0, 0);
            assert_eq!(prev, pe.my_pe() as u64 + 1, "lock stolen");
        }
        pe.barrier_all();
        if pe.my_pe() == 0 {
            let b = pe.read_raw(pe.addr_of(shared, 0), 8);
            u64::from_le_bytes(b.try_into().unwrap())
        } else {
            0
        }
    });
    assert_eq!(out[0], 40, "lost updates under the lock");
}

#[test]
fn masked_32bit_fetch_add_updates_only_its_half() {
    let m = machine(2, 1);
    m.run(|pe| {
        let word = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // prime the full word: hi = 0x1111_1111, lo = 0x2222_2222
            pe.put_u64(word, 0x1111_1111_2222_2222, 1);
            pe.quiet();
            let old_lo = pe.atomic_fetch_add32(word, 1, 1);
            assert_eq!(old_lo, 0x2222_2222);
            let old_hi = pe.atomic_fetch_add32(word.add(4), 2, 1);
            assert_eq!(old_hi, 0x1111_1111);
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert_eq!(pe.local_u64(word), 0x1111_1113_2222_2223);
        }
    });
}

#[test]
fn gpu_atomics_unsupported_under_host_pipeline() {
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::HostPipeline),
    );
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(|pe| {
            let ctr = pe.shmalloc(8, Domain::Gpu);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                pe.atomic_fetch_add(ctr, 1, 1);
            }
            pe.barrier_all();
        });
    }));
    assert!(r.is_err(), "GPU atomics need GDR");
}

#[test]
fn host_atomics_work_under_host_pipeline() {
    let m = ShmemMachine::build(
        ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::HostPipeline),
    );
    m.run(|pe| {
        let ctr = pe.shmalloc(8, Domain::Host);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            assert_eq!(pe.atomic_fetch_add(ctr, 9, 1), 0);
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert_eq!(pe.local_u64(ctr), 9);
        }
    });
}

#[test]
fn intranode_atomic_latency_below_internode() {
    let lat = |spec: ClusterSpec| {
        let m = ShmemMachine::build(spec, RuntimeConfig::tuned(Design::EnhancedGdr));
        let out = m.run(|pe| {
            let ctr = pe.shmalloc(8, Domain::Gpu);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                let t0 = pe.now();
                for _ in 0..10 {
                    pe.atomic_fetch_add(ctr, 1, 1);
                }
                let dt = (pe.now() - t0).as_us_f64() / 10.0;
                pe.barrier_all();
                dt
            } else {
                pe.barrier_all();
                0.0
            }
        });
        out[0]
    };
    let near = lat(ClusterSpec::intranode_pair());
    let far = lat(ClusterSpec::internode_pair());
    assert!(near < far, "loopback atomic {near:.2}us vs internode {far:.2}us");
}
