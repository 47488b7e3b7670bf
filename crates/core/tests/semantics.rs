//! OpenSHMEM semantics: ordering, synchronization, wait_until, shmem_ptr,
//! symmetric allocation discipline.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Cmp, Design, Domain, RuntimeConfig, ShmemMachine, SimDuration};

fn machine(intra: bool) -> std::rc::Rc<ShmemMachine> {
    let spec = if intra {
        ClusterSpec::intranode_pair()
    } else {
        ClusterSpec::internode_pair()
    };
    ShmemMachine::build(spec, RuntimeConfig::tuned(Design::EnhancedGdr))
}

#[test]
fn shmalloc_is_symmetric_across_pes() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(2, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    let addrs = m.run(|pe| {
        let a = pe.shmalloc(100, Domain::Host);
        let b = pe.shmalloc(200, Domain::Gpu);
        let c = pe.shmalloc(300, Domain::Host);
        (a, b, c)
    });
    for w in addrs.windows(2) {
        assert_eq!(w[0], w[1], "symmetric offsets must match across PEs");
    }
}

#[test]
fn free_dev_returns_the_block_for_the_next_malloc_dev() {
    // malloc_dev/free_dev are cudaMalloc/cudaFree: a freed block is
    // free again, so an allocation of the same size reuses it
    for intra in [true, false] {
        let reused = machine(intra).run(|pe| {
            let a = pe.malloc_dev(1 << 20);
            let b = pe.malloc_dev(4096);
            pe.free_dev(a, 1 << 20);
            let c = pe.malloc_dev(1 << 20);
            (a == c, b != c)
        });
        assert_eq!(reused, vec![(true, true); 2], "intra={intra}");
    }
}

#[test]
fn put_then_flag_then_wait_until_delivers_data_before_flag() {
    // The classic producer/consumer: data put, quiet, flag put; consumer
    // wait_until(flag) then reads data — must always see the payload.
    for intra in [true, false] {
        let m = machine(intra);
        m.run(|pe| {
            let data = pe.shmalloc(4096, Domain::Gpu);
            let flag = pe.shmalloc(8, Domain::Host);
            if pe.my_pe() == 0 {
                let src = pe.malloc_host(4096);
                pe.write_raw(src, &[0x77; 4096]);
                pe.putmem(data, src, 4096, 1);
                pe.quiet(); // data delivered
                pe.put_u64(flag, 1, 1);
                pe.quiet();
            } else {
                pe.wait_until(flag, Cmp::Ge, 1);
                let got = pe.read_raw(pe.addr_of(data, 1), 4096);
                assert!(got.iter().all(|&b| b == 0x77), "flag overtook data");
            }
        });
    }
}

#[test]
fn quiet_waits_for_remote_completion() {
    let m = machine(false);
    m.run(|pe| {
        let dest = pe.shmalloc(1 << 20, Domain::Gpu);
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(1 << 20);
            let t0 = pe.now();
            pe.putmem(dest, src, 1 << 20, 1);
            let put_return = pe.now() - t0;
            pe.quiet();
            let total = pe.now() - t0;
            // put returns early (local completion), quiet adds the rest
            assert!(
                total > put_return,
                "quiet added nothing: put={put_return} total={total}"
            );
        }
        pe.barrier_all();
    });
}

#[test]
fn barrier_all_synchronizes_everyone() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(4, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    let times = m.run(|pe| {
        // everyone computes a different amount, then barriers
        pe.compute(SimDuration::from_us(10 * (pe.my_pe() as u64 + 1)));
        pe.barrier_all();
        pe.now()
    });
    let max = times.iter().max().unwrap();
    for t in &times {
        // all PEs leave the barrier within a small window
        assert!(
            (*max - *t).as_us_f64() < 10.0,
            "barrier skew too large: {t} vs {max}"
        );
    }
    // and nobody left before the slowest PE arrived (80us of compute)
    assert!(times.iter().all(|t| t.as_us_f64() >= 80.0));
}

#[test]
fn repeated_barriers_do_not_interfere() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(2, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    m.run(|pe| {
        for i in 0..20u64 {
            pe.compute(SimDuration::from_us((pe.my_pe() as u64 * 7 + i) % 13));
            pe.barrier_all();
        }
        pe.stats().barriers
    })
    .iter()
    .for_each(|&b| assert_eq!(b, 20));
}

#[test]
fn wait_until_all_comparisons() {
    let m = machine(true);
    m.run(|pe| {
        let flag = pe.shmalloc(8, Domain::Host);
        if pe.my_pe() == 0 {
            pe.compute(SimDuration::from_us(5));
            pe.put_u64(flag, 7, 1);
            pe.quiet();
        } else {
            pe.wait_until(flag, Cmp::Ne, 0);
            assert_eq!(pe.local_u64(flag), 7);
            pe.wait_until(flag, Cmp::Eq, 7);
            pe.wait_until(flag, Cmp::Ge, 3);
            pe.wait_until(flag, Cmp::Le, 9);
        }
        pe.barrier_all();
    });
}

#[test]
fn shmem_ptr_rules() {
    let m = ShmemMachine::build(
        ClusterSpec::wilkes(2, 2),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    );
    m.run(|pe| {
        let h = pe.shmalloc(64, Domain::Host);
        let g = pe.shmalloc(64, Domain::Gpu);
        let me = pe.my_pe();
        let node_peer = me ^ 1; // same node under 2 ppn
        let far_peer = (me + 2) % 4; // other node
        assert!(pe.shmem_ptr(h, me).is_some());
        assert!(pe.shmem_ptr(h, node_peer).is_some());
        assert!(pe.shmem_ptr(h, far_peer).is_none(), "remote host ptr");
        assert!(pe.shmem_ptr(g, node_peer).is_none(), "GPU memory has no shmem_ptr");
    });
}

#[test]
fn shmem_ptr_store_is_visible_to_owner() {
    let m = machine(true);
    m.run(|pe| {
        let h = pe.shmalloc(64, Domain::Host);
        if pe.my_pe() == 0 {
            let p = pe.shmem_ptr(h, 1).expect("node-local host ptr");
            pe.write_raw(p, b"direct-store");
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert_eq!(pe.read_raw(pe.addr_of(h, 1), 12), b"direct-store");
        }
    });
}

#[test]
fn fence_orders_puts_to_same_target() {
    let m = machine(false);
    m.run(|pe| {
        let a = pe.shmalloc(1 << 20, Domain::Gpu);
        let b = pe.shmalloc(8, Domain::Host);
        if pe.my_pe() == 0 {
            let big = pe.malloc_dev(1 << 20);
            pe.write_raw(big, &vec![0xEE; 1 << 20]);
            pe.putmem(a, big, 1 << 20, 1);
            pe.fence(); // order: big put before flag
            pe.put_u64(b, 1, 1);
            pe.quiet();
        } else {
            pe.wait_until(b, Cmp::Ge, 1);
            let got = pe.read_raw(pe.addr_of(a, 1), 1 << 20);
            assert!(got.iter().all(|&x| x == 0xEE), "fence ordering violated");
        }
    });
}

#[test]
fn heap_exhaustion_panics_with_context() {
    let m = machine(true);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(|pe| {
            // default GPU heap is 8 MiB
            let _ = pe.shmalloc(64 << 20, Domain::Gpu);
        });
    }));
    assert!(r.is_err());
}

#[test]
fn shfree_allows_reuse() {
    let m = machine(true);
    m.run(|pe| {
        let a = pe.shmalloc(1 << 20, Domain::Gpu);
        pe.shfree(a, 1 << 20);
        let b = pe.shmalloc(1 << 20, Domain::Gpu);
        assert_eq!(a.offset, b.offset, "freed block should be reused");
    });
}

#[test]
fn put_u64_and_local_u64_round_trip() {
    let m = machine(false);
    m.run(|pe| {
        let cell = pe.shmalloc(8, Domain::Host);
        if pe.my_pe() == 0 {
            pe.put_u64(cell, 0xDEAD_BEEF_CAFE, 1);
            pe.quiet();
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert_eq!(pe.local_u64(cell), 0xDEAD_BEEF_CAFE);
        }
    });
}

#[test]
fn typed_slices_put_get() {
    let m = machine(false);
    m.run(|pe| {
        let v = pe.shmalloc_slice::<f64>(128, Domain::Gpu);
        if pe.my_pe() == 0 {
            let vals: Vec<f64> = (0..128).map(|i| i as f64 * 0.5).collect();
            let src = pe.malloc_host(v.byte_len());
            pe.write_raw(src, &shmem_gdr::Pod::to_bytes(&vals));
            pe.put_slice(&v, src, 1);
            pe.quiet();
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            let got = pe.read_sym(&v);
            assert_eq!(got[64], 32.0);
            assert_eq!(got.len(), 128);
        }
    });
}

#[test]
fn nbi_puts_post_faster_and_quiet_completes_them() {
    let m = machine(false);
    m.run(|pe| {
        let dest = pe.shmalloc(4096 * 64, Domain::Gpu);
        if pe.my_pe() == 0 {
            let src = pe.malloc_dev(4096 * 64);
            // warm registration
            pe.putmem(dest, src, 64, 1);
            pe.quiet();
            // blocking puts
            let t0 = pe.now();
            for i in 0..32u64 {
                pe.putmem(dest.add(i * 4096), src.add(i * 4096), 64, 1);
            }
            pe.quiet();
            let blocking = pe.now() - t0;
            // nbi puts
            let t1 = pe.now();
            for i in 0..32u64 {
                pe.putmem_nbi(dest.add(i * 4096), src.add(i * 4096), 64, 1);
            }
            pe.quiet();
            let nbi = pe.now() - t1;
            assert!(
                nbi < blocking,
                "nbi burst {nbi} should beat blocking burst {blocking}"
            );
        }
        pe.barrier_all();
    });
}

#[test]
fn nbi_data_is_delivered_after_quiet() {
    let m = machine(false);
    m.run(|pe| {
        let dest = pe.shmalloc(1024, Domain::Gpu);
        let local = pe.malloc_host(1024);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            pe.write_raw(local, &[0x42; 512]);
            pe.putmem_nbi(dest, local, 512, 1);
            pe.quiet();
        }
        pe.barrier_all();
        if pe.my_pe() == 1 {
            assert!(pe
                .read_raw(pe.addr_of(dest, 1), 512)
                .iter()
                .all(|&b| b == 0x42));
            // nbi get of it back
            pe.getmem_nbi(local, dest, 512, 1);
            pe.quiet();
            assert!(pe.read_raw(local, 512).iter().all(|&b| b == 0x42));
        }
        pe.barrier_all();
    });
}

#[test]
fn put_signal_delivers_data_before_signal() {
    for (intra, len) in [(false, 2048u64), (false, 2 << 20), (true, 1024), (true, 64 << 10)] {
        let m = machine(intra);
        m.run(move |pe| {
            let data = pe.shmalloc(len + 64, Domain::Gpu);
            let sig = pe.shmalloc(8, Domain::Host);
            pe.barrier_all();
            if pe.my_pe() == 0 {
                let src = pe.malloc_dev(len + 64);
                pe.write_raw(src, &vec![0xAD; len as usize]);
                pe.put_signal(data, src, len, sig, 7, 1);
                pe.quiet();
            } else {
                pe.wait_until(sig, Cmp::Ge, 7);
                let got = pe.read_raw(pe.addr_of(data, 1), len);
                assert!(
                    got.iter().all(|&b| b == 0xAD),
                    "signal overtook data (intra={intra}, len={len})"
                );
            }
            pe.barrier_all();
        });
    }
}

#[test]
fn fused_put_signal_beats_put_quiet_flag() {
    // the fused one-sided form saves the origin-side quiet round
    let m = machine(false);
    let out = m.run(|pe| {
        let data = pe.shmalloc(8 << 10, Domain::Gpu);
        let sig = pe.shmalloc(16, Domain::Host);
        let src = pe.malloc_dev(8 << 10);
        pe.barrier_all();
        if pe.my_pe() == 0 {
            // warm
            pe.put_signal(data, src, 2048, sig, 1, 1);
            pe.quiet();
            let t0 = pe.now();
            for i in 0..10u64 {
                pe.put_signal(data, src, 2048, sig, 2 + i, 1);
            }
            pe.quiet();
            let fused = pe.now() - t0;
            let t1 = pe.now();
            for i in 0..10u64 {
                pe.putmem(data, src, 2048, 1);
                pe.fence();
                pe.put_u64(sig.add(8), 2 + i, 1);
            }
            pe.quiet();
            let split = pe.now() - t1;
            pe.barrier_all();
            (fused.as_us_f64(), split.as_us_f64())
        } else {
            pe.barrier_all();
            (0.0, 0.0)
        }
    });
    let (fused, split) = out[0];
    assert!(
        fused < split,
        "fused put_signal {fused:.1}us should beat put+fence+flag {split:.1}us"
    );
}
