//! Collectives (broadcast, reduce) and the CUDA-aware two-sided layer.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, Pod, RuntimeConfig, ShmemMachine};

fn machine(nodes: usize, ppn: usize) -> std::rc::Rc<ShmemMachine> {
    ShmemMachine::build(
        ClusterSpec::wilkes(nodes, ppn),
        RuntimeConfig::tuned(Design::EnhancedGdr),
    )
}

#[test]
fn broadcast_reaches_every_pe_from_any_root() {
    for root in [0usize, 3, 5] {
        let m = machine(3, 2); // 6 PEs
        m.run(move |pe| {
            let data = pe.shmalloc_slice::<u64>(32, Domain::Host);
            if pe.my_pe() == root {
                let vals: Vec<u64> = (0..32).map(|i| i + 1000 * root as u64).collect();
                pe.write_sym(&data, &vals);
            }
            pe.broadcast(data.addr(), data.byte_len(), root);
            let got = pe.read_sym(&data);
            let expect: Vec<u64> = (0..32).map(|i| i + 1000 * root as u64).collect();
            assert_eq!(got, expect, "pe{} root{root}", pe.my_pe());
            pe.barrier_all();
        });
    }
}

#[test]
fn broadcast_of_gpu_domain_data() {
    let m = machine(2, 2);
    m.run(|pe| {
        let data = pe.shmalloc_slice::<f32>(64, Domain::Gpu);
        if pe.my_pe() == 0 {
            pe.write_sym(&data, &vec![2.5f32; 64]);
        }
        pe.broadcast(data.addr(), data.byte_len(), 0);
        assert_eq!(pe.read_sym(&data), vec![2.5f32; 64]);
        pe.barrier_all();
    });
}

#[test]
fn reduce_sum_f64_is_exact() {
    let m = machine(4, 2); // 8 PEs
    m.run(|pe| {
        let src = pe.shmalloc_slice::<f64>(4, Domain::Host);
        let dst = pe.shmalloc_slice::<f64>(4, Domain::Host);
        let me = pe.my_pe() as f64;
        pe.write_sym(&src, &[me, me * 2.0, 1.0, -me]);
        pe.reduce_sum_f64(&src, &dst, 2);
        let got = pe.read_sym(&dst);
        // sum over pe=0..8
        let s: f64 = (0..8).map(|i| i as f64).sum();
        assert_eq!(got, vec![s, 2.0 * s, 8.0, -s], "pe{}", pe.my_pe());
        pe.barrier_all();
    });
}

#[test]
fn allreduce_single_value() {
    let m = machine(2, 1);
    m.run(|pe| {
        let src = pe.shmalloc_slice::<f64>(1, Domain::Host);
        let dst = pe.shmalloc_slice::<f64>(1, Domain::Host);
        pe.write_sym(&src, &[pe.my_pe() as f64 + 1.0]);
        pe.allreduce_sum_f64(&src, &dst);
        assert_eq!(pe.read_sym(&dst), vec![3.0]);
        pe.barrier_all();
    });
}

#[test]
fn repeated_collectives_stay_consistent() {
    let m = machine(2, 2);
    m.run(|pe| {
        let v = pe.shmalloc_slice::<u64>(1, Domain::Host);
        for round in 0..10u64 {
            if pe.my_pe() == (round % 4) as usize {
                pe.write_sym(&v, &[round * 11]);
            }
            pe.broadcast(v.addr(), 8, (round % 4) as usize);
            assert_eq!(pe.read_sym(&v), vec![round * 11], "round {round}");
            pe.barrier_all();
        }
    });
}

// ---------- two-sided (MPI-like) layer ----------

#[test]
fn host_send_recv_round_trip() {
    let m = machine(2, 1);
    m.run(|pe| {
        let buf = pe.malloc_host(4096);
        if pe.my_pe() == 0 {
            pe.write_raw(buf, &u64::to_bytes(&[11, 22, 33]));
            pe.send(1, buf, 24);
        } else {
            pe.recv(0, buf, 4096);
            assert_eq!(u64::from_bytes(&pe.read_raw(buf, 24)), vec![11, 22, 33]);
        }
    });
}

#[test]
fn device_send_recv_stages_through_host() {
    let m = machine(2, 1);
    m.run(|pe| {
        let dev = pe.malloc_dev(1 << 20);
        if pe.my_pe() == 0 {
            pe.write_raw(dev, &vec![0x3C; 1 << 20]);
            pe.send(1, dev, 1 << 20);
        } else {
            pe.recv(0, dev, 1 << 20);
            assert!(pe.read_raw(dev, 1 << 20).iter().all(|&b| b == 0x3C));
        }
    });
}

#[test]
fn bidirectional_exchange_with_isend_irecv() {
    // The LBM halo pattern: both sides post irecv + isend, then waitall.
    let m = machine(2, 1);
    m.run(|pe| {
        let me = pe.my_pe();
        let other = 1 - me;
        let send_buf = pe.malloc_dev(64 << 10);
        let recv_buf = pe.malloc_dev(64 << 10);
        pe.write_raw(send_buf, &vec![me as u8 + 1; 64 << 10]);
        let r = pe.irecv(other, recv_buf, 64 << 10);
        let s = pe.isend(other, send_buf, 64 << 10);
        pe.msg_waitall(vec![r, s]);
        assert!(
            pe.read_raw(recv_buf, 64 << 10)
                .iter()
                .all(|&b| b == other as u8 + 1),
            "pe{me} exchange corrupted"
        );
    });
}

#[test]
fn intranode_send_recv_works_too() {
    let m = machine(1, 2);
    m.run(|pe| {
        let buf = pe.malloc_host(256);
        if pe.my_pe() == 0 {
            pe.write_raw(buf, b"node-local send/recv");
            pe.send(1, buf, 20);
        } else {
            pe.recv(0, buf, 256);
            assert_eq!(pe.read_raw(buf, 20), b"node-local send/recv");
        }
    });
}

#[test]
fn many_small_messages_in_order() {
    let m = machine(2, 1);
    m.run(|pe| {
        let buf = pe.malloc_host(8 * 64);
        if pe.my_pe() == 0 {
            for i in 0..64u64 {
                pe.write_raw(buf.add(i * 8), &i.to_le_bytes());
                pe.send(1, buf.add(i * 8), 8);
            }
        } else {
            let mut handles = Vec::new();
            for i in 0..64u64 {
                handles.push(pe.irecv(0, buf.add(i * 8), 8));
            }
            pe.msg_waitall(handles);
            for i in 0..64u64 {
                let b = pe.read_raw(buf.add(i * 8), 8);
                assert_eq!(u64::from_le_bytes(b.try_into().unwrap()), i);
            }
        }
    });
}

#[test]
fn fcollect_gathers_all_blocks_everywhere() {
    let m = machine(2, 2); // 4 PEs
    m.run(|pe| {
        let n = pe.n_pes();
        let src = pe.shmalloc_slice::<u64>(3, Domain::Gpu);
        let dest = pe.shmalloc_slice::<u64>(3 * n, Domain::Gpu);
        let me = pe.my_pe() as u64;
        pe.write_sym(&src, &[me * 10, me * 10 + 1, me * 10 + 2]);
        pe.barrier_all();
        pe.fcollect(&dest, &src);
        let got = pe.read_sym(&dest);
        for p in 0..n as u64 {
            assert_eq!(
                &got[(p as usize) * 3..(p as usize) * 3 + 3],
                &[p * 10, p * 10 + 1, p * 10 + 2],
                "pe{} block {p}",
                pe.my_pe()
            );
        }
        pe.barrier_all();
    });
}

#[test]
fn alltoall_transposes_blocks() {
    let m = machine(2, 2); // 4 PEs
    m.run(|pe| {
        let n = pe.n_pes();
        let per = 2usize;
        let src = pe.shmalloc_slice::<u32>(n * per, Domain::Host);
        let dest = pe.shmalloc_slice::<u32>(n * per, Domain::Host);
        let me = pe.my_pe() as u32;
        // src block j holds (me, j) markers
        let vals: Vec<u32> = (0..n as u32)
            .flat_map(|j| [me * 100 + j, me * 100 + j + 50])
            .collect();
        pe.write_sym(&src, &vals);
        pe.barrier_all();
        pe.alltoall(&dest, &src, per);
        let got = pe.read_sym(&dest);
        // dest block i must hold what PE i sent to me: (i, me)
        for i in 0..n as u32 {
            assert_eq!(got[(i as usize) * per], i * 100 + me, "pe{me} from {i}");
            assert_eq!(got[(i as usize) * per + 1], i * 100 + me + 50);
        }
        pe.barrier_all();
    });
}

#[test]
fn typed_reductions_min_max_prod() {
    use shmem_gdr::RedOp;
    let m = machine(2, 2);
    m.run(|pe| {
        let src = pe.shmalloc_slice::<i64>(2, Domain::Host);
        let dst = pe.shmalloc_slice::<i64>(2, Domain::Host);
        let me = pe.my_pe() as i64;
        pe.write_sym(&src, &[me + 1, -(me + 1)]);
        pe.reduce(&src, &dst, RedOp::Max, 0);
        assert_eq!(pe.read_sym(&dst), vec![4, -1]);
        pe.barrier_all();
        pe.reduce(&src, &dst, RedOp::Min, 1);
        assert_eq!(pe.read_sym(&dst), vec![1, -4]);
        pe.barrier_all();
        pe.reduce(&src, &dst, RedOp::Prod, 2);
        assert_eq!(pe.read_sym(&dst), vec![24, 24]);
        pe.barrier_all();
    });
}

#[test]
fn repeated_fcollects_with_changing_data() {
    let m = machine(2, 1);
    m.run(|pe| {
        let n = pe.n_pes();
        let src = pe.shmalloc_slice::<u64>(1, Domain::Host);
        let dest = pe.shmalloc_slice::<u64>(n, Domain::Host);
        for round in 0..5u64 {
            pe.write_sym(&src, &[round * 100 + pe.my_pe() as u64]);
            pe.barrier_all();
            pe.fcollect(&dest, &src);
            let got = pe.read_sym(&dest);
            for p in 0..n as u64 {
                assert_eq!(got[p as usize], round * 100 + p, "round {round}");
            }
            pe.barrier_all();
        }
    });
}

#[test]
fn oversized_device_recv_preserves_bytes_beyond_the_message() {
    // a 64 KiB posted capacity receiving a 1 KiB message must only
    // overwrite the first 1 KiB of the device buffer
    let m = machine(2, 1);
    m.run(|pe| {
        let dev = pe.malloc_dev(64 << 10);
        if pe.my_pe() == 0 {
            pe.write_raw(dev, &vec![0x11; 1 << 10]);
            pe.send(1, dev, 1 << 10);
        } else {
            pe.write_raw(dev, &vec![0xEE; 64 << 10]); // pre-existing data
            pe.recv(0, dev, 64 << 10);
            let got = pe.read_raw(dev, 64 << 10);
            assert!(got[..1024].iter().all(|&b| b == 0x11), "message lost");
            assert!(
                got[1024..].iter().all(|&b| b == 0xEE),
                "bytes beyond the message were clobbered"
            );
        }
    });
}

#[test]
fn symmetric_put_signal_exchange_under_baseline_does_not_deadlock() {
    // regression: put_signal's decomposed fallback used to quiet without
    // the in-library flag, deadlocking symmetric exchanges whose acks
    // need target-side progress
    let m = ShmemMachine::build(
        pcie_sim::ClusterSpec::internode_pair(),
        RuntimeConfig::tuned(Design::HostPipeline),
    );
    m.run(|pe| {
        let data = pe.shmalloc(64 << 10, Domain::Gpu);
        let sig = pe.shmalloc(8, Domain::Host);
        let src = pe.malloc_dev(64 << 10);
        pe.barrier_all();
        let other = 1 - pe.my_pe();
        // both sides put_signal to each other simultaneously
        pe.put_signal(data, src, 64 << 10, sig, 1, other);
        pe.wait_until(sig, shmem_gdr::Cmp::Ge, 1);
        pe.barrier_all();
    });
}
