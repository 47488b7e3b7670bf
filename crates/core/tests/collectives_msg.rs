//! Collectives (broadcast, reduce) and the CUDA-aware two-sided layer.

use pcie_sim::ClusterSpec;
use shmem_gdr::{Design, Domain, FaultPlan, Pod, RuntimeConfig, ShmemMachine};

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

// ---------- block exchange characterisation ----------

/// `try_fcollect` then `try_alltoall` on 4 KiB device blocks; one line
/// per PE: both results, the virtual instants (ps) around the alltoall
/// and an FNV-1a hash of each destination's bytes, then the machine's
/// final instant.
fn block_exchange_run(nodes: usize, ppn: usize, faults: &str) -> String {
    const PER: usize = 512;
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_quiesce_ns(0)
        .with_faults(FaultPlan::parse(faults));
    let m = ShmemMachine::build(ClusterSpec::wilkes(nodes, ppn), cfg);
    let lines = m.run(|pe| {
        let n = pe.n_pes();
        let me = pe.my_pe() as u64;
        let fc_src = pe.shmalloc_slice::<u64>(PER, Domain::Gpu);
        let fc_dst = pe.shmalloc_slice::<u64>(n * PER, Domain::Gpu);
        let a2a_src = pe.shmalloc_slice::<u64>(n * PER, Domain::Gpu);
        let a2a_dst = pe.shmalloc_slice::<u64>(n * PER, Domain::Gpu);
        let fc_vals: Vec<u64> = (0..PER as u64).map(|i| me << 32 | i).collect();
        pe.write_sym(&fc_src, &fc_vals);
        let a2a_vals: Vec<u64> = (0..(n * PER) as u64).map(|i| me << 40 | i).collect();
        pe.write_sym(&a2a_src, &a2a_vals);
        let fc = pe.try_fcollect(&fc_dst, &fc_src);
        let t0 = pe.now();
        let a2a = pe.try_alltoall(&a2a_dst, &a2a_src, PER);
        let t1 = pe.now();
        format!(
            "pe{me} fcollect={fc:?} alltoall={a2a:?} before={} after={} fc={:016x} a2a={:016x}",
            t0.as_ps(),
            t1.as_ps(),
            fnv(&pe.read_sym(&fc_dst)),
            fnv(&pe.read_sym(&a2a_dst)),
        )
    });
    let mut out = format!("wilkes({nodes},{ppn}) [{faults}]\n");
    for l in lines {
        out += &l;
        out.push('\n');
    }
    out += &format!("now={}\n", m.sim().now().as_ps());
    out
}

fn fnv(vals: &[u64]) -> u64 {
    u64::to_bytes(vals)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

/// Pins the instants and bytes of fcollect and alltoall clean and under
/// three fault plans, so a refactor of the shared block exchange that
/// moves a replay salt, a put or a wait shows up as the first differing
/// line.
#[test]
fn block_exchange_instants_and_bytes_are_pinned() {
    let mut got = String::new();
    let plans = [
        "",
        "seed=5 cqe=300",
        "seed=9 cqe=450 retries=1",
        "seed=3 burst=0:400000",
    ];
    for (nodes, ppn) in [(2, 1), (2, 2), (4, 2)] {
        for faults in plans {
            got += &block_exchange_run(nodes, ppn, faults);
        }
    }
    for (i, (g, w)) in got.lines().zip(BLOCK_EXCHANGE.lines()).enumerate() {
        assert_eq!(g, w, "first differing line, {}", i + 1);
    }
    assert_eq!(got.lines().count(), BLOCK_EXCHANGE.lines().count());
}

const BLOCK_EXCHANGE: &str = "\
wilkes(2,1) []
pe0 fcollect=Ok(()) alltoall=Ok(()) before=16653566 after=23302128 fc=80afbf15a7bcc125 a2a=7e713ceb62d22725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=16653566 after=23302128 fc=80afbf15a7bcc125 a2a=29fd35cd1b01e325
now=23302128
wilkes(2,1) [seed=5 cqe=300]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=24065566 after=38437128 fc=80afbf15a7bcc125 a2a=7e713ceb62d22725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=22853566 after=38460128 fc=80afbf15a7bcc125 a2a=29fd35cd1b01e325
now=38460128
wilkes(2,1) [seed=9 cqe=450 retries=1]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=101335566 after=122404128 fc=80afbf15a7bcc125 a2a=7e713ceb62d22725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=99587566 after=125012128 fc=80afbf15a7bcc125 a2a=29fd35cd1b01e325
now=125012128
wilkes(2,1) [seed=3 burst=0:400000]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=443930566 after=454179128 fc=80afbf15a7bcc125 a2a=7e713ceb62d22725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=446297566 after=451546128 fc=80afbf15a7bcc125 a2a=29fd35cd1b01e325
now=454179128
wilkes(2,2) []
pe0 fcollect=Ok(()) alltoall=Ok(()) before=35226259 after=53367514 fc=17d5033455c42b25 a2a=13a9374b07e87125
pe1 fcollect=Ok(()) alltoall=Ok(()) before=35351263 after=54892518 fc=17d5033455c42b25 a2a=51f5bd060569a525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=35276259 after=53467514 fc=17d5033455c42b25 a2a=0798740a9a9db325
pe3 fcollect=Ok(()) alltoall=Ok(()) before=36801263 after=54792518 fc=17d5033455c42b25 a2a=709ba2c04731e725
now=54892518
wilkes(2,2) [seed=5 cqe=300]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=149664259 after=175171514 fc=17d5033455c42b25 a2a=13a9374b07e87125
pe1 fcollect=Ok(()) alltoall=Ok(()) before=150810263 after=176997635 fc=17d5033455c42b25 a2a=51f5bd060569a525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=149276259 after=176934200 fc=17d5033455c42b25 a2a=0798740a9a9db325
pe3 fcollect=Ok(()) alltoall=Ok(()) before=148428106 after=179311047 fc=17d5033455c42b25 a2a=709ba2c04731e725
now=179311047
wilkes(2,2) [seed=9 cqe=450 retries=1]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=152905259 after=200803167 fc=17d5033455c42b25 a2a=13a9374b07e87125
pe1 fcollect=Ok(()) alltoall=Ok(()) before=175993769 after=220033677 fc=17d5033455c42b25 a2a=51f5bd060569a525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=160037102 after=218694043 fc=17d5033455c42b25 a2a=0798740a9a9db325
pe3 fcollect=Ok(()) alltoall=Ok(()) before=177005263 after=218190204 fc=17d5033455c42b25 a2a=709ba2c04731e725
now=220033677
wilkes(2,2) [seed=3 burst=0:400000]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=458426259 after=477967514 fc=17d5033455c42b25 a2a=13a9374b07e87125
pe1 fcollect=Ok(()) alltoall=Ok(()) before=456995263 after=479536518 fc=17d5033455c42b25 a2a=51f5bd060569a525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=458876259 after=478267514 fc=17d5033455c42b25 a2a=0798740a9a9db325
pe3 fcollect=Ok(()) alltoall=Ok(()) before=460975263 after=477566518 fc=17d5033455c42b25 a2a=709ba2c04731e725
now=479536518
wilkes(4,2) []
pe0 fcollect=Ok(()) alltoall=Ok(()) before=60025511 after=92961014 fc=1856abd3dc6a9d25 a2a=1f3cef9a5310b725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=61720600 after=94656103 fc=1856abd3dc6a9d25 a2a=592dcbce3d9ce525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=60025511 after=92961014 fc=1856abd3dc6a9d25 a2a=4ec7391e9e7f3125
pe3 fcollect=Ok(()) alltoall=Ok(()) before=61080200 after=94015703 fc=1856abd3dc6a9d25 a2a=7079d6c278f22d25
pe4 fcollect=Ok(()) alltoall=Ok(()) before=60025511 after=94361014 fc=1856abd3dc6a9d25 a2a=b9e57821792d9925
pe5 fcollect=Ok(()) alltoall=Ok(()) before=60639800 after=96575303 fc=1856abd3dc6a9d25 a2a=641aa7c617e43325
pe6 fcollect=Ok(()) alltoall=Ok(()) before=62875511 after=94861014 fc=1856abd3dc6a9d25 a2a=5d49fc8c8a25f925
pe7 fcollect=Ok(()) alltoall=Ok(()) before=63000515 after=95786018 fc=1856abd3dc6a9d25 a2a=0561658656014b25
now=96575303
wilkes(4,2) [seed=5 cqe=300]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=246582007 after=356639535 fc=1856abd3dc6a9d25 a2a=1f3cef9a5310b725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=247066325 after=359686202 fc=1856abd3dc6a9d25 a2a=592dcbce3d9ce525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=247973850 after=358559378 fc=1856abd3dc6a9d25 a2a=4ec7391e9e7f3125
pe3 fcollect=Ok(()) alltoall=Ok(()) before=298607697 after=370895225 fc=1856abd3dc6a9d25 a2a=7079d6c278f22d25
pe4 fcollect=Ok(()) alltoall=Ok(()) before=257812693 after=369973221 fc=1856abd3dc6a9d25 a2a=b9e57821792d9925
pe5 fcollect=Ok(()) alltoall=Ok(()) before=265752011 after=370743539 fc=1856abd3dc6a9d25 a2a=641aa7c617e43325
pe6 fcollect=Ok(()) alltoall=Ok(()) before=299682354 after=371946915 fc=1856abd3dc6a9d25 a2a=5d49fc8c8a25f925
pe7 fcollect=Ok(()) alltoall=Ok(()) before=300545730 after=373290291 fc=1856abd3dc6a9d25 a2a=0561658656014b25
now=373290291
wilkes(4,2) [seed=9 cqe=450 retries=1]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=315262318 after=688353000 fc=1856abd3dc6a9d25 a2a=1f3cef9a5310b725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=357499550 after=690643078 fc=1856abd3dc6a9d25 a2a=592dcbce3d9ce525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=383909161 after=708455689 fc=1856abd3dc6a9d25 a2a=4ec7391e9e7f3125
pe3 fcollect=Ok(()) alltoall=Ok(()) before=500946854 after=716271536 fc=1856abd3dc6a9d25 a2a=7079d6c278f22d25
pe4 fcollect=Ok(()) alltoall=Ok(()) before=510751511 after=724381655 fc=1856abd3dc6a9d25 a2a=b9e57821792d9925
pe5 fcollect=Ok(()) alltoall=Ok(()) before=519110479 after=714726315 fc=1856abd3dc6a9d25 a2a=641aa7c617e43325
pe6 fcollect=Ok(()) alltoall=Ok(()) before=518305883 after=717610752 fc=1856abd3dc6a9d25 a2a=5d49fc8c8a25f925
pe7 fcollect=Ok(()) alltoall=Ok(()) before=516575035 after=725583904 fc=1856abd3dc6a9d25 a2a=0561658656014b25
now=725583904
wilkes(4,2) [seed=3 burst=0:400000]
pe0 fcollect=Ok(()) alltoall=Ok(()) before=492825511 after=525761014 fc=1856abd3dc6a9d25 a2a=1f3cef9a5310b725
pe1 fcollect=Ok(()) alltoall=Ok(()) before=487194515 after=523130018 fc=1856abd3dc6a9d25 a2a=592dcbce3d9ce525
pe2 fcollect=Ok(()) alltoall=Ok(()) before=488625511 after=524561014 fc=1856abd3dc6a9d25 a2a=4ec7391e9e7f3125
pe3 fcollect=Ok(()) alltoall=Ok(()) before=489724515 after=525660018 fc=1856abd3dc6a9d25 a2a=7079d6c278f22d25
pe4 fcollect=Ok(()) alltoall=Ok(()) before=490625511 after=526361014 fc=1856abd3dc6a9d25 a2a=b9e57821792d9925
pe5 fcollect=Ok(()) alltoall=Ok(()) before=493498515 after=527834018 fc=1856abd3dc6a9d25 a2a=641aa7c617e43325
pe6 fcollect=Ok(()) alltoall=Ok(()) before=493275511 after=526661014 fc=1856abd3dc6a9d25 a2a=5d49fc8c8a25f925
pe7 fcollect=Ok(()) alltoall=Ok(()) before=495178515 after=528164018 fc=1856abd3dc6a9d25 a2a=0561658656014b25
now=528164018
";
