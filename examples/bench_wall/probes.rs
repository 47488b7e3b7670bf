//! Isolated probes: one layer's public functions driven directly, with
//! fixed work, each in its own child so no probe inherits another's
//! heap. Host time only (plus the one simulated latency Table II also
//! reads at the verbs level).

use crate::host::Report;
use gpu_sim::GpuRuntime;
use ib_sim::{AtomicOp, IbVerbs};
use omb::Config;
use pcie_sim::{Cluster, ClusterSpec, HwProfile, MemRef, MemSpace, ProcId};
use shmem_gdr::{Design, RuntimeConfig, ShmemMachine};
use sim_core::{Completion, Link, LinkSpec, Sim, SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const MIB: u64 = 1 << 20;

/// Host microseconds per call of `f`, over `n` calls.
fn us_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

pub fn run(name: &str, div: usize) -> Report {
    let mut out = Report::default();
    let scaled = |n: u64| (n / div as u64).max(2);
    match name {
        "bare_events" => {
            let n = scaled(1_000_000);
            let sim = Sim::new();
            let t = Instant::now();
            sim.with_sched(|s| {
                for i in 0..n {
                    s.schedule_in(SimDuration::from_ns(i), Box::new(|_| {}));
                }
            });
            sim.drain();
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(sim.stats().events_executed, n);
            out.put_n(
                "sim-core.bare_events_per_host_s",
                n as f64 / secs,
                n as usize,
            );
        }
        "handoff2" => {
            let n = scaled(20_000);
            out.put_n("sim-core.handoff2_host_us", handoff(2, n), n as usize);
        }
        "handoff64" => {
            let n = scaled(4_000);
            out.put_n("sim-core.handoff64_host_us", handoff(64, n), n as usize);
        }
        "advance" => {
            let n = scaled(100_000);
            let sim = Sim::new();
            let us = sim.run(1, |ctx| {
                us_per_call(n, |_| ctx.advance(SimDuration::from_ns(10)))
            });
            out.put_n("sim-core.advance_host_us", us[0], n as usize);
        }
        "link_reserve" => {
            let n = scaled(1_000_000);
            let mut link = Link::new(LinkSpec::new(SimDuration::from_ns(300), 6e9));
            let us = us_per_call(n, |i| {
                black_box(link.reserve(SimTime(i * 1_000_000), 4096));
            });
            out.put_n("sim-core.link_reserve_host_ns", us * 1e3, n as usize);
        }
        "cluster64" => {
            let n = scaled(200);
            let us = us_per_call(n, |_| {
                black_box(Cluster::new(
                    ClusterSpec::wilkes(64, 1),
                    HwProfile::wilkes(),
                ));
            });
            out.put_n("pcie-sim.cluster64_build_host_ms", us / 1e3, n as usize);
        }
        "arena_copy" => {
            let n = scaled(200);
            let cluster = Cluster::new(ClusterSpec::internode_pair(), HwProfile::wilkes());
            for p in [ProcId(0), ProcId(1)] {
                cluster.create_host_arena(p, 8 * MIB as usize);
            }
            let at = |p: u32, off: u64| MemRef::new(MemSpace::Host(ProcId(p)), off);
            // touch both arenas first: the probe times copies, not page faults
            cluster
                .mem()
                .copy(at(0, 0), at(1, 0), 8 * MIB)
                .expect("warm copy");
            let us = us_per_call(n, |i| {
                cluster
                    .mem()
                    .copy(at(0, (i % 2) * MIB), at(1, (i % 3) * MIB), 4 * MIB)
                    .expect("copy");
            });
            out.put_n(
                "pcie-sim.arena_copy_gb_per_host_s",
                4.0 * MIB as f64 / 1e9 / (us / 1e6),
                n as usize,
            );
        }
        "gpu_memcpy" => {
            let (sim, ib) = fabric();
            let gpus = ib.gpus().clone();
            let dev = gpus
                .gpu(ib.cluster().topo().gpu_of(ProcId(0)))
                .malloc(8 * MIB)
                .expect("device buffer");
            let host = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            for (metric, len, n) in [
                ("gpu-sim.memcpy8_host_us", 8, scaled(20_000)),
                ("gpu-sim.memcpy4m_host_us", 4 * MIB, scaled(200)),
            ] {
                let us = sim.run(1, |ctx| {
                    us_per_call(n, |_| gpus.memcpy_sync(&ctx, dev, host, len))
                });
                out.put_n(metric, us[0], n as usize);
            }
        }
        "ib_verbs" => ib_verbs(&mut out, &scaled),
        "build_pair" => {
            let t = Instant::now();
            black_box(ShmemMachine::build(ClusterSpec::internode_pair(), tuned()));
            out.put("core.build_pair_host_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        "build64" => {
            let t = Instant::now();
            black_box(ShmemMachine::build(
                ClusterSpec::wilkes(64 / div.min(8), 1),
                crate::workloads::app_config(tuned()),
            ));
            out.put("core.build64_host_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        "faults" => {
            let n = scaled(20_000);
            let gen_us = us_per_call(n, |i| {
                black_box(faults::FaultPlan::generate_with_partitions(7, i));
            });
            out.put_n("faults.generate_host_us", gen_us, n as usize);
            let mut same = true;
            let rt_us = us_per_call(n, |i| {
                let plan = faults::FaultPlan::generate_with_partitions(7, i);
                same &= faults::FaultPlan::parse(&plan.to_string()).to_string() == plan.to_string();
            });
            if !same {
                out.fail("a generated fault plan does not survive Display -> parse");
            }
            // the second loop generates too: what is left is the round trip
            out.put_n(
                "faults.roundtrip_host_us",
                (rt_us - gen_us).max(0.0),
                n as usize,
            );
        }
        "serial_ref" => {
            let t = Instant::now();
            black_box(apps_sim::stencil2d::serial_reference(256, 4));
            out.put("apps.serial_ref_host_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        "omb_put_latency" => {
            let t = Instant::now();
            let p = omb::put_latency(Design::EnhancedGdr, tuned(), false, Config::DD, 8);
            out.put(
                "omb.put_latency_call_host_ms",
                t.elapsed().as_secs_f64() * 1e3,
            );
            if p.usec.is_nan() || p.usec <= 0.0 {
                out.fail("omb::put_latency reports no simulated latency");
            }
        }
        other => out.fail(format!("unknown probe {other:?}")),
    }
    out
}

fn tuned() -> RuntimeConfig {
    RuntimeConfig::tuned(Design::EnhancedGdr).with_obs(obs::ObsLevel::Off)
}

/// Two tasks ping-pong on a pair of completions for `n` round trips
/// while `tasks - 2` more sit parked on a third: every wake-up reaches
/// all of them. Host microseconds per round trip.
fn handoff(tasks: usize, n: u64) -> f64 {
    let sim = Sim::new();
    let (ping, pong, park) = (Completion::new(), Completion::new(), Completion::new());
    let us = sim.run(tasks, |ctx| match ctx.rank() {
        0 => {
            let us = us_per_call(n, |i| {
                ctx.with_sched(|s| s.signal(&ping, 1));
                ctx.wait_threshold(&pong, i + 1);
            });
            ctx.with_sched(|s| s.signal(&park, 1));
            us
        }
        1 => {
            for i in 0..n {
                ctx.wait_threshold(&ping, i + 1);
                ctx.with_sched(|s| s.signal(&pong, 1));
            }
            0.0
        }
        _ => {
            ctx.wait(&park);
            0.0
        }
    });
    us[0]
}

/// A two-node fabric without the OpenSHMEM runtime, as Table II's
/// verbs-level rows build it.
fn fabric() -> (Sim, Arc<IbVerbs>) {
    let sim = Sim::new();
    let cluster = Cluster::new(ClusterSpec::internode_pair(), HwProfile::wilkes());
    for p in cluster.topo().all_procs() {
        cluster.create_host_arena(p, 16 * MIB as usize);
    }
    let gpus = GpuRuntime::new(&sim, cluster, 16 * MIB);
    let ib = IbVerbs::new(&sim, gpus);
    (sim, ib)
}

/// Raw verbs between two GPU buffers on different nodes, posted from
/// one task: the hardware-model event chain with no runtime above it.
fn ib_verbs(out: &mut Report, scaled: &dyn Fn(u64) -> u64) {
    let (sim, ib) = fabric();
    let bufs = [0u32, 1].map(|pe| {
        let gpu = ib.cluster().topo().gpu_of(ProcId(pe));
        let buf = ib.gpus().gpu(gpu).malloc(8 * MIB).expect("device buffer");
        (buf, ib.reg_mr_nocost(ProcId(pe), buf, 8 * MIB))
    });
    let (local, (remote, remote_mr)) = (bufs[0].0, bufs[1]);
    let me = ProcId(0);

    let n8 = scaled(20_000);
    let r = sim.run(1, |ctx| {
        let t0 = ctx.now();
        let us = us_per_call(n8, |_| {
            let c = ib
                .post_rdma_write(&ctx, me, local, remote_mr.rkey, remote, 8)
                .expect("write");
            ctx.wait(&c.remote);
        });
        (us, (ctx.now() - t0).as_us_f64() / n8 as f64)
    });
    out.put_n("ib-sim.write8_host_us", r[0].0, n8 as usize);
    out.put_n("ib-sim.write8_sim_us", r[0].1, n8 as usize);

    let n4m = scaled(200);
    let r = sim.run(1, |ctx| {
        us_per_call(n4m, |_| {
            let c = ib
                .post_rdma_write(&ctx, me, local, remote_mr.rkey, remote, 4 * MIB)
                .expect("write");
            ctx.wait(&c.remote);
        })
    });
    out.put_n("ib-sim.write4m_host_us", r[0], n4m as usize);
    let r = sim.run(1, |ctx| {
        us_per_call(n4m, |_| {
            let c = ib
                .post_rdma_read(&ctx, me, local, remote_mr.rkey, remote, 4 * MIB)
                .expect("read");
            ctx.wait(&c);
        })
    });
    out.put_n("ib-sim.read4m_host_us", r[0], n4m as usize);
    let r = sim.run(1, |ctx| {
        us_per_call(n8, |_| {
            let a = ib
                .post_atomic(&ctx, me, remote_mr.rkey, remote, AtomicOp::FetchAdd(1))
                .expect("atomic");
            ctx.wait(&a.done);
        })
    });
    out.put_n("ib-sim.atomic_host_us", r[0], n8 as usize);
    let sum = ib
        .cluster()
        .mem()
        .get(remote.space)
        .and_then(|a| a.read_u64(remote.offset));
    if sum != Ok(n8) {
        out.fail(format!("{n8} fetch-adds of 1 left {sum:?} in the target"));
    }
}
