//! Characterisation of the chunked transfer chains under faults.
//!
//! Every chunked route — the pipeline GDR write, the proxy put from a
//! device and from a host source, the proxy get, the host-staged
//! pipeline put and get (serve-get and deferred delivery on the target)
//! and the chunked direct GDR get of a proxy-less machine — runs one
//! 4 MiB op unfaulted, under a heavy chunk-post CQE stream with a retry
//! budget of one (replays and exhaustion), and, for the proxy and
//! host-staged routes, under a stall window of node 1's agent long
//! enough that a proxy restarts. Each
//! run prints, at `Spans`, one line per recorded event from the op's
//! start to its `quiet` (track, name, timestamp, duration, payload),
//! then the op's `Result` and the machine's fault tallies, and the
//! whole is compared byte for byte against
//! `tests/golden/chunk_chains.txt`: any change to the order, timing or
//! naming of a chunk's spans, replays or give-ups shows up as the first
//! differing line.
//!
//! Regenerate with `GDR_CHUNK_CHAINS_BLESS=1 cargo test --test
//! chunk_chains` after an *intended* change — read its diff first.

use gdr_shmem::faults::FaultPlan;
use gdr_shmem::obs::ObsLevel;
use gdr_shmem::pcie::{ClusterSpec, PlacementPolicy};
use gdr_shmem::shmem::{Design, Domain, RuntimeConfig, ShmemMachine};
use std::fmt::Write as _;

const LEN: u64 = 4 << 20;

/// The agent stall: node 1's agent stalls 50 ms from virtual time 0
/// until 1.2 ms, so a proxy op that reaches it inside the window is
/// served once the agent restarts at the window's end instead (the
/// host-staged progress agent sleeps the stall out). The sync deadline
/// is far out of the way: the peer waits out the stall in the closing
/// barrier.
const STALL: &str = "seed=1 timeout=60000000000 stall=1:0:1200000:50000000";

/// Chunk posts fail at 45 % with one retry: some chunks replay, some
/// exhaust and the op reports a partial delivery.
const CQE: &str = "seed=1 cqe=450 retries=1";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
}

/// One chunked route: its name, the design and proxy setting of the
/// machine that reaches it, the peer, the op, and whether the origin's
/// local buffer (put source, get destination) is device memory. The
/// symmetric end is always device memory.
type Route = (&'static str, Design, bool, usize, Op, bool);

const ROUTES: [Route; 7] = [
    (
        "pipeline-gdr-write",
        Design::EnhancedGdr,
        true,
        2,
        Op::Put,
        true,
    ),
    (
        "proxy-put-device-src",
        Design::EnhancedGdr,
        true,
        3,
        Op::Put,
        true,
    ),
    (
        "proxy-put-host-src",
        Design::EnhancedGdr,
        true,
        3,
        Op::Put,
        false,
    ),
    ("proxy-get", Design::EnhancedGdr, true, 2, Op::Get, true),
    (
        "host-pipeline-put",
        Design::HostPipeline,
        true,
        2,
        Op::Put,
        true,
    ),
    (
        "host-pipeline-get",
        Design::HostPipeline,
        true,
        2,
        Op::Get,
        true,
    ),
    (
        "chunked-direct-get",
        Design::EnhancedGdr,
        false,
        2,
        Op::Get,
        true,
    ),
];

/// The dispatch matrix's machine: two nodes, two PEs and two GPUs per
/// node, one HCA on socket 0 — PE 2 owns the GPU on the HCA's socket,
/// PE 3 the GPU on the other one.
fn spec() -> ClusterSpec {
    ClusterSpec {
        nodes: 2,
        procs_per_node: 2,
        gpus_per_node: 2,
        hcas_per_node: 1,
        sockets_per_node: 2,
        placement: PlacementPolicy::Affinity,
    }
}

fn run((name, design, proxy, peer, op, local_dev): Route, plan: &str, out: &mut String) {
    // the env-driven observability and fault knobs pinned: the golden
    // must not depend on the caller's GDR_SHMEM_OBS* / _FAULTS settings
    let mut cfg = RuntimeConfig::tuned(design)
        .with_obs(ObsLevel::Spans)
        .with_obs_window(0)
        .with_quiesce_ns(0)
        .with_faults(FaultPlan::parse(plan));
    cfg.proxy_enabled = proxy;
    let m = ShmemMachine::build(spec(), cfg);
    let res = m.run(|pe| {
        let sym = pe.shmalloc(LEN, Domain::Gpu);
        let local = if local_dev {
            pe.malloc_dev(LEN)
        } else {
            pe.malloc_host(LEN)
        };
        pe.barrier_all();
        let mut r = None;
        if pe.my_pe() == 0 {
            let t0 = pe.now();
            let res = match op {
                Op::Put => pe.try_putmem(sym, local, LEN, peer),
                Op::Get => pe.try_getmem(local, sym, LEN, peer),
            };
            pe.quiet();
            r = Some((t0, pe.now(), res.map_err(|e| e.to_string())));
        }
        pe.barrier_all();
        r
    });
    let (t0, t1, result) = res[0].clone().expect("the origin ran the op");
    gdr_shmem::obs_analyze::check_paths(m.obs()).expect("trace paths agree");
    let head = format!(
        "{} [{}]",
        name,
        if plan.is_empty() { "unfaulted" } else { plan }
    );
    for (track, events) in m.obs().ordered_tracks() {
        for e in events.iter().filter(|e| e.ts >= t0 && e.ts <= t1) {
            let _ = writeln!(
                out,
                "{head} {track} {} ts={} dur={} {:?}",
                e.name, e.ts.0, e.dur.0, e.payload
            );
        }
    }
    let faults: Vec<_> = m
        .obs()
        .fault_counters()
        .into_iter()
        .map(|((what, proto), n)| format!("{what}/{proto}={n}"))
        .collect();
    let _ = writeln!(
        out,
        "{head} result={result:?} faults=[{}]",
        faults.join(",")
    );
}

fn chains() -> String {
    let mut out = String::new();
    for route in ROUTES {
        // the stall window delays the proxy agent and the host-staged
        // progress agent; the other routes have no agent to stall
        let agent = route.0.starts_with("proxy") || route.0.starts_with("host");
        for plan in ["", CQE, STALL] {
            if plan == STALL && !agent {
                continue;
            }
            run(route, plan, &mut out);
        }
    }
    out
}

#[test]
fn chunk_chains_match_golden() {
    let got = chains();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chunk_chains.txt");
    if std::env::var_os("GDR_CHUNK_CHAINS_BLESS").is_some() {
        std::fs::write(path, &got).expect("bless chunk chains");
    }
    let want = std::fs::read_to_string(path)
        .expect("missing golden file; regenerate with GDR_CHUNK_CHAINS_BLESS=1");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  got  {g}\n  want {w}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!(
            "chunk chains drifted from tests/golden/chunk_chains.txt; first difference at {first}"
        );
    }
}
