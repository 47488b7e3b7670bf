//! Characterisation golden for the scaled application runs.
//!
//! Pins the virtual time of the scaled-fidelity LBM and Stencil2D runs
//! behind Figures 11 and 12 to `tests/golden/app_times.txt`, one line
//! per run, in picoseconds:
//!
//! - LBM Z-slab runs (`LbmParams::bench`), n = 32 and 64, both variants;
//! - LBM weak-scaling runs on the balanced 3-D grid (`.with_3d()`),
//!   16³ sites per GPU on 1 to 8 nodes, both variants;
//! - Stencil2D (`StencilParams::bench(256, 3)`).
//!
//! A refactor of either application's communication schedule that moves
//! any instant shows up here as the first differing line. After an
//! *intended* change, `GDR_APP_TIMES_BLESS=1 cargo test --test
//! app_times` rewrites the golden — read its diff first.

use gdr_shmem::apps::{grid_3d, lbm, stencil2d, LbmParams, LbmVariant, StencilParams};
use gdr_shmem::obs::ObsLevel;
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, RuntimeConfig, ShmemMachine};
use std::fmt::Write as _;
use std::rc::Rc;

/// `(nodes, procs per node)` of the slab and stencil runs.
const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (4, 1), (8, 1), (2, 2), (4, 2)];
const VARIANTS: [LbmVariant; 2] = [LbmVariant::CudaAwareMpi, LbmVariant::ShmemGdr];
const STEPS: usize = 3;

fn machine(nodes: usize, ppn: usize) -> Rc<ShmemMachine> {
    // the environment-driven knobs pinned: the golden must not depend
    // on the caller's GDR_SHMEM_* settings
    let cfg = RuntimeConfig::tuned(Design::EnhancedGdr)
        .with_obs(ObsLevel::Off)
        .with_obs_window(0)
        .with_quiesce_ns(0)
        .with_faults(Default::default());
    ShmemMachine::build(ClusterSpec::wilkes(nodes, ppn), cfg)
}

fn times() -> String {
    let mut out = String::new();
    for (nodes, ppn) in SHAPES {
        for n in [32, 64] {
            for variant in VARIANTS {
                let r = lbm::run(
                    &machine(nodes, ppn),
                    LbmParams::bench(n, n, n, STEPS, variant),
                );
                let _ = writeln!(
                    out,
                    "lbm-slab {nodes}x{ppn} n={n} {variant:?} evolution_ps={}",
                    r.evolution.as_ps()
                );
            }
        }
    }
    for nodes in 1..=8 {
        let (ax, ay, az) = grid_3d(nodes);
        for variant in VARIANTS {
            let params = LbmParams::bench(16 * ax, 16 * ay, 16 * az, STEPS, variant).with_3d();
            let r = lbm::run(&machine(nodes, 1), params);
            let _ = writeln!(
                out,
                "lbm-3d {nodes}x1 grid={ax}x{ay}x{az} {variant:?} evolution_ps={}",
                r.evolution.as_ps()
            );
        }
    }
    for (nodes, ppn) in SHAPES {
        let r = stencil2d::run(&machine(nodes, ppn), StencilParams::bench(256, 3));
        let _ = writeln!(
            out,
            "stencil {nodes}x{ppn} n=256 elapsed_ps={}",
            r.elapsed.as_ps()
        );
    }
    out
}

#[test]
fn app_times_match_golden() {
    let got = times();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/app_times.txt");
    if std::env::var_os("GDR_APP_TIMES_BLESS").is_some() {
        std::fs::write(path, &got).expect("bless app times");
    }
    let want = std::fs::read_to_string(path)
        .expect("missing golden file; regenerate with GDR_APP_TIMES_BLESS=1");
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
        panic!("app times drifted from tests/golden/app_times.txt; first difference at {first}");
    }
}
