//! Characterisation golden for the application runs.
//!
//! Pins the virtual time of the LBM and Stencil2D runs behind Figures 11
//! and 12, and of the examples' app calls, to
//! `tests/golden/app_times.txt`, one line per run, in picoseconds:
//!
//! - LBM Z-slab runs (`LbmParams::bench`), n = 32 and 64, both variants;
//! - LBM weak-scaling runs on the balanced 3-D grid (`.with_3d()`),
//!   16³ sites per GPU on 1 to 8 nodes, both variants;
//! - Stencil2D (`StencilParams::bench(256, 3)`);
//! - the app calls of the `stencil2d`, `lbm` and `bfs` examples, with
//!   the checksum's and the mass's bits, and BFS's levels and reachable
//!   count.
//!
//! A refactor of either application's communication schedule that moves
//! any instant shows up here as the first differing line. After an
//! *intended* change, `GDR_BLESS=1 cargo test --test app_times`
//! rewrites the golden — read its diff first.

mod common;

use gdr_shmem::apps::{
    bfs, grid_3d, lbm, stencil2d, BfsParams, LbmParams, LbmVariant, StencilParams,
};
use gdr_shmem::pcie::ClusterSpec;
use gdr_shmem::shmem::{Design, RuntimeConfig, ShmemMachine};
use std::fmt::Write as _;
use std::rc::Rc;

/// `(nodes, procs per node)` of the slab and stencil runs.
const SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (4, 1), (8, 1), (2, 2), (4, 2)];
const VARIANTS: [LbmVariant; 2] = [LbmVariant::CudaAwareMpi, LbmVariant::ShmemGdr];
const STEPS: usize = 3;

fn machine(nodes: usize, ppn: usize) -> Rc<ShmemMachine> {
    machine_on(nodes, ppn, Design::EnhancedGdr)
}

fn machine_on(nodes: usize, ppn: usize, design: Design) -> Rc<ShmemMachine> {
    ShmemMachine::build(
        ClusterSpec::wilkes(nodes, ppn),
        RuntimeConfig::builtin(design),
    )
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
    examples(&mut out);
    out
}

/// The app calls of `examples/{stencil2d,lbm,bfs}.rs`, each on the
/// example's cluster shape and design with the example's params.
fn examples(out: &mut String) {
    let r = stencil2d::run(&machine(2, 2), StencilParams::validate(64, 10));
    let _ = writeln!(
        out,
        "example stencil2d 2x2 validate n=64 iters=10 elapsed_ps={} checksum_bits={:#x}",
        r.elapsed.as_ps(),
        r.checksum.unwrap().to_bits()
    );
    for design in [Design::HostPipeline, Design::EnhancedGdr] {
        let r = stencil2d::run(&machine_on(16, 1, design), StencilParams::bench(1024, 100));
        let _ = writeln!(
            out,
            "example stencil2d 16x1 {design:?} n=1024 iters=100 elapsed_ps={}",
            r.elapsed.as_ps()
        );
    }
    let r = lbm::run(
        &machine(2, 2),
        LbmParams::validate(8, 5, LbmVariant::ShmemGdr),
    );
    let _ = writeln!(
        out,
        "example lbm 2x2 validate n=8 steps=5 ShmemGdr evolution_ps={} mass_bits={:#x}",
        r.evolution.as_ps(),
        r.mass.unwrap().to_bits()
    );
    for variant in VARIANTS {
        let r = lbm::run(
            &machine(16, 1),
            LbmParams::bench(128, 128, 128, 50, variant),
        );
        let _ = writeln!(
            out,
            "example lbm 16x1 n=128 steps=50 {variant:?} evolution_ps={}",
            r.evolution.as_ps()
        );
    }
    let r = bfs::run(&machine(4, 2), BfsParams::small(4096, 6));
    let reached = r.dist.iter().filter(|&&d| d != u64::MAX).count();
    let _ = writeln!(
        out,
        "example bfs 4x2 vertices=4096 degree=6 levels={} reachable={reached} elapsed_ps={}",
        r.levels,
        r.elapsed.as_ps()
    );
}

#[test]
fn app_times_match_golden() {
    common::check("app_times.txt", &times());
}

/// Full fidelity only fills and reads the exchange surfaces of the
/// scaled schedule: for the same params it reaches the same virtual
/// instant as scaled fidelity, and still matches the serial reference.
#[test]
fn full_fidelity_times_the_scaled_schedule() {
    let iters = 3;
    for (nodes, ppn, n) in [(1, 1, 16), (2, 1, 32), (2, 2, 32), (4, 2, 64), (8, 2, 256)] {
        let want: f64 = stencil2d::serial_reference(n, iters).iter().sum();
        for design in [Design::EnhancedGdr, Design::HostPipeline] {
            let full = StencilParams::validate(n, iters);
            let scaled = StencilParams {
                full_physics: false,
                ..full
            };
            let f = stencil2d::run(&machine_on(nodes, ppn, design), full);
            let s = stencil2d::run(&machine_on(nodes, ppn, design), scaled);
            let at = format!("stencil {nodes}x{ppn} n={n} {design:?}");
            assert_eq!(f.elapsed, s.elapsed, "{at}: full vs scaled fidelity");
            let got = f.checksum.unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs(),
                "{at}: checksum {got} vs serial {want}"
            );
        }
    }

    let (n, steps) = (8, 3);
    let serial = lbm::serial_reference(n, n, n, steps);
    let plane = n * n;
    for (nodes, ppn) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)] {
        for variant in VARIANTS {
            let full = LbmParams::validate(n, steps, variant);
            let scaled = LbmParams {
                full_physics: false,
                ..full
            };
            let f = lbm::run(&machine(nodes, ppn), full);
            let s = lbm::run(&machine(nodes, ppn), scaled);
            let at = format!("lbm {nodes}x{ppn} n={n} {variant:?}");
            assert_eq!(f.evolution, s.evolution, "{at}: full vs scaled fidelity");
            // each rank's slab is [q][z][y][x] over its lz planes; the
            // serial field is [q][z][y][x] with a halo plane at each end
            let lz = n / (nodes * ppn);
            let field = f.field.unwrap();
            for (rank, slab) in field.chunks(lbm::Q * lz * plane).enumerate() {
                for (i, got) in slab.chunks(plane).enumerate() {
                    let (q, gz) = (i / lz, rank * lz + i % lz);
                    let o = (q * (n + 2) + gz + 1) * plane;
                    assert_eq!(got, &serial[o..o + plane], "{at}: rank {rank} q {q} z {gz}");
                }
            }
        }
    }
}
