//! GPULBM: the multiphase Lattice-Boltzmann application of paper §IV,
//! redesigned over OpenSHMEM.
//!
//! The original code (Rosales, CLUSTER'11) is a CUDA-aware-MPI D3Q19
//! multiphase solver, 3-D grid decomposed along Z. Its Evolution phase
//! performs three exchanges per timestep: the laplacian of the phase
//! field phi (1 element), the phase distribution f (1 element), and the
//! phase + momentum distributions f and g (6 elements); message size =
//! `X * Y * elems * sizeof(f32)` (paper §IV).
//!
//! Two variants are implemented:
//! - [`LbmVariant::CudaAwareMpi`]: the original two-sided exchanges
//!   (`isend`/`irecv`/`waitall` over the host-staged message layer);
//! - [`LbmVariant::ShmemGdr`]: the paper's redesign — `shmem_putmem`
//!   straight from GPU symmetric memory, quiet + barrier.
//!
//! One body runs the Evolution loop: the paper's exact three-exchange
//! message schedule with a calibrated per-site compute model, on a
//! periodic process grid. The Z slabs of the original code are its
//! 1 x 1 x P grid, and [`LbmParams::with_3d`] swaps in the balanced 3-D
//! grid of the weak-scaling runs. **Scaled** fidelity (the Figure 12
//! harness) leaves the exchanged payloads unfilled. **Full** fidelity,
//! on Z slabs only, also runs a real single-phase D3Q19 BGK update on
//! the host (the multiphase model's second distribution adds
//! arithmetic, not communication structure): each step's five
//! Z-crossing populations per face ride in the f+g exchange's payload,
//! 5 of its 6 elements per site. That run is validated bit-exactly
//! against [`serial_reference`] and checked for mass conservation, and
//! it reaches the same virtual instants as the scaled one.

use shmem_gdr::{Domain, Pe, ShmemMachine, SimDuration, SymSlice};
use std::rc::Rc;

/// D3Q19 velocity set: (cx, cy, cz).
pub const Q: usize = 19;
pub const C: [(i32, i32, i32); Q] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, 1, 0),
    (1, -1, 0),
    (-1, -1, 0),
    (1, 0, 1),
    (-1, 0, 1),
    (1, 0, -1),
    (-1, 0, -1),
    (0, 1, 1),
    (0, -1, 1),
    (0, 1, -1),
    (0, -1, -1),
];
pub const W: [f32; Q] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
const TAU: f32 = 0.8;

/// Which communication design the Evolution loop uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LbmVariant {
    /// Original: two-sided CUDA-aware MPI (host-staged pipeline).
    CudaAwareMpi,
    /// Redesigned: one-sided puts from GPU symmetric heaps (GDR).
    ShmemGdr,
}

/// Compute model: ns per lattice site per step (multiphase LBM on a
/// K20 runs a few hundred MLUPS) ...
const COMPUTE_NS_PER_SITE: f64 = 1.5;
/// ... plus a fixed per-step kernel/driver overhead (several kernels), us.
const KERNEL_OVERHEAD_US: f64 = 30.0;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct LbmParams {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub steps: usize,
    pub variant: LbmVariant,
    /// Real D3Q19 arithmetic on the host (small grids, Z slabs only).
    pub full_physics: bool,
    /// Balanced 3-D process decomposition (the paper's weak scaling
    /// experiment uses a "4 x 4 x 4" grid) instead of Z slabs.
    pub decomp3d: bool,
}

impl LbmParams {
    /// Benchmark configuration (scaled fidelity).
    pub fn bench(nx: usize, ny: usize, nz: usize, steps: usize, variant: LbmVariant) -> Self {
        LbmParams {
            nx,
            ny,
            nz,
            steps,
            variant,
            full_physics: false,
            decomp3d: false,
        }
    }

    /// Switch to the balanced 3-D decomposition (weak-scaling runs).
    pub fn with_3d(mut self) -> Self {
        self.decomp3d = true;
        self
    }

    /// Small full-physics configuration for correctness runs: an
    /// `n`³ grid on Z slabs.
    pub fn validate(n: usize, steps: usize, variant: LbmVariant) -> Self {
        LbmParams {
            full_physics: true,
            ..Self::bench(n, n, n, steps, variant)
        }
    }
}

/// Result of the Evolution phase.
#[derive(Clone, Debug)]
pub struct LbmResult {
    /// Evolution-loop time, max over PEs.
    pub evolution: SimDuration,
    pub per_step_us: f64,
    /// Total mass after the run (full fidelity only).
    pub mass: Option<f64>,
    /// The distributions after the run (full fidelity only; used by the
    /// bit-exactness tests): one slab per rank in rank order, each
    /// `[q][z][y][x]` over its own `lz = nz / ranks` planes, halo planes
    /// left out.
    pub field: Option<Vec<f32>>,
}

/// Deterministic initial density perturbation.
fn rho0(nx: usize, ny: usize, nz: usize, x: usize, y: usize, z: usize) -> f32 {
    1.0 + 0.05 * ((x as f32 / nx as f32) + 2.0 * (y as f32 / ny as f32) - (z as f32 / nz as f32))
}

/// Serial reference: the same D3Q19 BGK on one rank; returns the full
/// distribution field in `[q][z][y][x]` order.
pub fn serial_reference(nx: usize, ny: usize, nz: usize, steps: usize) -> Vec<f32> {
    let mut f = init_field(nx, ny, nz, 0, nz);
    let mut tmp = f.clone();
    for _ in 0..steps {
        step_local(&mut f, &mut tmp, nx, ny, nz, true);
    }
    f
}

/// Initialize a slab `[z0, z0+lz)` of the global field (equilibrium at
/// rest with the perturbed density), with space for 2 halo planes.
fn init_field(nx: usize, ny: usize, nz: usize, z0: usize, lz: usize) -> Vec<f32> {
    let plane = nx * ny;
    let mut f = vec![0.0f32; Q * (lz + 2) * plane];
    for q in 0..Q {
        for z in 0..lz {
            for y in 0..ny {
                for x in 0..nx {
                    let rho = rho0(nx, ny, nz, x, y, (z0 + z) % nz);
                    f[((q * (lz + 2) + (z + 1)) * ny + y) * nx + x] = W[q] * rho;
                }
            }
        }
    }
    f
}

/// One collide+stream step on a slab with halos. `periodic_z` folds Z
/// locally (serial reference); otherwise out-of-slab populations are
/// deposited in the halo planes for the exchange.
fn step_local(
    f: &mut Vec<f32>,
    tmp: &mut Vec<f32>,
    nx: usize,
    ny: usize,
    lz: usize,
    periodic_z: bool,
) {
    let zdim = lz + 2;
    let idx = |q: usize, z: usize, y: usize, x: usize| ((q * zdim + z) * ny + y) * nx + x;
    tmp.iter_mut().for_each(|v| *v = 0.0);
    for z in 1..=lz {
        for y in 0..ny {
            for x in 0..nx {
                // macroscopic moments
                let mut rho = 0.0f32;
                let (mut ux, mut uy, mut uz) = (0.0f32, 0.0f32, 0.0f32);
                for q in 0..Q {
                    let v = f[idx(q, z, y, x)];
                    rho += v;
                    ux += v * C[q].0 as f32;
                    uy += v * C[q].1 as f32;
                    uz += v * C[q].2 as f32;
                }
                ux /= rho;
                uy /= rho;
                uz /= rho;
                let usq = ux * ux + uy * uy + uz * uz;
                for q in 0..Q {
                    let cu = C[q].0 as f32 * ux + C[q].1 as f32 * uy + C[q].2 as f32 * uz;
                    let feq = W[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq);
                    let post = f[idx(q, z, y, x)] + (feq - f[idx(q, z, y, x)]) / TAU;
                    // stream (push), XY periodic, Z into halos
                    let xn = (x as i32 + C[q].0).rem_euclid(nx as i32) as usize;
                    let yn = (y as i32 + C[q].1).rem_euclid(ny as i32) as usize;
                    let mut zn = z as i32 + C[q].2;
                    if periodic_z {
                        // fold interior-periodically: 1..=lz
                        if zn < 1 {
                            zn = lz as i32;
                        } else if zn > lz as i32 {
                            zn = 1;
                        }
                    }
                    tmp[idx(q, zn as usize, yn, xn)] = post;
                }
            }
        }
    }
    std::mem::swap(f, tmp);
}

/// Populations crossing a Z face in direction `cz` (+1 or -1): five of
/// D3Q19's nineteen.
fn z_cross(cz: i32) -> impl Iterator<Item = usize> {
    (0..Q).filter(move |&q| C[q].2 == cz)
}

// ------------------------------------------------------------- driver

/// Run the Evolution phase on an already-built machine.
pub fn run(m: &Rc<ShmemMachine>, params: LbmParams) -> LbmResult {
    assert!(params.steps > 0, "LbmParams::steps must be at least 1");
    assert!(
        !(params.full_physics && params.decomp3d),
        "full-physics LBM runs on Z slabs only (LbmParams::decomp3d)"
    );
    let out = m.run(move |pe| run_pe(pe, &params));
    let evolution = out.iter().map(|r| r.0).max().unwrap();
    let mass = out[0].1.map(|_| out.iter().filter_map(|r| r.1).sum());
    let field = out[0].2.as_ref().map(|_| {
        out.iter()
            .flat_map(|r| r.2.iter().flatten())
            .copied()
            .collect()
    });
    LbmResult {
        evolution,
        per_step_us: evolution.as_us_f64() / params.steps as f64,
        mass,
        field,
    }
}

type PeOut = (SimDuration, Option<f64>, Option<Vec<f32>>);

/// The Evolution loop on a periodic process grid: Z slabs are the
/// 1 x 1 x P grid, `decomp3d` picks the balanced 3-D one. Each rank
/// runs the paper's three exchanges per step with its face neighbours
/// on every axis the grid splits, with face-area-sized messages. At
/// full fidelity the host's D3Q19 step fills the f+g exchange's
/// payload with the planes leaving the slab and takes the arriving
/// ones from it.
fn run_pe(pe: &Pe, p: &LbmParams) -> PeOut {
    let npes = pe.n_pes();
    let (ax, ay, az) = if p.decomp3d {
        crate::grid_3d(npes)
    } else {
        (1, 1, npes)
    };
    assert!(
        p.nx.is_multiple_of(ax) && p.ny.is_multiple_of(ay) && p.nz.is_multiple_of(az),
        "grid {}x{}x{} not divisible by process grid {ax}x{ay}x{az}",
        p.nx,
        p.ny,
        p.nz
    );
    let (lx, ly, lz) = (p.nx / ax, p.ny / ay, p.nz / az);
    let me = pe.my_pe();
    let (ix, iy, iz) = (me % ax, (me / ax) % ay, me / (ax * ay));
    let rank = |x: usize, y: usize, z: usize| (z * ay + y) * ax + x;
    // periodic face neighbours: (plus, minus) per axis
    let nbrs = [
        (
            rank((ix + 1) % ax, iy, iz),
            rank((ix + ax - 1) % ax, iy, iz),
            ly * lz, // X-face area
        ),
        (
            rank(ix, (iy + 1) % ay, iz),
            rank(ix, (iy + ay - 1) % ay, iz),
            lx * lz,
        ),
        (
            rank(ix, iy, (iz + 1) % az),
            rank(ix, iy, (iz + az - 1) % az),
            lx * ly,
        ),
    ];
    let max_face = nbrs.iter().map(|n| n.2).max().unwrap();
    // symmetric surface: 4 slots of the largest exchange (6 f32 elements
    // per site): rx from minus, rx from plus, tx to plus, tx to minus;
    // `slot` is in bytes
    let slot_len = max_face * 6;
    let slot = (slot_len * 4) as u64;
    let surf: SymSlice<f32> = pe.shmalloc_slice(4 * slot_len, Domain::Gpu);
    // full fidelity: my Z slab with its two halo planes, and the step's
    // scratch copy
    let plane = lx * ly;
    let zdim = lz + 2;
    let at = |q: usize, z: usize| (q * zdim + z) * plane..(q * zdim + z + 1) * plane;
    let mut slab = p.full_physics.then(|| {
        let f = init_field(p.nx, p.ny, p.nz, iz * lz, lz);
        (f.clone(), f)
    });
    pe.barrier_all();

    let sites = lx * ly * lz;
    let site_cost = COMPUTE_NS_PER_SITE * sites as f64;
    // compute split across the three kernel groups (paper §IV), and the
    // three exchanges: phi laplacian (1 elem), f (1 elem), f+g (6 elems)
    let phases = [0.25f64, 0.35, 0.40];
    let elems = [1u64, 1, 6];

    let t0 = pe.now();
    for _ in 0..p.steps {
        if let Some((f, tmp)) = slab.as_mut() {
            step_local(f, tmp, lx, ly, lz, false);
            // what left through the top face goes to plus, the bottom
            // face's to minus
            for (tx, cz, z) in [(2, 1, lz + 1), (3, -1, 0)] {
                let out: Vec<f32> = z_cross(cz).flat_map(|q| &f[at(q, z)]).copied().collect();
                pe.write_sym(&surf.slice(tx * slot_len, slot_len), &out);
            }
        }
        for k in 0..3 {
            pe.gpu_compute(SimDuration::from_ns_f64(
                site_cost * phases[k] + KERNEL_OVERHEAD_US * 1000.0 / 3.0,
            ));
            match p.variant {
                LbmVariant::ShmemGdr => {
                    for &(plus, minus, face) in &nbrs {
                        let bytes = face as u64 * elems[k] * 4;
                        if plus == me {
                            continue; // single rank on this axis
                        }
                        let src_p = pe.addr_of(surf.addr().add(2 * slot), me);
                        let src_m = pe.addr_of(surf.addr().add(3 * slot), me);
                        pe.putmem(surf.addr(), src_p, bytes, plus);
                        pe.putmem(surf.addr().add(slot), src_m, bytes, minus);
                    }
                    pe.barrier_all();
                }
                LbmVariant::CudaAwareMpi => {
                    // per-direction sendrecv with buffer reuse: the
                    // directions of each axis serialize, as in the
                    // original application
                    for &(plus, minus, face) in &nbrs {
                        let bytes = face as u64 * elems[k] * 4;
                        if plus == me {
                            continue;
                        }
                        let h = vec![
                            pe.irecv(minus, pe.addr_of(surf.addr(), me), bytes),
                            pe.isend(plus, pe.addr_of(surf.addr().add(2 * slot), me), bytes),
                        ];
                        pe.msg_waitall(h);
                        let h = vec![
                            pe.irecv(plus, pe.addr_of(surf.addr().add(slot), me), bytes),
                            pe.isend(minus, pe.addr_of(surf.addr().add(3 * slot), me), bytes),
                        ];
                        pe.msg_waitall(h);
                    }
                    pe.barrier_all();
                }
            }
        }
        if let Some((f, _)) = slab.as_mut() {
            // the f+g exchange delivered minus's upgoing planes into
            // slot 0 and plus's downgoing ones into slot 1; a lone rank
            // on Z sent nothing and folds its own tx slots
            let (from_minus, from_plus) = if az == 1 { (2, 3) } else { (0, 1) };
            for (rx, cz, z) in [(from_minus, 1, 1), (from_plus, -1, lz)] {
                let got = pe.read_sym(&surf.slice(rx * slot_len, slot_len));
                for (q, src) in z_cross(cz).zip(got.chunks(plane)) {
                    f[at(q, z)].copy_from_slice(src);
                }
            }
        }
    }
    let elapsed = pe.now() - t0;

    match slab {
        None => (elapsed, None, None),
        Some((f, _)) => {
            // mass and interior field extraction
            let interior: Vec<f32> = (0..Q)
                .flat_map(|q| (1..=lz).flat_map(move |z| at(q, z)))
                .map(|i| f[i])
                .collect();
            let mass = interior.iter().map(|&v| v as f64).sum();
            (elapsed, Some(mass), Some(interior))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::ClusterSpec;
    use shmem_gdr::{Design, RuntimeConfig};

    fn machine(nodes: usize, ppn: usize, design: Design) -> Rc<ShmemMachine> {
        ShmemMachine::build(
            ClusterSpec::wilkes(nodes, ppn),
            RuntimeConfig::tuned(design),
        )
    }

    #[test]
    fn serial_reference_conserves_mass() {
        let n = 6;
        let f0 = init_field(n, n, n, 0, n);
        let m0: f64 = f0.iter().map(|&v| v as f64).sum();
        let f = serial_reference(n, n, n, 4);
        let m1: f64 = f.iter().map(|&v| v as f64).sum();
        assert!((m0 - m1).abs() < 1e-3, "mass drifted: {m0} -> {m1}");
    }

    #[test]
    fn distributed_matches_serial_bit_for_bit() {
        let n = 8;
        let steps = 3;
        let serial = serial_reference(n, n, n, steps);
        for variant in [LbmVariant::ShmemGdr, LbmVariant::CudaAwareMpi] {
            let m = machine(2, 1, Design::EnhancedGdr);
            let res = run(&m, LbmParams::validate(n, steps, variant));
            // reassemble: each PE returned [q][z_local][y][x]; serial is
            // [q][z][y][x] with z global. Compare per-rank slabs.
            let field = res.field.unwrap();
            let plane = n * n;
            let lz = n / 2;
            for (rank, slab) in field.chunks(Q * lz * plane).enumerate() {
                for q in 0..Q {
                    for z in 0..lz {
                        let gz = rank * lz + z;
                        let s = &serial[((q * (n + 2) + (gz + 1)) * n) * n
                            ..((q * (n + 2) + (gz + 1)) * n) * n + plane];
                        let d = &slab[(q * lz + z) * plane..(q * lz + z) * plane + plane];
                        assert_eq!(s, d, "mismatch {variant:?} rank{rank} q{q} z{z}");
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_mass_is_conserved() {
        let m = machine(2, 2, Design::EnhancedGdr);
        let n = 8;
        let res = run(&m, LbmParams::validate(n, 4, LbmVariant::ShmemGdr));
        let f0 = init_field(n, n, n, 0, n);
        let want: f64 = f0.iter().map(|&v| v as f64).sum();
        let got = res.mass.unwrap();
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }

    #[test]
    fn shmem_variant_is_faster_than_mpi_variant() {
        let n = 64;
        let mk = |variant| {
            let m = machine(4, 1, Design::EnhancedGdr);
            run(&m, LbmParams::bench(n, n, 64, 10, variant)).evolution
        };
        let shmem = mk(LbmVariant::ShmemGdr);
        let mpi = mk(LbmVariant::CudaAwareMpi);
        assert!(
            shmem < mpi,
            "shmem {shmem} should beat CUDA-aware MPI {mpi}"
        );
    }

    #[test]
    #[should_panic(expected = "LbmParams::steps")]
    fn zero_steps_are_rejected() {
        let m = machine(1, 1, Design::EnhancedGdr);
        run(&m, LbmParams::bench(8, 8, 8, 0, LbmVariant::ShmemGdr));
    }

    #[test]
    fn scaled_mode_single_pe() {
        let m = machine(1, 1, Design::EnhancedGdr);
        let res = run(&m, LbmParams::bench(32, 32, 32, 5, LbmVariant::ShmemGdr));
        assert!(res.per_step_us > 0.0);
        assert!(res.mass.is_none());
    }
}
