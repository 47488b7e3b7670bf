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
//! Two fidelities:
//! - **Full**: a real single-phase D3Q19 BGK solver (the multiphase
//!   model's second distribution adds arithmetic, not communication
//!   structure) whose slab exchange moves the five Z-crossing
//!   populations per face; validated bit-exactly against
//!   [`serial_reference`] and checked for mass conservation;
//! - **Scaled**: the paper's exact three-exchange message schedule with
//!   a calibrated per-site compute model, for the Figure 12 harness. One
//!   body serves both decompositions: the Z slabs of the original code
//!   are its 1 x 1 x P process grid, and [`LbmParams::with_3d`] swaps in
//!   the balanced 3-D grid of the weak-scaling runs.

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

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct LbmParams {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub steps: usize,
    pub variant: LbmVariant,
    pub full_physics: bool,
    /// Scaled mode: balanced 3-D process decomposition (the paper's weak
    /// scaling experiment uses a "4 x 4 x 4" grid) instead of Z slabs.
    pub decomp3d: bool,
    /// Scaled-mode compute model: ns per lattice site per step
    /// (multiphase LBM on a K20 runs a few hundred MLUPS).
    pub compute_ns_per_site: f64,
    /// Fixed per-step kernel/driver overhead (several kernels), us.
    pub kernel_overhead_us: f64,
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
            compute_ns_per_site: 1.5,
            kernel_overhead_us: 30.0,
        }
    }

    /// Switch to the balanced 3-D decomposition (weak-scaling runs).
    pub fn with_3d(mut self) -> Self {
        self.decomp3d = true;
        self
    }

    /// Small full-physics configuration for correctness runs.
    pub fn validate(n: usize, steps: usize, variant: LbmVariant) -> Self {
        LbmParams {
            nx: n,
            ny: n,
            nz: n,
            steps,
            variant,
            full_physics: true,
            decomp3d: false,
            compute_ns_per_site: 1.5,
            kernel_overhead_us: 30.0,
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
    /// Full per-site distributions, z-slab order (full fidelity only;
    /// used by the bit-exactness tests).
    pub field: Option<Vec<f32>>,
}

/// Deterministic initial density perturbation.
fn rho0(nx: usize, ny: usize, nz: usize, x: usize, y: usize, z: usize) -> f32 {
    1.0 + 0.05
        * ((x as f32 / nx as f32) + 2.0 * (y as f32 / ny as f32) - (z as f32 / nz as f32))
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
fn step_local(f: &mut Vec<f32>, tmp: &mut Vec<f32>, nx: usize, ny: usize, lz: usize, periodic_z: bool) {
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

/// Population indices crossing a Z face (cz = +1 / -1).
fn z_cross(up: bool) -> Vec<usize> {
    (0..Q)
        .filter(|&q| C[q].2 == if up { 1 } else { -1 })
        .collect()
}

// ------------------------------------------------------------- driver

/// Run the Evolution phase on an already-built machine.
pub fn run(m: &Rc<ShmemMachine>, params: LbmParams) -> LbmResult {
    let out = m.run(move |pe| run_pe(pe, &params));
    let evolution = out.iter().map(|r| r.0).max().unwrap();
    let mass = out[0].1.map(|_| out.iter().filter_map(|r| r.1).sum());
    let field = out[0].2.as_ref().map(|_| {
        let mut all = Vec::new();
        // concatenate slabs in rank order per q? assemble [q][gz][y][x]
        // by interleaving: handled by the caller/test via slab returns.
        for r in &out {
            all.extend_from_slice(r.2.as_ref().unwrap());
        }
        all
    });
    LbmResult {
        evolution,
        per_step_us: evolution.as_us_f64() / params.steps as f64,
        mass,
        field,
    }
}

type PeOut = (SimDuration, Option<f64>, Option<Vec<f32>>);

fn run_pe(pe: &Pe, p: &LbmParams) -> PeOut {
    if p.full_physics {
        run_full(pe, p)
    } else {
        run_scaled(pe, p)
    }
}

fn run_full(pe: &Pe, p: &LbmParams) -> PeOut {
    let npes = pe.n_pes();
    assert!(p.nz.is_multiple_of(npes), "nz {} not divisible by {npes}", p.nz);
    let lz = p.nz / npes;
    let me = pe.my_pe();
    let plane = p.nx * p.ny;
    let zdim = lz + 2;
    let cells = Q * zdim * plane;
    let fs: SymSlice<f32> = pe.shmalloc_slice(cells, Domain::Gpu);

    let mut f = init_field(p.nx, p.ny, p.nz, me * lz, lz);
    let mut tmp = f.clone();
    pe.barrier_all();

    let up = (me + 1) % npes;
    let down = (me + npes - 1) % npes;
    let ups = z_cross(true);
    let downs = z_cross(false);
    let plane_bytes = (plane * 4) as u64;
    let idx_plane = |q: usize, z: usize| (q * zdim + z) * plane;

    let t0 = pe.now();
    for _ in 0..p.steps {
        step_local(&mut f, &mut tmp, p.nx, p.ny, lz, false);
        // model the collide+stream kernels
        pe.gpu_compute(SimDuration::from_ns_f64(
            p.compute_ns_per_site * (lz * plane) as f64 + p.kernel_overhead_us * 1000.0,
        ));
        // publish my outgoing halo planes into my symmetric field —
        // behind a barrier so no neighbour's put (which lands strictly
        // later than the barrier instant, links have positive latency)
        // can be overwritten by this full-field store
        pe.barrier_all();
        pe.write_sym(&fs, &f);
        // exchange: my top halo (z=lz+1) -> up's plane z=1 for cz=+1;
        // my bottom halo (z=0) -> down's plane z=lz for cz=-1
        match p.variant {
            LbmVariant::ShmemGdr => {
                for &q in &ups {
                    let src = pe.addr_of(fs.at(idx_plane(q, lz + 1)), me);
                    pe.putmem(fs.at(idx_plane(q, 1)), src, plane_bytes, up);
                }
                for &q in &downs {
                    let src = pe.addr_of(fs.at(idx_plane(q, 0)), me);
                    pe.putmem(fs.at(idx_plane(q, lz)), src, plane_bytes, down);
                }
                pe.barrier_all();
            }
            LbmVariant::CudaAwareMpi => {
                let mut handles = Vec::new();
                for &q in &ups {
                    handles.push(pe.irecv(down, pe.addr_of(fs.at(idx_plane(q, 1)), me), plane_bytes));
                }
                for &q in &downs {
                    handles.push(pe.irecv(up, pe.addr_of(fs.at(idx_plane(q, lz)), me), plane_bytes));
                }
                for &q in &ups {
                    let src = pe.addr_of(fs.at(idx_plane(q, lz + 1)), me);
                    handles.push(pe.isend(up, src, plane_bytes));
                }
                for &q in &downs {
                    let src = pe.addr_of(fs.at(idx_plane(q, 0)), me);
                    handles.push(pe.isend(down, src, plane_bytes));
                }
                pe.msg_waitall(handles);
                pe.barrier_all();
            }
        }
        // read back the received planes
        let updated = pe.read_sym(&fs);
        for &q in &ups {
            let o = idx_plane(q, 1);
            f[o..o + plane].copy_from_slice(&updated[o..o + plane]);
        }
        for &q in &downs {
            let o = idx_plane(q, lz);
            f[o..o + plane].copy_from_slice(&updated[o..o + plane]);
        }
    }
    let elapsed = pe.now() - t0;

    // mass and interior field extraction
    let mut mass = 0.0f64;
    let mut interior = Vec::with_capacity(Q * lz * plane);
    for q in 0..Q {
        for z in 1..=lz {
            let o = idx_plane(q, z);
            for i in 0..plane {
                mass += f[o + i] as f64;
                interior.push(f[o + i]);
            }
        }
    }
    (elapsed, Some(mass), Some(interior))
}

/// Scaled Evolution on a periodic process grid: Z slabs are the
/// 1 x 1 x P grid, `decomp3d` picks the balanced 3-D one. Each rank
/// runs the paper's three exchanges per step with its face neighbours
/// on every axis the grid splits, with face-area-sized messages.
fn run_scaled(pe: &Pe, p: &LbmParams) -> PeOut {
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
    // symmetric surface: 4 slots (tx/rx x two directions) of the
    // largest exchange (6 f32 elements per site); `slot` is in bytes
    let slot = (max_face * 6 * 4) as u64;
    let surf: SymSlice<f32> = pe.shmalloc_slice(max_face * 6 * 4, Domain::Gpu);
    pe.barrier_all();

    let sites = lx * ly * lz;
    let site_cost = p.compute_ns_per_site * sites as f64;
    // compute split across the three kernel groups (paper §IV), and the
    // three exchanges: phi laplacian (1 elem), f (1 elem), f+g (6 elems)
    let phases = [0.25f64, 0.35, 0.40];
    let elems = [1u64, 1, 6];

    let t0 = pe.now();
    for _ in 0..p.steps {
        for k in 0..3 {
            pe.gpu_compute(SimDuration::from_ns_f64(
                site_cost * phases[k] + p.kernel_overhead_us * 1000.0 / 3.0,
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
    }
    (pe.now() - t0, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::ClusterSpec;
    use shmem_gdr::{Design, RuntimeConfig};

    fn machine(nodes: usize, ppn: usize, design: Design) -> Rc<ShmemMachine> {
        ShmemMachine::build(ClusterSpec::wilkes(nodes, ppn), RuntimeConfig::tuned(design))
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
    fn scaled_mode_single_pe() {
        let m = machine(1, 1, Design::EnhancedGdr);
        let res = run(&m, LbmParams::bench(32, 32, 32, 5, LbmVariant::ShmemGdr));
        assert!(res.per_step_us > 0.0);
        assert!(res.mass.is_none());
    }
}
