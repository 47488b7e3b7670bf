//! SHOC Stencil2D over the OpenSHMEM runtime (paper §V-C, Fig. 11).
//!
//! A 9-point double-precision stencil on an N×N grid, decomposed over a
//! 2-D process grid. Each iteration: two-phase halo exchange (north/south
//! rows, then east/west columns carrying the freshly received corner
//! values) with one-sided puts from GPU symmetric memory, then the
//! stencil update.
//!
//! One body serves both fidelities. Each PE allocates only the exchange
//! surfaces in its GPU symmetric heap (four row slots and the packed
//! column buffers), makes the same puts and barriers, and charges the
//! same modelled kernel time. **Full** fidelity also keeps its block and
//! halo ring in host memory: it writes its boundary rows and columns
//! into the surfaces before the puts carry them, reads the received
//! halos back after each barrier and computes the real stencil, which
//! the correctness tests check against [`serial_reference`]. **Scaled**
//! fidelity leaves the payloads unfilled, so the Figure 11 harness can
//! sweep 64-GPU configurations cheaply; both time the same schedule.

use shmem_gdr::{Domain, Pe, ShmemMachine, SimDuration, SymSlice};
use std::rc::Rc;

/// Stencil weights (diffusion-flavoured, as in SHOC's default).
const W_CENTER: f64 = 0.25;
const W_EDGE: f64 = 0.125;
const W_DIAG: f64 = 0.0625;

/// Kernel model: ns per grid point per iteration ...
const COMPUTE_NS_PER_POINT: f64 = 2.2;
/// ... plus a fixed per-iteration kernel/driver overhead (us).
const KERNEL_OVERHEAD_US: f64 = 20.0;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct StencilParams {
    /// Global grid edge (N×N points).
    pub n: usize,
    /// Timesteps ("internal iterations" in SHOC terms).
    pub iters: usize,
    /// Real arithmetic on a host copy of each block (small grids only).
    pub full_physics: bool,
}

impl StencilParams {
    /// Benchmark configuration (scaled fidelity, calibrated model).
    pub fn bench(n: usize, iters: usize) -> Self {
        StencilParams {
            n,
            iters,
            full_physics: false,
        }
    }

    /// The same run at full fidelity, for correctness checks.
    pub fn validate(n: usize, iters: usize) -> Self {
        StencilParams {
            full_physics: true,
            ..Self::bench(n, iters)
        }
    }
}

/// Result of a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct StencilResult {
    /// Wall (virtual) time of the iteration loop, max over PEs.
    pub elapsed: SimDuration,
    pub per_iter_us: f64,
    /// Sum of all grid values after the run (full fidelity only).
    pub checksum: Option<f64>,
}

/// Initial condition: a smooth deterministic field.
pub fn initial(n: usize, gy: usize, gx: usize) -> f64 {
    let fy = gy as f64 / n as f64;
    let fx = gx as f64 / n as f64;
    (fy * 3.0 + fx * 2.0) + (fy * fx) * 4.0
}

/// Serial reference: the same stencil on the full grid (Dirichlet
/// boundary: global edge rows/cols stay fixed).
pub fn serial_reference(n: usize, iters: usize) -> Vec<f64> {
    let mut cur: Vec<f64> = (0..n * n).map(|i| initial(n, i / n, i % n)).collect();
    let mut next = cur.clone();
    for _ in 0..iters {
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let at = |dy: isize, dx: isize| {
                    cur[((y as isize + dy) as usize) * n + (x as isize + dx) as usize]
                };
                next[y * n + x] = W_CENTER * at(0, 0)
                    + W_EDGE * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                    + W_DIAG * (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1));
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

struct Decomp {
    py: usize,
    px: usize,
    ry: usize, // my row in the PE grid
    rx: usize,
    br: usize, // block rows
    bc: usize, // block cols
}

impl Decomp {
    fn new(pe: &Pe, n: usize) -> Decomp {
        let (py, px) = crate::grid_2d(pe.n_pes());
        assert!(
            n.is_multiple_of(py) && n.is_multiple_of(px),
            "grid {n} not divisible by PE grid {py}x{px}"
        );
        let me = pe.my_pe();
        Decomp {
            py,
            px,
            ry: me / px,
            rx: me % px,
            br: n / py,
            bc: n / px,
        }
    }

    fn pe_at(&self, ry: usize, rx: usize) -> usize {
        ry * self.px + rx
    }

    fn north(&self) -> Option<usize> {
        (self.ry > 0).then(|| self.pe_at(self.ry - 1, self.rx))
    }
    fn south(&self) -> Option<usize> {
        (self.ry + 1 < self.py).then(|| self.pe_at(self.ry + 1, self.rx))
    }
    fn west(&self) -> Option<usize> {
        (self.rx > 0).then(|| self.pe_at(self.ry, self.rx - 1))
    }
    fn east(&self) -> Option<usize> {
        (self.rx + 1 < self.px).then(|| self.pe_at(self.ry, self.rx + 1))
    }
}

/// Run the distributed stencil on an already-built machine. The machine
/// must have exactly the PE count the decomposition expects.
pub fn run(m: &Rc<ShmemMachine>, params: StencilParams) -> StencilResult {
    assert!(params.iters > 0, "StencilParams::iters must be at least 1");
    let out = m.run(move |pe| run_pe(pe, &params));
    let elapsed = out.iter().map(|r| r.0).max().unwrap();
    let checksum = out[0].1.map(|_| out.iter().filter_map(|r| r.1).sum());
    StencilResult {
        elapsed,
        per_iter_us: elapsed.as_us_f64() / params.iters as f64,
        checksum,
    }
}

fn run_pe(pe: &Pe, p: &StencilParams) -> (SimDuration, Option<f64>) {
    let d = Decomp::new(pe, p.n);
    let (br, bc) = (d.br, d.bc);
    // the exchange surfaces in the GPU symmetric heap: row slots 0/1
    // hold my first/last interior row, slot 2 receives south's first and
    // slot 3 north's last; `col_tx` holds my west/east columns, `col_rx`
    // receives west's east and east's west column, each full height
    let rows: SymSlice<f64> = pe.shmalloc_slice(4 * bc.max(1), Domain::Gpu);
    let col_tx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);
    let col_rx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);
    // full fidelity: the block with its halo ring, row-major with
    // stride bc + 2, initialized with the global field
    let mut grid = p.full_physics.then(|| {
        let stride = bc + 2;
        let mut local = vec![0.0f64; (br + 2) * stride];
        for y in 0..br + 2 {
            for x in 0..stride {
                let gy = (d.ry * br + y) as isize - 1;
                let gx = (d.rx * bc + x) as isize - 1;
                if gy >= 0 && gx >= 0 && (gy as usize) < p.n && (gx as usize) < p.n {
                    local[y * stride + x] = initial(p.n, gy as usize, gx as usize);
                }
            }
        }
        local
    });
    let mut next = grid.clone();
    pe.barrier_all();

    let t0 = pe.now();
    for _ in 0..p.iters {
        exchange(pe, &d, &rows, &col_tx, &col_rx, grid.as_deref_mut());
        if let (Some(cur), Some(nxt)) = (grid.as_mut(), next.as_mut()) {
            update(&d, p.n, cur, nxt);
            std::mem::swap(cur, nxt);
        }
        // model the kernel time the real GPU would take
        pe.gpu_compute(SimDuration::from_ns_f64(
            COMPUTE_NS_PER_POINT * (br * bc) as f64 + KERNEL_OVERHEAD_US * 1000.0,
        ));
        pe.barrier_all();
    }
    let elapsed = pe.now() - t0;

    // checksum of interior (owned) points
    let checksum = grid.map(|cur| (1..=br).flat_map(|y| &cur[y * (bc + 2) + 1..][..bc]).sum());
    (elapsed, checksum)
}

/// One stencil step of the block's interior from `cur` into `next`;
/// points on the global boundary stay fixed.
fn update(d: &Decomp, n: usize, cur: &[f64], next: &mut [f64]) {
    let (br, bc) = (d.br, d.bc);
    let stride = bc + 2;
    for y in 1..=br {
        let gy = d.ry * br + y - 1;
        if gy == 0 || gy == n - 1 {
            continue;
        }
        for x in 1..=bc {
            let gx = d.rx * bc + x - 1;
            if gx == 0 || gx == n - 1 {
                continue;
            }
            let at = |dy: isize, dx: isize| {
                cur[((y as isize + dy) as usize) * stride + (x as isize + dx) as usize]
            };
            next[y * stride + x] = W_CENTER * at(0, 0)
                + W_EDGE * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                + W_DIAG * (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1));
        }
    }
}

/// Halo exchange: north/south rows, then east/west columns of full
/// height, so the corners received with the rows travel on. With a
/// host `grid` (full fidelity) the rows and columns are written into
/// the surfaces before their puts and the halos read back after each
/// barrier; without one the puts carry whatever the surfaces hold.
fn exchange(
    pe: &Pe,
    d: &Decomp,
    rows: &SymSlice<f64>,
    col_tx: &SymSlice<f64>,
    col_rx: &SymSlice<f64>,
    mut grid: Option<&mut [f64]>,
) {
    let (br, bc) = (d.br, d.bc);
    let stride = bc + 2;
    let row_bytes = (bc * 8) as u64;
    let row = |y: usize| y * stride + 1..y * stride + 1 + bc;
    // phase 1: north/south rows
    if let Some(g) = grid.as_deref() {
        pe.write_sym(&rows.slice(0, bc), &g[row(1)]);
        pe.write_sym(&rows.slice(bc, bc), &g[row(br)]);
    }
    if let Some(n) = d.north() {
        // my first interior row -> north's bottom halo slot
        let src = pe.addr_of(rows.addr(), pe.my_pe());
        pe.putmem(rows.addr().add(2 * row_bytes), src, row_bytes, n);
    }
    if let Some(s) = d.south() {
        let src = pe.addr_of(rows.addr().add(row_bytes), pe.my_pe());
        pe.putmem(rows.addr().add(3 * row_bytes), src, row_bytes, s);
    }
    pe.barrier_all();

    // phase 2: pack the east/west interior columns (halo rows included)
    // and put them into the neighbour's rx buffer
    if let Some(g) = grid.as_deref_mut() {
        if d.south().is_some() {
            g[row(br + 1)].copy_from_slice(&pe.read_sym(&rows.slice(2 * bc, bc)));
        }
        if d.north().is_some() {
            g[row(0)].copy_from_slice(&pe.read_sym(&rows.slice(3 * bc, bc)));
        }
        let west = (0..br + 2).map(|y| g[y * stride + 1]);
        let east = (0..br + 2).map(|y| g[y * stride + bc]);
        pe.write_sym(col_tx, &west.chain(east).collect::<Vec<_>>());
    }
    // pack kernel cost
    pe.gpu_compute(SimDuration::from_ns_f64(2.0 * (br + 2) as f64 + 3000.0));
    let col_bytes = ((br + 2) * 8) as u64;
    if let Some(w) = d.west() {
        // my west column -> west neighbour's east rx slot
        let src = pe.addr_of(col_tx.addr(), pe.my_pe());
        pe.putmem(col_rx.addr().add(col_bytes), src, col_bytes, w);
    }
    if let Some(e) = d.east() {
        let src = pe.addr_of(col_tx.addr().add(col_bytes), pe.my_pe());
        pe.putmem(col_rx.addr(), src, col_bytes, e);
    }
    pe.barrier_all();

    // unpack the received columns into the halo ring
    if let Some(g) = grid {
        let rx = pe.read_sym(col_rx);
        for y in 0..br + 2 {
            if d.west().is_some() {
                g[y * stride] = rx[y];
            }
            if d.east().is_some() {
                g[y * stride + bc + 1] = rx[(br + 2) + y];
            }
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
    fn matches_serial_reference_on_four_pes() {
        let n = 32;
        let iters = 5;
        let reference = serial_reference(n, iters);
        let m = machine(2, 2, Design::EnhancedGdr);
        let res = run(&m, StencilParams::validate(n, iters));
        // per-PE checksums cover every owned point == the whole grid
        let want: f64 = reference.iter().sum();
        let got = res.checksum.unwrap();
        assert!(
            (got - want).abs() < 1e-9 * want.abs().max(1.0),
            "distributed {got} vs serial {want}"
        );
    }

    #[test]
    fn serial_reference_conserves_boundary() {
        let n = 16;
        let r = serial_reference(n, 3);
        // Dirichlet boundary unchanged
        for x in 0..n {
            assert_eq!(r[x], initial(n, 0, x));
            assert_eq!(r[(n - 1) * n + x], initial(n, n - 1, x));
        }
    }

    #[test]
    fn different_designs_same_answer_different_time() {
        let n = 32;
        let p = StencilParams::validate(n, 4);
        let m1 = machine(2, 2, Design::EnhancedGdr);
        let r1 = run(&m1, p);
        let m2 = machine(2, 2, Design::HostPipeline);
        let r2 = run(&m2, p);
        let c1 = r1.checksum.unwrap();
        let c2 = r2.checksum.unwrap();
        assert!((c1 - c2).abs() < 1e-12 * c1.abs().max(1.0));
        assert!(
            r1.elapsed < r2.elapsed,
            "GDR {} should beat baseline {}",
            r1.elapsed,
            r2.elapsed
        );
    }

    #[test]
    fn scaled_mode_runs_at_larger_scale() {
        let m = machine(4, 2, Design::EnhancedGdr); // 8 PEs
        let res = run(&m, StencilParams::bench(1024, 5));
        assert!(res.per_iter_us > 0.0);
        assert!(res.checksum.is_none());
    }

    #[test]
    #[should_panic(expected = "StencilParams::iters")]
    fn zero_iterations_are_rejected() {
        run(
            &machine(1, 1, Design::EnhancedGdr),
            StencilParams::bench(16, 0),
        );
    }

    #[test]
    fn single_pe_runs_without_neighbors() {
        let m = machine(1, 1, Design::EnhancedGdr);
        let res = run(&m, StencilParams::validate(16, 2));
        let want: f64 = serial_reference(16, 2).iter().sum();
        let got = res.checksum.unwrap();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
    }
}
