//! SHOC Stencil2D over the OpenSHMEM runtime (paper §V-C, Fig. 11).
//!
//! A 9-point double-precision stencil on an N×N grid, decomposed over a
//! 2-D process grid. Each iteration: two-phase halo exchange (north/south
//! rows, then east/west columns carrying the freshly received corner
//! values) with one-sided puts from GPU symmetric memory, then the
//! stencil update.
//!
//! **Full** fidelity computes the real stencil (used by the correctness
//! tests against [`serial_reference`]); **Scaled** fidelity allocates
//! only the communication surfaces and models the kernel time, so the
//! Figure 11 harness can sweep 64-GPU configurations cheaply. The
//! communication is identical in both modes.

use shmem_gdr::{Domain, Pe, ShmemMachine, SimDuration, SymSlice};
use std::rc::Rc;

/// Stencil weights (diffusion-flavoured, as in SHOC's default).
const W_CENTER: f64 = 0.25;
const W_EDGE: f64 = 0.125;
const W_DIAG: f64 = 0.0625;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct StencilParams {
    /// Global grid edge (N×N points).
    pub n: usize,
    /// Timesteps ("internal iterations" in SHOC terms).
    pub iters: usize,
    /// Real arithmetic + full allocation (small grids only).
    pub full_physics: bool,
    /// Scaled-mode kernel model: ns per grid point per iteration.
    pub compute_ns_per_point: f64,
    /// Scaled-mode fixed per-iteration kernel/driver overhead (us).
    pub kernel_overhead_us: f64,
}

impl StencilParams {
    /// Benchmark configuration (scaled fidelity, calibrated model).
    pub fn bench(n: usize, iters: usize) -> Self {
        StencilParams {
            n,
            iters,
            full_physics: false,
            compute_ns_per_point: 2.2,
            kernel_overhead_us: 20.0,
        }
    }

    /// Small, full-physics configuration for correctness runs.
    pub fn validate(n: usize, iters: usize) -> Self {
        StencilParams {
            n,
            iters,
            full_physics: true,
            compute_ns_per_point: 3.0,
            kernel_overhead_us: 24.0,
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
    if p.full_physics {
        run_full(pe, p)
    } else {
        run_scaled(pe, p)
    }
}

// ---------------------------------------------------------------- full

fn run_full(pe: &Pe, p: &StencilParams) -> (SimDuration, Option<f64>) {
    let d = Decomp::new(pe, p.n);
    let (br, bc) = (d.br, d.bc);
    let stride = bc + 2;
    let cells = (br + 2) * stride;
    // the local block (with halo ring) lives in the GPU symmetric heap
    let grid: SymSlice<f64> = pe.shmalloc_slice(cells, Domain::Gpu);
    let next: SymSlice<f64> = pe.shmalloc_slice(cells, Domain::Gpu);
    // packed column buffers: tx (mine) and rx (peers write into them)
    let col_tx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);
    let col_rx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);

    // initialize with the global field
    let mut local = vec![0.0f64; cells];
    for y in 0..br + 2 {
        for x in 0..bc + 2 {
            let gy = (d.ry * br + y) as isize - 1;
            let gx = (d.rx * bc + x) as isize - 1;
            if gy >= 0 && gx >= 0 && (gy as usize) < p.n && (gx as usize) < p.n {
                local[y * stride + x] = initial(p.n, gy as usize, gx as usize);
            }
        }
    }
    pe.write_sym(&grid, &local);
    pe.write_sym(&next, &local);
    pe.barrier_all();

    let t0 = pe.now();
    for _ in 0..p.iters {
        exchange(pe, &d, &grid, &col_tx, &col_rx, p);

        // unpack received columns into the halo ring
        let mut cur = pe.read_sym(&grid);
        let rx = pe.read_sym(&col_rx);
        if d.west().is_some() {
            for y in 0..br + 2 {
                cur[y * stride] = rx[y];
            }
        }
        if d.east().is_some() {
            for y in 0..br + 2 {
                cur[y * stride + bc + 1] = rx[(br + 2) + y];
            }
        }

        // stencil update (skip global boundary points)
        let mut nxt = cur.clone();
        for y in 1..=br {
            let gy = d.ry * br + y - 1;
            if gy == 0 || gy == p.n - 1 {
                continue;
            }
            for x in 1..=bc {
                let gx = d.rx * bc + x - 1;
                if gx == 0 || gx == p.n - 1 {
                    continue;
                }
                let at = |dy: isize, dx: isize| {
                    cur[((y as isize + dy) as usize) * stride + (x as isize + dx) as usize]
                };
                nxt[y * stride + x] = W_CENTER * at(0, 0)
                    + W_EDGE * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                    + W_DIAG * (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1));
            }
        }
        pe.write_sym(&grid, &nxt);
        // model the kernel time the real GPU would take
        pe.gpu_compute(SimDuration::from_ns_f64(
            p.compute_ns_per_point * (br * bc) as f64 + p.kernel_overhead_us * 1000.0,
        ));
        pe.barrier_all();
    }
    let elapsed = pe.now() - t0;

    // checksum of interior (owned) points
    let cur = pe.read_sym(&grid);
    let mut sum = 0.0;
    for y in 1..=br {
        for x in 1..=bc {
            sum += cur[y * stride + x];
        }
    }
    (elapsed, Some(sum))
}

/// Extract this PE's interior block (for test comparison).
pub fn gather_block(pe: &Pe, grid: &SymSlice<f64>, br: usize, bc: usize) -> Vec<f64> {
    let stride = bc + 2;
    let cur = pe.read_sym(grid);
    let mut out = Vec::with_capacity(br * bc);
    for y in 1..=br {
        for x in 1..=bc {
            out.push(cur[y * stride + x]);
        }
    }
    out
}

// ------------------------------------------------------------- scaled

fn run_scaled(pe: &Pe, p: &StencilParams) -> (SimDuration, Option<f64>) {
    let d = Decomp::new(pe, p.n);
    let (br, bc) = (d.br, d.bc);
    // only the communication surfaces exist: two halo rows inside a
    // dummy grid region, plus the packed column buffers
    let rows: SymSlice<f64> = pe.shmalloc_slice(4 * bc.max(1), Domain::Gpu);
    let col_tx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);
    let col_rx: SymSlice<f64> = pe.shmalloc_slice(2 * (br + 2), Domain::Gpu);
    pe.barrier_all();

    let t0 = pe.now();
    for _ in 0..p.iters {
        exchange_scaled(pe, &d, &rows, &col_tx, &col_rx);
        pe.gpu_compute(SimDuration::from_ns_f64(
            p.compute_ns_per_point * (br * bc) as f64 + p.kernel_overhead_us * 1000.0,
        ));
        pe.barrier_all();
    }
    (pe.now() - t0, None)
}

// -------------------------------------------------------- exchanges

/// Full-mode halo exchange: boundary rows from the real grid, then
/// packed columns including the just-received corners.
fn exchange(
    pe: &Pe,
    d: &Decomp,
    grid: &SymSlice<f64>,
    col_tx: &SymSlice<f64>,
    col_rx: &SymSlice<f64>,
    _p: &StencilParams,
) {
    let (br, bc) = (d.br, d.bc);
    let stride = bc + 2;
    let row_bytes = (bc * 8) as u64;
    // phase 1: north/south rows (contiguous in the block)
    if let Some(n) = d.north() {
        // my first interior row -> north's bottom halo row
        let src = pe.addr_of(grid.at(stride + 1), pe.my_pe());
        pe.putmem(grid.at((br + 1) * stride + 1), src, row_bytes, n);
    }
    if let Some(s) = d.south() {
        let src = pe.addr_of(grid.at(br * stride + 1), pe.my_pe());
        pe.putmem(grid.at(1), src, row_bytes, s);
    }
    pe.barrier_all();

    // phase 2: pack east/west columns (full height incl. halo rows) and
    // put them into the neighbour's rx buffer
    let cur = pe.read_sym(grid);
    let mut packed = vec![0.0f64; 2 * (br + 2)];
    for y in 0..br + 2 {
        packed[y] = cur[y * stride + 1]; // my west interior column
        packed[(br + 2) + y] = cur[y * stride + bc]; // my east interior column
    }
    pe.write_sym(col_tx, &packed);
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
}

/// Scaled-mode exchange: identical message sizes and synchronization,
/// dummy payloads.
fn exchange_scaled(
    pe: &Pe,
    d: &Decomp,
    rows: &SymSlice<f64>,
    col_tx: &SymSlice<f64>,
    col_rx: &SymSlice<f64>,
) {
    let (br, bc) = (d.br, d.bc);
    let row_bytes = (bc * 8) as u64;
    if let Some(n) = d.north() {
        let src = pe.addr_of(rows.addr(), pe.my_pe());
        pe.putmem(rows.addr().add(2 * row_bytes), src, row_bytes, n);
    }
    if let Some(s) = d.south() {
        let src = pe.addr_of(rows.addr().add(row_bytes), pe.my_pe());
        pe.putmem(rows.addr().add(3 * row_bytes), src, row_bytes, s);
    }
    pe.barrier_all();
    // pack kernel + column puts
    pe.gpu_compute(SimDuration::from_ns_f64(2.0 * (br + 2) as f64 + 3000.0));
    let col_bytes = ((br + 2) * 8) as u64;
    if let Some(w) = d.west() {
        let src = pe.addr_of(col_tx.addr(), pe.my_pe());
        pe.putmem(col_rx.addr().add(col_bytes), src, col_bytes, w);
    }
    if let Some(e) = d.east() {
        let src = pe.addr_of(col_tx.addr().add(col_bytes), pe.my_pe());
        pe.putmem(col_rx.addr(), src, col_bytes, e);
    }
    pe.barrier_all();
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
    fn single_pe_runs_without_neighbors() {
        let m = machine(1, 1, Design::EnhancedGdr);
        let res = run(&m, StencilParams::validate(16, 2));
        let want: f64 = serial_reference(16, 2).iter().sum();
        let got = res.checksum.unwrap();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
    }
}
