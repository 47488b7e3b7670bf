//! # apps-sim — applications redesigned over the OpenSHMEM runtime
//!
//! The paper's two application studies (§IV, §V-C):
//!
//! - [`stencil2d`]: the SHOC Stencil2D benchmark — 9-point double
//!   precision stencil, 2-D process grid, per-iteration halo exchange
//!   from GPU symmetric heaps;
//! - [`lbm`]: the GPULBM multiphase Lattice-Boltzmann application —
//!   3-D grid, Z-axis decomposition, three exchanges per Evolution
//!   timestep (laplacian of phi: 1 element; f: 1 element; f+g: 6
//!   elements, float), available both in its original CUDA-aware
//!   MPI form (two-sided, host-staged) and in the paper's redesigned
//!   OpenSHMEM form (one-sided puts straight from GPU memory).
//!
//! Each application has one body: the exchange schedule the Figure 11/12
//! harnesses time, with real bytes over real protocol paths between
//! boundary-only symmetric buffers, and a calibrated compute-time model
//! for the kernels. The fidelity only decides whether the host also
//! computes the field and fills the exchange surfaces from it:
//! - **Full**: real grid data and real arithmetic riding in the payloads
//!   of the same puts and sends, validated against a serial reference
//!   (small grids — correctness tests);
//! - **Scaled**: unfilled payloads (large grids — the figure harnesses).
//!
//! Both reach the same virtual instants for the same parameters.

pub mod bfs;
pub mod lbm;
pub mod stencil2d;

pub use bfs::{BfsParams, BfsResult};
pub use lbm::{LbmParams, LbmResult, LbmVariant};
pub use stencil2d::{StencilParams, StencilResult};

/// Pick a balanced 3-D factorization of `n` (process grid), most
/// factors on the last axis.
pub fn grid_3d(n: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, n);
    let mut score = usize::MAX;
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let m = n / a;
            let mut b = a;
            while b * b <= m {
                if m.is_multiple_of(b) {
                    let c = m / b;
                    let s = c - a; // spread: smaller is more balanced
                    if s < score {
                        score = s;
                        best = (a, b, c);
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Pick a near-square 2-D factorization of `n` (process grid).
pub fn grid_2d(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            best = (i, n / i);
        }
        i += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_3d_factorizations() {
        assert_eq!(grid_3d(1), (1, 1, 1));
        assert_eq!(grid_3d(8), (2, 2, 2));
        assert_eq!(grid_3d(64), (4, 4, 4));
        let (a, b, c) = grid_3d(16);
        assert_eq!(a * b * c, 16);
        assert!(c <= 4);
        let (a, b, c) = grid_3d(32);
        assert_eq!(a * b * c, 32);
        assert!(c <= 4);
    }

    #[test]
    fn grid_factorizations() {
        assert_eq!(grid_2d(1), (1, 1));
        assert_eq!(grid_2d(4), (2, 2));
        assert_eq!(grid_2d(8), (2, 4));
        assert_eq!(grid_2d(16), (4, 4));
        assert_eq!(grid_2d(64), (8, 8));
        assert_eq!(grid_2d(6), (2, 3));
    }
}
