//! Distributed breadth-first search: the irregular-communication
//! workload class the paper's introduction motivates PGAS with
//! (distributed graph algorithms \[8\], dynamic load balancing \[9\]).
//!
//! Level-synchronized BFS on a random graph, vertices block-partitioned
//! across PEs. Frontier expansion uses the classic PGAS idiom: reserve a
//! slot range in the owner's inbox with a **fetch-add**, then **put**
//! the candidate vertices — fine-grained, data-dependent communication
//! that favours one-sided semantics. Distances are validated against a
//! serial reference.

use shmem_gdr::{Domain, Pe, Pod, ShmemMachine, SimDuration, SymSlice};
use std::rc::Rc;

/// Problem description.
#[derive(Clone, Copy, Debug)]
pub struct BfsParams {
    /// Number of vertices (must divide evenly by the PE count).
    pub vertices: usize,
    /// Average out-degree of the random graph.
    pub degree: usize,
    /// RNG seed for the edge list.
    pub seed: u64,
    /// BFS root vertex.
    pub root: usize,
}

impl BfsParams {
    pub fn small(vertices: usize, degree: usize) -> Self {
        BfsParams {
            vertices,
            degree,
            seed: 0x5EED,
            root: 0,
        }
    }
}

/// Result of a distributed run.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Per-vertex hop distance from the root (u64::MAX = unreachable).
    pub dist: Vec<u64>,
    pub levels: usize,
    pub elapsed: sim_core::SimDuration,
}

const UNSET: u64 = u64::MAX;

/// Modelled GPU cost per scanned edge (ns).
const NS_PER_EDGE: f64 = 1.2;

/// Deterministic pseudo-random edge target.
fn edge_target(seed: u64, v: usize, k: usize, n: usize) -> usize {
    let mut x = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64) << 32;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % n as u64) as usize
}

/// Out-neighbours of `v` (generated, not stored — same on every PE).
pub fn neighbors(p: &BfsParams, v: usize) -> Vec<usize> {
    (0..p.degree)
        .map(|k| edge_target(p.seed, v, k, p.vertices))
        .collect()
}

/// Serial reference BFS.
pub fn serial_reference(p: &BfsParams) -> Vec<u64> {
    let mut dist = vec![UNSET; p.vertices];
    dist[p.root] = 0;
    let mut frontier = vec![p.root];
    let mut level = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            for w in neighbors(p, v) {
                if dist[w] == UNSET {
                    dist[w] = level + 1;
                    next.push(w);
                }
            }
        }
        frontier = next;
        level += 1;
    }
    dist
}

/// Run the distributed BFS on an already-built machine.
pub fn run(m: &Rc<ShmemMachine>, p: BfsParams) -> BfsResult {
    let out = m.run(move |pe| run_pe(pe, &p));
    let levels = out[0].1;
    let elapsed = out.iter().map(|o| o.2).max().unwrap();
    let mut dist = Vec::with_capacity(p.vertices);
    for (d, _, _) in out {
        dist.extend(d);
    }
    BfsResult {
        dist,
        levels,
        elapsed,
    }
}

fn run_pe(pe: &Pe, p: &BfsParams) -> (Vec<u64>, usize, sim_core::SimDuration) {
    let npes = pe.n_pes();
    let me = pe.my_pe();
    assert!(
        p.vertices.is_multiple_of(npes),
        "{} vertices not divisible by {npes} PEs",
        p.vertices
    );
    let chunk = p.vertices / npes;
    let owner = |v: usize| v / chunk;
    let lo = me * chunk;

    // symmetric state: my distance array, candidate inbox + its cursor
    let inbox_cap = (p.degree * chunk * 2).max(64);
    let dist_s: SymSlice<u64> = pe.shmalloc_slice(chunk, Domain::Gpu);
    let inbox: SymSlice<u64> = pe.shmalloc_slice(inbox_cap, Domain::Gpu);
    let cursor = pe.shmalloc(8, Domain::Host);
    let next_total: SymSlice<u64> = pe.shmalloc_slice(1, Domain::Host);
    let total_red: SymSlice<u64> = pe.shmalloc_slice(1, Domain::Host);

    let mut dist = vec![UNSET; chunk];
    if owner(p.root) == me {
        dist[p.root - lo] = 0;
    }
    pe.write_sym(&dist_s, &dist);
    pe.barrier_all();

    let t0 = pe.now();
    let mut frontier: Vec<usize> = if owner(p.root) == me {
        vec![p.root]
    } else {
        Vec::new()
    };
    let mut level = 0u64;
    let mut levels;
    loop {
        // expand: bucket candidate vertices by owner
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); npes];
        let mut scanned = 0usize;
        for &v in &frontier {
            for w in neighbors(p, v) {
                scanned += 1;
                buckets[owner(w)].push(w as u64);
            }
        }
        pe.gpu_compute(SimDuration::from_ns_f64(
            NS_PER_EDGE * scanned as f64 + 2_000.0,
        ));

        // ship remote candidates: fetch-add a slot range, put the block
        let scratch_len = ((p.degree * frontier.len()).max(8) * 8) as u64;
        let scratch = pe.malloc_host(scratch_len);
        for (t, bucket) in buckets.iter().enumerate() {
            if t == me || bucket.is_empty() {
                continue;
            }
            let off = pe.atomic_fetch_add(cursor, bucket.len() as u64, t);
            assert!(
                (off as usize + bucket.len()) <= inbox_cap,
                "inbox overflow at pe{t}"
            );
            pe.write_raw(scratch, &u64::to_bytes(bucket));
            pe.putmem(
                inbox.at(off as usize),
                scratch,
                (bucket.len() * 8) as u64,
                t,
            );
        }
        pe.quiet();
        pe.barrier_all();
        pe.free_host(scratch, scratch_len);

        // drain my inbox + my own bucket into the next frontier
        let received = pe.local_u64(cursor) as usize;
        let mut candidates: Vec<u64> = buckets[me].clone();
        if received > 0 {
            candidates.extend(pe.read_sym(&inbox.slice(0, received)));
        }
        let mut next: Vec<usize> = Vec::new();
        for w in candidates {
            let idx = (w as usize) - lo;
            if dist[idx] == UNSET {
                dist[idx] = level + 1;
                next.push(w as usize);
            }
        }
        pe.write_sym(&dist_s, &dist);
        pe.barrier_all();
        // reset my cursor for the next level (after everyone drained)
        pe.write_raw(pe.addr_of(cursor, me), &0u64.to_le_bytes());
        // global termination: sum of next-frontier sizes
        pe.write_sym(&next_total, &[next.len() as u64]);
        pe.reduce(&next_total, &total_red, shmem_gdr::RedOp::Sum, 0);
        let sum = pe.read_sym(&total_red)[0];
        frontier = next;
        level += 1;
        levels = level as usize;
        if sum == 0 {
            break;
        }
    }
    (dist, levels, pe.now() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::ClusterSpec;
    use shmem_gdr::{Design, RuntimeConfig};

    fn machine(nodes: usize, ppn: usize) -> Rc<ShmemMachine> {
        ShmemMachine::build(
            ClusterSpec::wilkes(nodes, ppn),
            RuntimeConfig::tuned(Design::EnhancedGdr),
        )
    }

    #[test]
    fn distributed_bfs_matches_serial_reference() {
        let p = BfsParams::small(256, 4);
        let want = serial_reference(&p);
        let m = machine(2, 2); // 4 PEs
        let got = run(&m, p);
        assert_eq!(got.dist, want, "distance mismatch");
        assert!(got.levels > 0);
    }

    #[test]
    fn bfs_works_on_eight_pes_and_denser_graphs() {
        let p = BfsParams::small(512, 8);
        let want = serial_reference(&p);
        let m = machine(4, 2);
        let got = run(&m, p);
        assert_eq!(got.dist, want);
    }

    #[test]
    fn unreachable_vertices_stay_unset() {
        // degree 1 on a large vertex set leaves parts unreachable
        let p = BfsParams::small(128, 1);
        let want = serial_reference(&p);
        assert!(want.contains(&UNSET), "test graph too dense");
        let m = machine(2, 1);
        let got = run(&m, p);
        assert_eq!(got.dist, want);
    }

    #[test]
    fn single_pe_bfs() {
        let p = BfsParams::small(64, 3);
        let m = machine(1, 1);
        let got = run(&m, p);
        assert_eq!(got.dist, serial_reference(&p));
    }
}
