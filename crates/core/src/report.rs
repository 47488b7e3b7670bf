//! Job-level reporting: aggregate per-PE counters into a readable
//! summary (protocol histogram, bytes moved, proxy activity).

use crate::machine::ShmemMachine;
use crate::state::{PeStats, Protocol};
use std::fmt::Write as _;

/// Aggregated job statistics.
#[derive(Clone, Debug, Default)]
pub struct JobReport {
    pub puts: u64,
    pub gets: u64,
    pub atomics: u64,
    pub barriers: u64,
    pub bytes_put: u64,
    pub bytes_get: u64,
    pub progressed: u64,
    pub by_protocol: [u64; Protocol::COUNT],
    pub proxy_gets: u64,
    pub proxy_puts: u64,
    pub proxy_bytes: u64,
    /// Per-PE counter snapshots, indexed by PE number.
    pub per_pe: Vec<PeStats>,
}

impl ShmemMachine {
    /// Aggregate every PE's counters (call after `run`).
    pub fn report(&self) -> JobReport {
        let mut r = JobReport::default();
        for i in 0..self.n_pes() {
            let st = self.pe_state(pcie_sim::ProcId(i as u32)).stats.borrow();
            r.puts += st.puts;
            r.gets += st.gets;
            r.atomics += st.atomics;
            r.barriers += st.barriers;
            r.bytes_put += st.bytes_put;
            r.bytes_get += st.bytes_get;
            r.progressed += st.progressed;
            for (acc, v) in r.by_protocol.iter_mut().zip(st.by_protocol.iter()) {
                *acc += v;
            }
            r.per_pe.push(st.clone());
        }
        for n in 0..self.cluster().topo().nnodes() {
            let p = self.proxy(pcie_sim::NodeId(n as u32));
            r.proxy_gets += p.gets_served.get();
            r.proxy_puts += p.puts_served.get();
            r.proxy_bytes += p.bytes.get();
        }
        r
    }
}

impl JobReport {
    /// Render the report as an aligned text block.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "ops: {} puts ({} B), {} gets ({} B), {} atomics, {} barriers",
            self.puts, self.bytes_put, self.gets, self.bytes_get, self.atomics, self.barriers
        );
        let _ = writeln!(s, "protocols:");
        for p in Protocol::ALL {
            let c = self.by_protocol[p as usize];
            if c > 0 {
                let _ = writeln!(s, "  {:<22} {c}", p.name());
            }
        }
        if self.per_pe.len() > 1 {
            let _ = writeln!(s, "per-PE:");
            for (i, st) in self.per_pe.iter().enumerate() {
                let mut protos = String::new();
                for p in Protocol::ALL {
                    let c = st.of(p);
                    if c > 0 {
                        if !protos.is_empty() {
                            protos.push(' ');
                        }
                        let _ = write!(protos, "{}:{c}", p.name());
                    }
                }
                let _ = writeln!(
                    s,
                    "  pe/{i}: {} puts ({} B), {} gets ({} B), {} atomics, {} barriers  [{protos}]",
                    st.puts, st.bytes_put, st.gets, st.bytes_get, st.atomics, st.barriers
                );
            }
        }
        if self.proxy_gets + self.proxy_puts > 0 {
            let _ = writeln!(
                s,
                "proxy: {} gets + {} puts served, {} B",
                self.proxy_gets, self.proxy_puts, self.proxy_bytes
            );
        }
        if self.progressed > 0 {
            let _ = writeln!(
                s,
                "target-side progress events: {} (one-sidedness violations)",
                self.progressed
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, RuntimeConfig};
    use crate::Domain;
    use pcie_sim::ClusterSpec;

    #[test]
    fn report_aggregates_counters_and_renders() {
        let m = ShmemMachine::build(
            ClusterSpec::internode_pair(),
            RuntimeConfig::tuned(Design::EnhancedGdr),
        );
        m.run(|pe| {
            let d = pe.shmalloc(2 << 20, Domain::Gpu);
            if pe.my_pe() == 0 {
                let s = pe.malloc_dev(2 << 20);
                pe.putmem(d, s, 64, 1); // direct GDR
                pe.putmem(d, s, 2 << 20, 1); // pipeline
                pe.quiet();
                let l = pe.malloc_dev(2 << 20);
                pe.getmem(l, d, 2 << 20, 1); // proxy
            }
            pe.barrier_all();
        });
        let r = m.report();
        assert_eq!(r.puts, 2);
        assert_eq!(r.gets, 1);
        assert_eq!(r.by_protocol[Protocol::DirectGdr as usize], 1);
        assert_eq!(r.by_protocol[Protocol::PipelineGdrWrite as usize], 1);
        assert_eq!(r.by_protocol[Protocol::ProxyPipeline as usize], 1);
        assert_eq!(r.proxy_gets, 1);
        let text = r.render();
        assert!(text.contains("direct-gdr"));
        assert!(text.contains("proxy-pipeline"));
        assert!(!text.contains("one-sidedness violations"));
        // per-PE breakdown: all the RMA happened on PE 0
        assert_eq!(r.per_pe.len(), 2);
        assert_eq!(r.per_pe[0].puts, 2);
        assert_eq!(r.per_pe[1].puts, 0);
        assert!(text.contains("pe/0: 2 puts"));
        assert!(text.contains("direct-gdr:1"), "{text}");
        assert!(text.contains("pipeline-gdr-write:1"), "{text}");
    }

    #[test]
    fn baseline_report_shows_progress_violations() {
        let m = ShmemMachine::build(
            ClusterSpec::internode_pair(),
            RuntimeConfig::tuned(Design::HostPipeline),
        );
        m.run(|pe| {
            let d = pe.shmalloc(1 << 20, Domain::Gpu);
            if pe.my_pe() == 0 {
                let s = pe.malloc_dev(1 << 20);
                pe.putmem(d, s, 1 << 20, 1);
                pe.quiet();
            }
            pe.barrier_all();
        });
        let r = m.report();
        assert!(r.progressed > 0);
        assert!(r.render().contains("one-sidedness violations"));
    }
}
