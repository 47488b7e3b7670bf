//! # omb — OMB-GPU-style micro-benchmarks for the OpenSHMEM runtime
//!
//! Reimplementation of the measurement loops of the OSU Micro-Benchmark
//! suite with GPU support (OMB-GPU, EuroMPI'12), which the paper uses
//! for §V-B: point-to-point put/get latency per buffer configuration,
//! bandwidth, message rate, and the overlap/one-sidedness benchmark of
//! Fig. 10.
//!
//! Every benchmark builds a fresh two-PE machine, warms the path up
//! (registration caches, IPC mappings), then measures `iters`
//! iterations of the operation in virtual time.

pub mod atomics;
pub mod bandwidth;
pub mod latency;
pub mod overlap;
pub mod presets;
pub mod sweep;

pub use atomics::{barrier_latency, cswap_latency, fetch_add_latency};
pub use bandwidth::{message_rate, put_bandwidth, BwPoint};
pub use latency::{get_latency, put_latency, LatencyPoint};
pub use overlap::{overlap_put, OverlapPoint};
pub use sweep::{large_sizes, small_sizes, standard_sizes};

use shmem_gdr::Domain;
use std::fmt;

/// Driver-side observability hook, called by every benchmark after its
/// machine finishes. When span recording is on (`GDR_SHMEM_OBS=spans`)
/// and `GDR_SHMEM_TRACE_DIR` names a directory, writes one Chrome trace
/// per benchmark as `<dir>/<label>.json`; with `GDR_SHMEM_OBS_SUMMARY`
/// also set, prints the text summary to stderr.
pub fn obs_finish(m: &shmem_gdr::ShmemMachine, label: &str) {
    if m.obs().spans_on() {
        if let Some(dir) = std::env::var_os("GDR_SHMEM_TRACE_DIR") {
            let dir = std::path::Path::new(&dir);
            // a fresh trace directory is the common case: create it
            // rather than failing every write
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("obs: failed to create {}: {e}", dir.display());
            }
            let path = dir.join(format!("{label}.json"));
            if let Err(e) = m.write_chrome_trace(&path) {
                eprintln!("obs: failed to write {}: {e}", path.display());
            }
        }
    }
    if m.obs().counters_on() && std::env::var_os("GDR_SHMEM_OBS_SUMMARY").is_some() {
        eprintln!("== {label} ==\n{}", m.obs_report());
    }
}

/// Where a local (non-symmetric) buffer lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    Host,
    Dev,
}

impl Loc {
    pub fn letter(self) -> char {
        match self {
            Loc::Host => 'H',
            Loc::Dev => 'D',
        }
    }
}

/// A point-to-point buffer configuration, named as in the paper:
/// the letters are (local buffer, remote buffer) — e.g. for a put,
/// `H-D` means host source, device destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Config {
    pub local: Loc,
    pub remote: Loc,
}

impl Config {
    pub const HH: Config = Config {
        local: Loc::Host,
        remote: Loc::Host,
    };
    pub const HD: Config = Config {
        local: Loc::Host,
        remote: Loc::Dev,
    };
    pub const DH: Config = Config {
        local: Loc::Dev,
        remote: Loc::Host,
    };
    pub const DD: Config = Config {
        local: Loc::Dev,
        remote: Loc::Dev,
    };

    pub fn remote_domain(self) -> Domain {
        match self.remote {
            Loc::Host => Domain::Host,
            Loc::Dev => Domain::Gpu,
        }
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.local.letter(), self.remote.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_naming() {
        assert_eq!(Config::HD.to_string(), "H-D");
        assert_eq!(Config::DD.to_string(), "D-D");
        assert_eq!(Config::HD.remote_domain(), Domain::Gpu);
        assert_eq!(Config::DH.remote_domain(), Domain::Host);
    }
}
