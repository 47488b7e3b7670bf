//! Runtime configuration: design selection and tuning thresholds.
//!
//! These are the moral equivalents of MVAPICH2-X environment variables
//! (`MV2_GPUDIRECT_LIMIT` and friends): every hybrid-protocol crossover
//! in §III of the paper is a runtime parameter here.

pub use obs::plan::{Design, Limits};
use serde::{Deserialize, Serialize};

/// Tunable runtime parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RuntimeConfig {
    pub design: Design,
    /// Symmetric host heap bytes per PE.
    pub host_heap: u64,
    /// Symmetric GPU heap bytes per PE.
    pub gpu_heap: u64,
    /// Registered host staging area per PE (pipeline protocols).
    pub staging: u64,
    /// The six protocol-switch thresholds of the dispatch table
    /// ([`obs::plan::plan`]): every hybrid-protocol crossover in §III.
    pub limits: Limits,
    /// Chunk size of the pipelined protocols.
    pub pipeline_chunk: u64,
    /// Use the node-proxy for large inter-node gets from GPU memory
    /// (falls back to chunked direct reads when disabled — an ablation).
    pub proxy_enabled: bool,
    /// Polling interval of `shmem_wait_until` and of the host-pipeline
    /// target-side progress engine.
    pub poll_interval_ns: u64,
    /// Enable the reference implementation's per-process service thread
    /// (paper §III): pending target-side work executes even while the
    /// target computes, at the cost of burning a CPU core per process
    /// and lock contention with the main thread. The paper rejects this
    /// in favour of the proxy; provided here for the ablation.
    pub service_thread: bool,
    /// Service-thread polling period and per-item lock/handoff overhead.
    pub service_poll_ns: u64,
    /// Total simulated device memory per GPU (must hold the GPU heaps of
    /// every PE bound to it plus application allocations).
    pub dev_mem: u64,
    /// Private (non-symmetric) host memory per PE.
    pub private_host: u64,
    /// Observability level of the machine's [`obs::Recorder`]:
    /// `Off` (default — allocation-free hot path), `Counters`
    /// (latency histograms + hardware utilization), or `Spans`
    /// (everything, exportable as a Chrome trace). [`RuntimeConfig::tuned`]
    /// reads the `GDR_SHMEM_OBS` environment variable.
    pub obs_level: obs::ObsLevel,
    /// Span-sampling factor: op-correlated span data (op spans, decision
    /// records, flow events, chunk spans) is recorded for 1 in N ops per
    /// PE, deterministically by op sequence number. Histograms and
    /// utilization counters stay exact regardless. 1 records everything;
    /// [`RuntimeConfig::tuned`] reads `GDR_SHMEM_OBS_SAMPLE`.
    pub obs_sample: u64,
    /// Width of the windowed metrics plane's virtual-time windows, in
    /// microseconds; `0` (the default) leaves the plane off. At
    /// `Counters`+ the recorder rolls latency sketches, link
    /// utilization and fault/health tallies per window and exports a
    /// `window-snapshot` record at each window close.
    /// [`RuntimeConfig::tuned`] reads `GDR_SHMEM_OBS_WINDOW_US`.
    pub obs_window_us: u32,
    /// Feed SLO watchdog violations into the health breaker: every
    /// violation with a resolvable protocol counts as a failure draw on
    /// that protocol's breaker on every node (the first step toward
    /// online policy). [`RuntimeConfig::tuned`] reads
    /// `GDR_SHMEM_OBS_SLO_DEMOTE`.
    pub slo_demote: bool,
    /// Deterministic fault plan (transient CQE errors, link windows,
    /// proxy stalls, GDR capability faults — see [`faults::FaultPlan`]).
    /// Inactive by default; [`RuntimeConfig::tuned`] reads the
    /// `GDR_SHMEM_FAULTS` environment variable (see `docs/FAULTS.md`).
    pub faults: faults::FaultPlan,
    /// Quiesce watchdog deadline in virtual nanoseconds: the engine-level
    /// bound on any single completion wait. `0` (the default) leaves the
    /// watchdog off and keeps the unfaulted event order byte-identical;
    /// when set, a wait that outlives the deadline resolves as a typed
    /// [`crate::TransferError::Timeout`] carrying a blocked-task dump
    /// instead of wedging virtual time. The per-op `faults` timeout
    /// (`op_timeout_ns`), when non-zero, takes precedence.
    /// [`RuntimeConfig::tuned`] reads `GDR_SHMEM_QUIESCE_NS`.
    pub quiesce_ns: u64,
    /// True when the threshold values came from a `thresholds-v1`
    /// artifact ([`RuntimeConfig::with_threshold_table`] or the
    /// `GDR_SHMEM_THRESHOLDS` environment variable) rather than the
    /// compiled-in tuned table. Surfaced in decision records as the
    /// threshold provenance (`tsource`).
    pub thresholds_loaded: bool,
}

impl RuntimeConfig {
    /// Tuned configuration for the Wilkes-like profile.
    pub fn tuned(design: Design) -> Self {
        let cfg = RuntimeConfig {
            design,
            host_heap: 8 << 20,
            gpu_heap: 8 << 20,
            staging: 4 << 20,
            limits: Limits::TUNED,
            pipeline_chunk: 512 << 10,
            proxy_enabled: true,
            poll_interval_ns: 200,
            service_thread: false,
            service_poll_ns: 2_000,
            dev_mem: 64 << 20,
            private_host: 32 << 20,
            obs_level: obs::ObsLevel::from_env(),
            obs_sample: obs_sample_from_env(),
            obs_window_us: obs_window_from_env(),
            slo_demote: env_flag("GDR_SHMEM_OBS_SLO_DEMOTE"),
            faults: faults::FaultPlan::from_env().unwrap_or_default(),
            quiesce_ns: quiesce_from_env(),
            thresholds_loaded: false,
        };
        match thresholds_from_env() {
            Ok(Some(table)) => cfg.with_threshold_table(&table),
            Ok(None) => cfg,
            // fail loud: a mistyped threshold file silently ignored would
            // invalidate every measurement taken under it
            Err(e) => panic!("GDR_SHMEM_THRESHOLDS: {e}"),
        }
    }

    /// Overlay a validated [`obs::ThresholdTable`] onto this config:
    /// named entries replace the corresponding tuned constants, absent
    /// names keep their defaults. Marks the config as externally tuned
    /// (decision records report `tsource: "thresholds-v1"`).
    pub fn with_threshold_table(mut self, t: &obs::ThresholdTable) -> Self {
        t.apply(&mut self.limits);
        self.thresholds_loaded = true;
        self
    }

    pub fn with_heaps(mut self, host: u64, gpu: u64) -> Self {
        self.host_heap = host;
        self.gpu_heap = gpu;
        self
    }

    /// Set the observability level (overrides `GDR_SHMEM_OBS`).
    pub fn with_obs(mut self, level: obs::ObsLevel) -> Self {
        self.obs_level = level;
        self
    }

    /// Set the span-sampling factor (overrides `GDR_SHMEM_OBS_SAMPLE`).
    pub fn with_obs_sample(mut self, n: u64) -> Self {
        self.obs_sample = n.max(1);
        self
    }

    /// Set the metrics window width in virtual microseconds (overrides
    /// `GDR_SHMEM_OBS_WINDOW_US`); `0` turns the windowed plane off.
    pub fn with_obs_window(mut self, us: u32) -> Self {
        self.obs_window_us = us;
        self
    }

    /// Feed SLO violations into the health breaker (overrides
    /// `GDR_SHMEM_OBS_SLO_DEMOTE`).
    pub fn with_slo_demote(mut self, on: bool) -> Self {
        self.slo_demote = on;
        self
    }

    /// Install a fault plan (overrides `GDR_SHMEM_FAULTS`).
    pub fn with_faults(mut self, plan: faults::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Arm the quiesce watchdog (overrides `GDR_SHMEM_QUIESCE_NS`);
    /// `0` turns it off.
    pub fn with_quiesce_ns(mut self, ns: u64) -> Self {
        self.quiesce_ns = ns;
        self
    }
}

/// Read a `thresholds-v1` artifact from the path in
/// `GDR_SHMEM_THRESHOLDS`, if set. Unreadable files and invalid tables
/// are hard errors — see the fail-loud note at the call site.
fn thresholds_from_env() -> Result<Option<obs::ThresholdTable>, String> {
    let Some(path) = std::env::var_os("GDR_SHMEM_THRESHOLDS") else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    obs::ThresholdTable::from_json_str(&doc)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Read `GDR_SHMEM_OBS_SAMPLE`; unset, unparsable or zero means 1
/// (record every op).
fn obs_sample_from_env() -> u64 {
    std::env::var("GDR_SHMEM_OBS_SAMPLE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Read `GDR_SHMEM_OBS_WINDOW_US`; unset, unparsable or zero means 0
/// (windowed plane off).
fn obs_window_from_env() -> u32 {
    std::env::var("GDR_SHMEM_OBS_WINDOW_US")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(0)
}

/// Read `GDR_SHMEM_QUIESCE_NS`; unset, unparsable or zero means 0
/// (quiesce watchdog off).
fn quiesce_from_env() -> u64 {
    std::env::var("GDR_SHMEM_QUIESCE_NS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Boolean env switch: `1` / `true` / `yes` / `on` (case-insensitive).
fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "yes" | "on"))
        .unwrap_or(false)
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::tuned(Design::EnhancedGdr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_enhanced_gdr() {
        let c = RuntimeConfig::default();
        assert_eq!(c.design, Design::EnhancedGdr);
        assert_eq!(c.limits, Limits::TUNED);
        assert!(c.limits.loopback_put_limit > c.limits.loopback_get_limit);
        assert!(c.limits.gdr_put_limit > c.limits.gdr_get_limit);
    }

    #[test]
    fn threshold_table_overlays_named_entries_only() {
        let base = RuntimeConfig::tuned(Design::EnhancedGdr);
        assert!(!base.thresholds_loaded);
        let t = obs::ThresholdTable::from_json_str(
            r#"{"schema":"thresholds-v1","entries":{"gdr_put_limit":65536,"proxy_get_min":262144}}"#,
        )
        .unwrap();
        let c = base.with_threshold_table(&t);
        assert!(c.thresholds_loaded);
        assert_eq!(c.limits.gdr_put_limit, 65536);
        assert_eq!(c.limits.proxy_get_min, 262144);
        // untouched entries keep the tuned defaults
        assert_eq!(c.limits.gdr_get_limit, base.limits.gdr_get_limit);
        assert_eq!(c.limits.loopback_put_limit, base.limits.loopback_put_limit);
    }

    #[test]
    fn design_names() {
        assert_eq!(Design::Naive.name(), "Naive");
        assert_eq!(Design::HostPipeline.name(), "Host-Pipeline");
        assert_eq!(Design::EnhancedGdr.name(), "Enhanced-GDR");
    }
}
