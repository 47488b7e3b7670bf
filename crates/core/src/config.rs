//! Runtime configuration: design selection and tuning thresholds.
//!
//! These are the moral equivalents of MVAPICH2-X environment variables
//! (`MV2_GPUDIRECT_LIMIT` and friends): every hybrid-protocol crossover
//! in §III of the paper is a runtime parameter here.

pub use obs::plan::{Design, Limits};

/// Tunable runtime parameters.
#[derive(Clone, Copy, Debug)]
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
    /// (latency sketches + hardware utilization), or `Spans`
    /// (everything, exportable as a Chrome trace). [`RuntimeConfig::tuned`]
    /// reads the `GDR_SHMEM_OBS` environment variable
    /// ([`obs::ObsLevel::parse`]).
    pub obs_level: obs::ObsLevel,
    /// Width of the windowed metrics plane's virtual-time windows, in
    /// microseconds; `0` (the default) leaves the plane off. At
    /// `Counters`+ the recorder rolls latency sketches, link
    /// utilization and fault/health tallies per window and exports a
    /// `window-snapshot` record at each window close.
    /// [`RuntimeConfig::tuned`] reads `GDR_SHMEM_OBS_WINDOW_US`.
    pub obs_window_us: u32,
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
            obs_level: env_value("GDR_SHMEM_OBS", obs::ObsLevel::parse).unwrap_or_default(),
            obs_window_us: env_value("GDR_SHMEM_OBS_WINDOW_US", |v| v.parse().ok()).unwrap_or(0),
            faults: faults::FaultPlan::from_env().unwrap_or_default(),
            quiesce_ns: env_value("GDR_SHMEM_QUIESCE_NS", |v| v.parse().ok()).unwrap_or(0),
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

    /// Set the metrics window width in virtual microseconds (overrides
    /// `GDR_SHMEM_OBS_WINDOW_US`); `0` turns the windowed plane off.
    pub fn with_obs_window(mut self, us: u32) -> Self {
        self.obs_window_us = us;
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

/// Read the environment variable `name` through `parse`. Unset means
/// `None` (the caller's default); a set value that does not parse
/// panics, naming the variable and the value — like a bad threshold
/// file, a mistyped knob silently ignored would invalidate every
/// measurement taken under it.
fn env_value<T>(name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let v = std::env::var_os(name)?;
    let parsed = v.to_str().and_then(parse);
    Some(parsed.unwrap_or_else(|| panic!("{name}: cannot parse {v:?}")))
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
    fn env_values_default_when_unset_and_panic_when_malformed() {
        // a variable no other test reads, so setting it races nothing
        let name = "GDR_SHMEM_CONFIG_TEST_KNOB";
        let read = || env_value(name, |v| v.parse::<u64>().ok());
        std::env::remove_var(name);
        assert_eq!(read(), None);
        std::env::set_var(name, "2000000");
        assert_eq!(read(), Some(2_000_000));
        std::env::set_var(name, "2ms");
        let err = std::panic::catch_unwind(read).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(name) && msg.contains("\"2ms\""), "{msg}");
        std::env::remove_var(name);
    }

    #[test]
    fn design_names() {
        assert_eq!(Design::Naive.name(), "Naive");
        assert_eq!(Design::HostPipeline.name(), "Host-Pipeline");
        assert_eq!(Design::EnhancedGdr.name(), "Enhanced-GDR");
    }
}
