//! Health-driven protocol demotion: per-(node, protocol) circuit
//! breakers over a sliding virtual-time failure window.
//!
//! Every CQE fault recorded by the retry engines (`post_with_retry`,
//! `chunk_post_with_retry`, the sync-flag loop) feeds a breaker keyed
//! by the posting process's node and the protocol that drew the fault.
//! Pipeline-GDR-write chunk faults do not: that route replays its
//! chunks on its own path (`pipe_chunk_post`, see `crate::recovery`),
//! which never feeds a breaker, so `pipeline-gdr-write` is never
//! demoted.
//! When a breaker sees `health_threshold` failures inside the sliding
//! `health_window_ns` it opens — protocol selection then *demotes* the
//! protocol, routing new ops through the same fallback matrix the
//! capability faults use (direct GDR → host-staged / proxy). After
//! `health_cooldown_ns` the breaker admits a single half-open *probe*;
//! a clean post *promotes* the protocol back, a failed probe re-opens
//! it for another cooldown.
//!
//! The monitor is inert (`enabled == false`) unless the run has an
//! active fault plan: every method short-circuits before touching the
//! breakers, so unfaulted runs take exactly their pre-health code paths and
//! produce byte-identical traces.

use crate::state::Protocol;
use std::cell::RefCell;
use std::collections::VecDeque;

/// A state transition worth reporting (obs instants + counters).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transition {
    /// The breaker opened: the protocol is demoted for a cooldown.
    Demote,
    /// The breaker closed again: the protocol is re-promoted.
    Promote,
}

/// Routing advice from [`HealthMonitor::consult`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Breaker closed — use the protocol normally.
    Use,
    /// Breaker half-open — admit this op as a probe. `first` is true
    /// for the consult that moved the breaker out of `Open` (so the
    /// caller reports exactly one `probe` event per cooldown).
    Probe { first: bool },
    /// Breaker open and still cooling down — route around the protocol.
    Avoid,
}

#[derive(Default)]
enum BreakerState {
    #[default]
    Closed,
    Open {
        until_ns: u64,
    },
    HalfOpen,
}

#[derive(Default)]
struct Breaker {
    state: BreakerState,
    /// Failure timestamps (ns) inside the sliding window, oldest first.
    fails: VecDeque<u64>,
}

/// The per-machine monitor: one breaker per (node, protocol).
///
/// Keying by node matches the failure domain — a flaky HCA or PCIe
/// root complex takes out every PE behind it, and the proxy/pipeline
/// chunk posts already draw from per-process streams on that node.
pub struct HealthMonitor {
    enabled: bool,
    window_ns: u64,
    threshold: u32,
    cooldown_ns: u64,
    breakers: RefCell<Vec<[Breaker; Protocol::COUNT]>>,
}

impl HealthMonitor {
    pub fn new(plan: &faults::FaultPlan, nnodes: usize) -> HealthMonitor {
        HealthMonitor {
            enabled: plan.active(),
            window_ns: plan.health_window_ns,
            threshold: plan.health_threshold,
            cooldown_ns: plan.health_cooldown_ns,
            breakers: RefCell::new(
                (0..nnodes)
                    .map(|_| std::array::from_fn(|_| Breaker::default()))
                    .collect(),
            ),
        }
    }

    /// Record one injected fault at virtual time `now_ns`. Returns
    /// `Some(Demote)` when this failure opens the breaker: a closed
    /// breaker crossing the window threshold, a failed half-open
    /// probe, or a failure right after an expired cooldown.
    pub fn record_failure(&self, node: usize, proto: Protocol, now_ns: u64) -> Option<Transition> {
        if !self.enabled {
            return None;
        }
        let mut g = self.breakers.borrow_mut();
        let b = &mut g[node][proto as usize];
        match b.state {
            BreakerState::Closed => {
                b.fails.push_back(now_ns);
                while b
                    .fails
                    .front()
                    .is_some_and(|&t| t + self.window_ns <= now_ns)
                {
                    b.fails.pop_front();
                }
                if b.fails.len() as u32 >= self.threshold {
                    b.fails.clear();
                    b.state = BreakerState::Open {
                        until_ns: now_ns + self.cooldown_ns,
                    };
                    Some(Transition::Demote)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                b.state = BreakerState::Open {
                    until_ns: now_ns + self.cooldown_ns,
                };
                Some(Transition::Demote)
            }
            // An implicitly admitted post (a path that doesn't consult,
            // e.g. sync flags) failed after the cooldown lapsed: re-arm.
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                b.state = BreakerState::Open {
                    until_ns: now_ns + self.cooldown_ns,
                };
                Some(Transition::Demote)
            }
            BreakerState::Open { .. } => None,
        }
    }

    /// Record one clean post. Returns `Some(Promote)` when it closes a
    /// half-open breaker (or an open one whose cooldown has lapsed, for
    /// paths that post without consulting first).
    pub fn record_success(&self, node: usize, proto: Protocol, now_ns: u64) -> Option<Transition> {
        if !self.enabled {
            return None;
        }
        let mut g = self.breakers.borrow_mut();
        let b = &mut g[node][proto as usize];
        match b.state {
            BreakerState::HalfOpen => {
                b.state = BreakerState::Closed;
                b.fails.clear();
                Some(Transition::Promote)
            }
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                b.state = BreakerState::Closed;
                b.fails.clear();
                Some(Transition::Promote)
            }
            _ => None,
        }
    }

    /// Fail-stop eviction: force every breaker of `node` open until
    /// `until_ns` — the dead peer's rejoin instant, or `u64::MAX` when
    /// it never rejoins. A dead node must not be probed during the
    /// outage; at `until_ns` the breakers lapse and the next consult
    /// admits the half-open warm-up probe of the rejoin path.
    pub fn mark_dead(&self, node: usize, until_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut g = self.breakers.borrow_mut();
        for b in g[node].iter_mut() {
            b.state = BreakerState::Open { until_ns };
            b.fails.clear();
        }
    }

    /// Rejoin counterpart of [`Self::mark_dead`]: close every breaker
    /// of `node` except `probe`, which is left open-until-`rejoin_ns`
    /// (already lapsed by the time this runs) so the next consult
    /// admits exactly one half-open warm-up probe. Closing the rest
    /// keeps later successes from minting unpaired promotes out of
    /// lapsed-open breakers.
    pub fn mark_rejoined(&self, node: usize, probe: Protocol, rejoin_ns: u64) {
        if !self.enabled {
            return;
        }
        let mut g = self.breakers.borrow_mut();
        for (i, b) in g[node].iter_mut().enumerate() {
            b.state = if i == probe as usize {
                BreakerState::Open { until_ns: rejoin_ns }
            } else {
                BreakerState::Closed
            };
            b.fails.clear();
        }
    }

    /// Ask whether protocol selection may use `proto` right now. Moves
    /// an open breaker whose cooldown has lapsed to half-open (the
    /// caller's op becomes the probe).
    pub fn consult(&self, node: usize, proto: Protocol, now_ns: u64) -> Route {
        if !self.enabled {
            return Route::Use;
        }
        let mut g = self.breakers.borrow_mut();
        let b = &mut g[node][proto as usize];
        match b.state {
            BreakerState::Closed => Route::Use,
            BreakerState::HalfOpen => Route::Probe { first: false },
            BreakerState::Open { until_ns } if now_ns >= until_ns => {
                b.state = BreakerState::HalfOpen;
                Route::Probe { first: true }
            }
            BreakerState::Open { .. } => Route::Avoid,
        }
    }

    /// Non-mutating sweep of every breaker still demoted at `now_ns` —
    /// the chaos campaign's breaker-recovery oracle. Empty for an inert
    /// monitor and for any instant past the last cooldown.
    pub fn demoted(&self, now_ns: u64) -> Vec<(usize, Protocol)> {
        if !self.enabled {
            return Vec::new();
        }
        let g = self.breakers.borrow();
        let mut out = Vec::new();
        for (node, per_node) in g.iter().enumerate() {
            for (pi, b) in per_node.iter().enumerate() {
                if matches!(b.state, BreakerState::Open { until_ns } if now_ns < until_ns) {
                    out.push((node, Protocol::ALL[pi]));
                }
            }
        }
        out
    }

    /// Human-readable snapshot of every non-closed breaker, in
    /// (node, protocol) order — diagnostic payload for oracle failures.
    pub fn breaker_states(&self) -> Vec<String> {
        if !self.enabled {
            return Vec::new();
        }
        let g = self.breakers.borrow();
        let mut out = Vec::new();
        for (node, per_node) in g.iter().enumerate() {
            for (pi, b) in per_node.iter().enumerate() {
                let st = match b.state {
                    BreakerState::Closed => continue,
                    BreakerState::Open { until_ns } => format!("open until {until_ns}"),
                    BreakerState::HalfOpen => "half-open".to_string(),
                };
                out.push(format!("node{node}/{}: {st}", Protocol::ALL[pi].name()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed() -> HealthMonitor {
        let plan = faults::FaultPlan::default()
            .with_cqe_errors(1)
            .with_health(1_000, 3, 5_000);
        HealthMonitor::new(&plan, 2)
    }

    #[test]
    fn inert_without_active_plan() {
        let h = HealthMonitor::new(&faults::FaultPlan::default(), 1);
        for t in 0..10 {
            assert_eq!(h.record_failure(0, Protocol::DirectGdr, t), None);
        }
        assert_eq!(h.consult(0, Protocol::DirectGdr, 100), Route::Use);
        assert!(h.demoted(100).is_empty());
    }

    #[test]
    fn demotes_after_threshold_within_window() {
        let h = armed();
        assert_eq!(h.record_failure(0, Protocol::DirectGdr, 100), None);
        assert_eq!(h.record_failure(0, Protocol::DirectGdr, 200), None);
        assert_eq!(
            h.record_failure(0, Protocol::DirectGdr, 300),
            Some(Transition::Demote)
        );
        assert_eq!(h.consult(0, Protocol::DirectGdr, 400), Route::Avoid);
        assert_eq!(h.demoted(400), vec![(0, Protocol::DirectGdr)]);
        // other node / other protocol unaffected
        assert_eq!(h.consult(1, Protocol::DirectGdr, 400), Route::Use);
        assert_eq!(h.consult(0, Protocol::ProxyPipeline, 400), Route::Use);
    }

    #[test]
    fn window_slides_and_old_failures_expire() {
        let h = armed();
        h.record_failure(0, Protocol::DirectGdr, 0);
        h.record_failure(0, Protocol::DirectGdr, 500);
        // first failure fell out of the 1 µs window: still closed
        assert_eq!(h.record_failure(0, Protocol::DirectGdr, 1_100), None);
        assert_eq!(h.consult(0, Protocol::DirectGdr, 1_100), Route::Use);
    }

    #[test]
    fn cooldown_probe_then_promote() {
        let h = armed();
        for t in [100, 200, 300] {
            h.record_failure(0, Protocol::DirectGdr, t);
        }
        assert_eq!(h.consult(0, Protocol::DirectGdr, 1_000), Route::Avoid);
        // cooldown (5 µs from the demote at t=300) lapses
        assert_eq!(
            h.consult(0, Protocol::DirectGdr, 5_400),
            Route::Probe { first: true }
        );
        assert_eq!(
            h.consult(0, Protocol::DirectGdr, 5_500),
            Route::Probe { first: false }
        );
        assert_eq!(
            h.record_success(0, Protocol::DirectGdr, 5_600),
            Some(Transition::Promote)
        );
        assert_eq!(h.consult(0, Protocol::DirectGdr, 5_700), Route::Use);
        assert_eq!(h.record_success(0, Protocol::DirectGdr, 5_800), None);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let h = armed();
        for t in [100, 200, 300] {
            h.record_failure(0, Protocol::DirectGdr, t);
        }
        assert_eq!(
            h.consult(0, Protocol::DirectGdr, 5_400),
            Route::Probe { first: true }
        );
        assert_eq!(
            h.record_failure(0, Protocol::DirectGdr, 5_500),
            Some(Transition::Demote)
        );
        assert_eq!(h.consult(0, Protocol::DirectGdr, 5_600), Route::Avoid);
        // success without a consult after the second cooldown lapses
        // (a path that posts without asking) still re-promotes
        assert_eq!(
            h.record_success(0, Protocol::DirectGdr, 11_000),
            Some(Transition::Promote)
        );
    }

    #[test]
    fn mark_dead_opens_every_protocol_until_rejoin() {
        let h = armed();
        h.mark_dead(1, 500_000);
        for p in Protocol::ALL {
            assert_eq!(h.consult(1, p, 499_999), Route::Avoid, "{}", p.name());
        }
        assert_eq!(h.demoted(499_999).len(), Protocol::COUNT);
        // the outage is per-node: the survivor's breakers stay closed
        assert_eq!(h.consult(0, Protocol::DirectGdr, 499_999), Route::Use);
        // a never-rejoining peer (until = MAX) never lapses to a probe
        h.mark_dead(1, u64::MAX);
        assert_eq!(h.consult(1, Protocol::HostRdma, u64::MAX - 1), Route::Avoid);
    }

    #[test]
    fn mark_rejoined_leaves_one_halfopen_probe_then_promotes() {
        let h = armed();
        h.mark_dead(1, 500_000);
        h.mark_rejoined(1, Protocol::HostRdma, 500_000);
        // every non-probe protocol closed outright: no unpaired promotes
        for p in Protocol::ALL {
            if p != Protocol::HostRdma {
                assert_eq!(h.consult(1, p, 500_001), Route::Use, "{}", p.name());
            }
        }
        // the probe protocol admits exactly one first-probe consult,
        // and its warm-up success mints the promote
        assert_eq!(
            h.consult(1, Protocol::HostRdma, 500_001),
            Route::Probe { first: true }
        );
        assert_eq!(
            h.consult(1, Protocol::HostRdma, 500_002),
            Route::Probe { first: false }
        );
        assert_eq!(
            h.record_success(1, Protocol::HostRdma, 500_003),
            Some(Transition::Promote)
        );
        assert_eq!(h.consult(1, Protocol::HostRdma, 500_004), Route::Use);
    }
}
