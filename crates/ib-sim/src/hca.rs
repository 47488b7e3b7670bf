//! The host channel adapter: a TX engine with counters.
//!
//! Latency constants (WQE processing, DMA setup) come from the
//! [`pcie_sim::profile::IbProfile`]; the TX link serializes outgoing
//! payload bytes at wire bandwidth. The link's own latency is zero —
//! wire/switch/loopback latencies are added explicitly by the verbs
//! layer because they differ per path.

use pcie_sim::profile::IbProfile;
use pcie_sim::HcaId;
use sim_core::{Link, LinkSpec, SimDuration, SimTime};
use std::cell::RefCell;

/// Counters for one HCA (observability + tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct HcaStats {
    pub writes_posted: u64,
    pub reads_posted: u64,
    pub sends_posted: u64,
    pub atomics_posted: u64,
    pub bytes_tx: u64,
}

/// One simulated adapter.
pub struct Hca {
    id: HcaId,
    tx: RefCell<Link>,
    stats: RefCell<HcaStats>,
}

impl Hca {
    pub fn new(id: HcaId, ib: &IbProfile) -> Hca {
        Hca {
            id,
            tx: RefCell::new(Link::new(LinkSpec::new(SimDuration::ZERO, ib.wire_bw))),
            stats: RefCell::new(HcaStats::default()),
        }
    }

    pub fn id(&self) -> HcaId {
        self.id
    }

    /// Reserve the TX engine for `len` bytes at effective bandwidth
    /// `eff_bw` (the gather-side bottleneck), returning the grant.
    pub fn tx_reserve(&self, now: SimTime, len: u64, eff_bw: f64) -> sim_core::LinkGrant {
        self.stats.borrow_mut().bytes_tx += len;
        self.tx.borrow_mut().reserve_with(now, len, eff_bw)
    }

    pub fn stats(&self) -> HcaStats {
        *self.stats.borrow()
    }

    /// Install a per-reservation observer on the TX link (drives the
    /// per-link utilization tracks of the obs layer).
    pub fn set_tx_observer(&self, f: sim_core::LinkObserver) {
        self.tx.borrow_mut().set_observer(f);
    }

    /// Add a fault window (degradation or blackout) to the TX link.
    pub fn add_tx_fault_window(&self, w: sim_core::LinkFaultWindow) {
        self.tx.borrow_mut().add_fault_window(w);
    }

    pub fn note_write(&self) {
        self.stats.borrow_mut().writes_posted += 1;
    }
    pub fn note_read(&self) {
        self.stats.borrow_mut().reads_posted += 1;
    }
    pub fn note_send(&self) {
        self.stats.borrow_mut().sends_posted += 1;
    }
    pub fn note_atomic(&self) {
        self.stats.borrow_mut().atomics_posted += 1;
    }
}

impl std::fmt::Debug for Hca {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hca({})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::HwProfile;

    #[test]
    fn tx_serializes_and_counts() {
        let hw = HwProfile::wilkes();
        let h = Hca::new(HcaId(0), &hw.ib);
        let a = h.tx_reserve(SimTime::ZERO, 1_000_000, hw.ib.wire_bw);
        let b = h.tx_reserve(SimTime::ZERO, 1_000_000, hw.ib.wire_bw);
        assert_eq!(b.start, a.depart);
        assert_eq!(h.stats().bytes_tx, 2_000_000);
    }

    #[test]
    fn effective_bandwidth_caps_apply() {
        let hw = HwProfile::wilkes();
        let h = Hca::new(HcaId(0), &hw.ib);
        // P2P-read-limited gather (247 MB/s) vs wire speed.
        let slow = h.tx_reserve(SimTime::ZERO, 1_000_000, 247e6);
        let dur = slow.depart - slow.start;
        assert!((dur.as_ms_f64() - 4.05).abs() < 0.05, "got {dur}");
    }
}
