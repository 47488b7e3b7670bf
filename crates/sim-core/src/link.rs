//! Bandwidth/latency resources with FIFO occupancy.
//!
//! A [`Link`] models one direction of a physical interconnect segment
//! (a PCIe lane bundle, the IB wire, a QPI hop, a DMA engine). Transfers
//! serialize on the link: a reservation occupies the link for
//! `bytes / bandwidth`, and the payload arrives `latency` after it left.
//! This is a cut-through model — latency does not hold the link.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Static description of a link (part of a hardware profile).
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Propagation + fixed per-transfer latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl LinkSpec {
    pub fn new(latency: SimDuration, bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        LinkSpec { latency, bandwidth }
    }
}

/// The granted schedule for a reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkGrant {
    /// When the transfer begins occupying the link.
    pub start: SimTime,
    /// When the link becomes free again (last byte pushed in).
    pub depart: SimTime,
    /// When the last byte arrives at the far end.
    pub arrive: SimTime,
}

/// One reservation's snapshot, delivered to a link observer (see
/// [`Link::set_observer`]). Carries both the per-transfer schedule and
/// the link's cumulative accounting so a recorder never needs to call
/// back into the (borrowed) link.
#[derive(Clone, Copy, Debug)]
pub struct LinkEvent {
    /// When the transfer begins occupying the link.
    pub start: SimTime,
    /// When the link becomes free again.
    pub depart: SimTime,
    /// When the last byte arrives at the far end.
    pub arrive: SimTime,
    /// Payload size of this reservation.
    pub bytes: u64,
    /// Reservations (including this one) still occupying or queued on
    /// the link when this one was requested — >1 means the transfer had
    /// to wait.
    pub queue_depth: u32,
    /// Cumulative bytes through the link, including this reservation.
    pub bytes_total: u64,
    /// Cumulative busy time, including this reservation.
    pub busy_total: SimDuration,
}

/// Callback fired on every [`Link`] reservation.
pub type LinkObserver = Box<dyn FnMut(&LinkEvent)>;

/// A degradation or blackout window on a link, for fault injection.
///
/// Transfers whose (queue-adjusted) start falls inside `[start, end)`
/// run at `bandwidth × bw_multiplier`; a multiplier of `0.0` is a
/// blackout — the transfer cannot start until the window ends. The
/// multiplier applies to the whole transfer (a transfer straddling the
/// window edge is not re-rated mid-flight — a deliberate model
/// simplification that keeps grants single-segment).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaultWindow {
    pub start: SimTime,
    pub end: SimTime,
    /// Bandwidth multiplier in `[0.0, 1.0]`; `0.0` = full outage.
    pub bw_multiplier: f64,
}

/// A FIFO-serialized link, owned by its hardware model (in a `RefCell`
/// where the model is shared). Reserve it from engine context (an event
/// action or `with_sched`) so queueing order matches virtual-time order.
pub struct Link {
    spec: LinkSpec,
    next_free: SimTime,
    /// Total bytes ever pushed through (for utilization reporting).
    bytes_total: u64,
    /// Cumulative busy time.
    busy: SimDuration,
    /// Departure times of reservations not yet drained at the most
    /// recent reservation's request time (the instantaneous queue).
    pending: VecDeque<SimTime>,
    observer: Option<LinkObserver>,
    /// Fault-injection windows (empty in healthy operation — the hot
    /// path only pays an `is_empty` check).
    fault_windows: Vec<LinkFaultWindow>,
}

impl Link {
    pub fn new(spec: LinkSpec) -> Self {
        Link {
            spec,
            next_free: SimTime::ZERO,
            bytes_total: 0,
            busy: SimDuration::ZERO,
            pending: VecDeque::new(),
            observer: None,
            fault_windows: Vec::new(),
        }
    }

    /// Install a degradation/blackout window (fault injection). Windows
    /// are consulted in insertion order; overlapping degradation windows
    /// compound multiplicatively.
    pub fn add_fault_window(&mut self, w: LinkFaultWindow) {
        assert!(
            (0.0..=1.0).contains(&w.bw_multiplier),
            "bw_multiplier must be in [0, 1], got {}",
            w.bw_multiplier
        );
        assert!(w.end > w.start, "empty fault window");
        self.fault_windows.push(w);
    }

    /// Install a per-reservation observer (at most one; the last call
    /// wins). Fired synchronously inside `reserve_with`, while the link
    /// is borrowed — observers must not call back into it.
    pub fn set_observer(&mut self, f: LinkObserver) {
        self.observer = Some(f);
    }

    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Reserve the link for `bytes` starting no earlier than `now`.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> LinkGrant {
        self.reserve_with(now, bytes, self.spec.bandwidth)
    }

    /// Reserve the link with an *effective* bandwidth below the native one
    /// (e.g. a PCIe P2P transfer capped by the chipset, paper Table III).
    /// The link stays occupied for the slower transfer's full duration.
    pub fn reserve_with(&mut self, now: SimTime, bytes: u64, effective_bw: f64) -> LinkGrant {
        assert!(
            effective_bw.is_finite() && effective_bw > 0.0,
            "effective bandwidth must be positive and finite, got {effective_bw}"
        );
        let mut bw = effective_bw.min(self.spec.bandwidth);
        let mut start = now.max(self.next_free);
        if !self.fault_windows.is_empty() {
            // Blackouts first: push the start past every outage covering
            // it (repeat — the new start may land in a later window).
            let mut moved = true;
            while moved {
                moved = false;
                for w in &self.fault_windows {
                    if w.bw_multiplier == 0.0 && start >= w.start && start < w.end {
                        start = w.end;
                        moved = true;
                    }
                }
            }
            // Then degrade: every non-blackout window covering the start
            // scales the whole transfer's bandwidth.
            for w in &self.fault_windows {
                if w.bw_multiplier > 0.0 && start >= w.start && start < w.end {
                    bw *= w.bw_multiplier;
                }
            }
        }
        let occupy = SimDuration::for_bytes(bytes, bw);
        let depart = start + occupy;
        let arrive = depart + self.spec.latency;
        self.next_free = depart;
        self.bytes_total += bytes;
        self.busy += occupy;
        while self.pending.front().is_some_and(|&d| d <= now) {
            self.pending.pop_front();
        }
        self.pending.push_back(depart);
        if let Some(obs) = self.observer.as_mut() {
            obs(&LinkEvent {
                start,
                depart,
                arrive,
                bytes,
                queue_depth: self.pending.len() as u32,
                bytes_total: self.bytes_total,
                busy_total: self.busy,
            });
        }
        LinkGrant {
            start,
            depart,
            arrive,
        }
    }

    /// Earliest instant a new reservation could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("spec", &self.spec)
            .field("next_free", &self.next_free)
            .field("bytes_total", &self.bytes_total)
            .field("busy", &self.busy)
            .field("queued", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(lat_us: u64, gbps: f64) -> Link {
        Link::new(LinkSpec::new(SimDuration::from_us(lat_us), gbps * 1e9))
    }

    #[test]
    fn unloaded_transfer_time() {
        let mut l = mk(1, 1.0); // 1us latency, 1 GB/s
        let g = l.reserve(SimTime::ZERO, 1_000_000); // 1 MB -> 1 ms occupy
        assert_eq!(g.start, SimTime::ZERO);
        assert_eq!(g.depart.as_us_f64(), 1000.0);
        assert_eq!(g.arrive.as_us_f64(), 1001.0);
    }

    #[test]
    fn back_to_back_transfers_queue_fifo() {
        let mut l = mk(1, 1.0);
        let a = l.reserve(SimTime::ZERO, 1_000_000);
        let b = l.reserve(SimTime::ZERO, 1_000_000);
        assert_eq!(b.start, a.depart);
        assert_eq!(b.depart.as_us_f64(), 2000.0);
        // Latency is per-transfer, not occupying the link.
        assert_eq!(b.arrive.as_us_f64(), 2001.0);
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut l = mk(0, 1.0);
        let a = l.reserve(SimTime::ZERO, 1000);
        let later = a.depart + SimDuration::from_us(50);
        let b = l.reserve(later, 1000);
        assert_eq!(b.start, later);
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let mut l = mk(2, 1.0);
        let g = l.reserve(SimTime::ZERO, 0);
        assert_eq!(g.start, g.depart);
        assert_eq!(g.arrive.as_us_f64(), 2.0);
    }

    #[test]
    fn accounting_accumulates() {
        let mut l = mk(0, 1.0);
        l.reserve(SimTime::ZERO, 500);
        l.reserve(SimTime::ZERO, 1500);
        assert_eq!(l.bytes_total(), 2000);
    }

    #[test]
    fn observer_sees_every_reservation_with_totals() {
        use std::{cell::RefCell, rc::Rc};
        let mut l = mk(1, 1.0);
        let seen: Rc<RefCell<Vec<LinkEvent>>> = Rc::default();
        let seen2 = seen.clone();
        l.set_observer(Box::new(move |ev| seen2.borrow_mut().push(*ev)));
        let a = l.reserve(SimTime::ZERO, 1000);
        let b = l.reserve(SimTime::ZERO, 2000);
        let evs = seen.borrow().clone();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].start, a.start);
        assert_eq!(evs[0].bytes, 1000);
        assert_eq!(evs[0].bytes_total, 1000);
        assert_eq!(evs[1].depart, b.depart);
        assert_eq!(evs[1].bytes_total, 3000);
        assert_eq!(evs[1].busy_total, SimDuration::for_bytes(3000, 1e9));
    }

    #[test]
    fn queue_depth_counts_overlapping_reservations() {
        use std::{cell::RefCell, rc::Rc};
        let mut l = mk(0, 1.0);
        let depths: Rc<RefCell<Vec<u32>>> = Rc::default();
        let d2 = depths.clone();
        l.set_observer(Box::new(move |ev| d2.borrow_mut().push(ev.queue_depth)));
        // three back-to-back reservations at t=0: each queues behind the
        // previous ones, so the depth climbs 1, 2, 3
        for _ in 0..3 {
            l.reserve(SimTime::ZERO, 1_000_000);
        }
        // after an idle gap the queue has drained back to just the new one
        let later = l.next_free() + SimDuration::from_us(10);
        l.reserve(later, 1000);
        assert_eq!(*depths.borrow(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn degradation_window_scales_bandwidth_for_covered_starts() {
        let mut l = mk(0, 1.0); // 1 GB/s
        l.add_fault_window(LinkFaultWindow {
            start: SimTime::ZERO,
            end: SimTime(2_000_000_000), // 2 ms in ps
            bw_multiplier: 0.5,
        });
        // starts inside the window: half bandwidth
        let a = l.reserve(SimTime::ZERO, 1_000_000); // 1 MB -> 2 ms at 0.5 GB/s
        assert_eq!(a.depart.as_us_f64(), 2000.0);
        // starts after the window: full bandwidth again
        let b = l.reserve(a.depart + SimDuration::from_us(100), 1_000_000);
        assert_eq!((b.depart - b.start), SimDuration::for_bytes(1_000_000, 1e9));
    }

    #[test]
    fn blackout_window_defers_the_start() {
        let mut l = mk(1, 1.0);
        l.add_fault_window(LinkFaultWindow {
            start: SimTime::ZERO,
            end: SimTime(500_000_000), // 500 us outage
            bw_multiplier: 0.0,
        });
        let g = l.reserve(SimTime::ZERO, 1000);
        assert_eq!(g.start.as_us_f64(), 500.0, "must wait out the blackout");
        // a transfer requested after the outage is unaffected
        let h = l.reserve(SimTime(600_000_000), 1000);
        assert_eq!(h.start.as_us_f64(), 600.0);
    }

    #[test]
    fn chained_blackouts_push_past_every_window() {
        let mut l = mk(0, 1.0);
        l.add_fault_window(LinkFaultWindow {
            start: SimTime::ZERO,
            end: SimTime(100_000_000),
            bw_multiplier: 0.0,
        });
        l.add_fault_window(LinkFaultWindow {
            start: SimTime(100_000_000),
            end: SimTime(300_000_000),
            bw_multiplier: 0.0,
        });
        let g = l.reserve(SimTime::ZERO, 0);
        assert_eq!(g.start.as_us_f64(), 300.0);
    }

    #[test]
    fn no_windows_means_identical_schedule() {
        let mut a = mk(1, 6.4);
        let mut b = mk(1, 6.4);
        b.add_fault_window(LinkFaultWindow {
            start: SimTime(1_000_000_000_000),
            end: SimTime(2_000_000_000_000),
            bw_multiplier: 0.25,
        });
        // reservations entirely before the window see the same grants
        for i in 0..10u64 {
            let ga = a.reserve(SimTime(i * 1000), 10_000 + i);
            let gb = b.reserve(SimTime(i * 1000), 10_000 + i);
            assert_eq!(ga, gb);
        }
    }

    #[test]
    fn next_free_monotonic_under_random_loads() {
        let mut l = mk(1, 6.4);
        let mut now = SimTime::ZERO;
        let mut prev_free = SimTime::ZERO;
        for i in 0..100u64 {
            now += SimDuration::from_ns(i * 37 % 900);
            let g = l.reserve(now, (i * 7919) % 100_000);
            assert!(g.start >= now);
            assert!(g.depart >= g.start);
            assert!(g.arrive >= g.depart);
            assert!(l.next_free() >= prev_free, "next_free regressed");
            prev_free = l.next_free();
        }
    }
}
