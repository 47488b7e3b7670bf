//! A trace: the recorder's own [`Event`]s, in the order the exporter
//! writes them.
//!
//! [`Trace::of`] copies them straight out of a [`Recorder`], with no
//! JSON in between. [`Trace::decode`] reads them back from a parsed
//! Chrome trace document ([`obs::chrome::decode`], the exporter's
//! inverse), borrowing names from it. That is strict about document
//! structure (a missing `traceEvents` array is an error — `gdrprof`
//! gates its exit code on this) but lenient about vocabulary: phases it
//! does not know are skipped, so traces from newer recorders still load.
//! Either way the analyses read the same `Trace`.

use obs::json::Value;
use obs::{chrome, us, Decision, Event, Payload, Recorder, Tracks, WindowSnap};

/// A loaded trace, ready for [`crate::analyze`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace<'a> {
    /// Named tracks in export order, each track's events in timestamp
    /// order.
    pub tracks: Tracks<'a>,
    /// Windowed-metrics snapshots in window order, each with its SLO
    /// violations (none on traces recorded without
    /// `GDR_SHMEM_OBS_WINDOW_US`).
    pub windows: Vec<WindowSnap<'a>>,
}

impl Trace<'static> {
    /// The trace `rec` exports, copied in-process.
    pub fn of(rec: &Recorder) -> Trace<'static> {
        Trace {
            tracks: rec.ordered_tracks(),
            windows: rec.window_report(),
        }
    }
}

impl<'a> Trace<'a> {
    /// Decode a parsed Chrome trace document.
    pub fn decode(doc: &'a Value) -> Result<Trace<'a>, String> {
        let (tracks, windows) = chrome::decode(doc)?;
        Ok(Trace { tracks, windows })
    }

    /// Every event with the name of its track, in export order.
    pub fn events(&self) -> impl Iterator<Item = (&str, &Event<'a>)> {
        self.tracks
            .iter()
            .flat_map(|(name, events)| events.iter().map(move |e| (name.as_str(), e)))
    }

    /// The protocol-decision records, in export order.
    pub fn decisions(&self) -> impl Iterator<Item = &Decision<'a>> {
        self.events().filter_map(|(_, e)| match &e.payload {
            Payload::Decision(d) if e.name == "protocol-decision" => Some(d),
            _ => None,
        })
    }

    /// The latest instant any event, snapshot or violation reaches (us):
    /// the trace's time span.
    pub fn end_us(&self) -> f64 {
        let events = self.events().map(|(_, e)| span_us(e).1);
        let metrics = self
            .windows
            .iter()
            .flat_map(|w| std::iter::once(w.end_ps).chain(w.violations.iter().map(|v| v.ts_ps)))
            .map(us);
        events.chain(metrics).fold(0.0, f64::max)
    }
}

/// An event's start and end in microseconds, computed as the exported
/// `ts` and `ts + dur` read back.
pub fn span_us(e: &Event) -> (f64, f64) {
    let start = us(e.ts.as_ps());
    (start, start + us(e.dur.as_ps()))
}
