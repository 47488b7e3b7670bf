//! # sim-core — deterministic virtual-time simulation engine
//!
//! The foundation of the GDR-aware OpenSHMEM reproduction: a
//! discrete-event engine where processing elements run as stackful
//! coroutines of the host thread that called [`Sim::run`], against a
//! shared **virtual clock**, one at a time (a baton passed in wake
//! order), and hardware (DMA engines, NICs, proxies) runs as chains of
//! scheduled events. Targets x86_64 unix (see `switch.rs`).
//!
//! ## Quick tour
//!
//! ```
//! use sim_core::{Sim, SimDuration, Completion};
//!
//! let sim = Sim::new();
//! let done = Completion::new();
//! let done2 = done.clone();
//! let times = sim.run(2, move |ctx| {
//!     if ctx.id().0 == 0 {
//!         ctx.wait(&done2);           // block until signalled
//!     } else {
//!         ctx.advance(SimDuration::from_us(3));   // "compute" 3us
//!         ctx.with_sched(|s| s.signal(&done2, 1));
//!     }
//!     ctx.now()
//! });
//! assert_eq!(times[0].as_us_f64(), 3.0);
//! ```
//!
//! See the crate-level modules:
//! - [`time`] — picosecond-resolution [`SimTime`]/[`SimDuration`];
//! - [`engine`] — [`Sim`], [`TaskCtx`], [`Sched`], [`Completion`];
//! - `switch` (private) — the coroutine switch and stacks under `Sim::run`;
//! - [`link`] — FIFO bandwidth/latency resources.

pub mod engine;
pub mod link;
mod switch;
pub mod time;

pub use engine::{Action, Completion, EngineStats, Probe, Sched, Sim, TaskCtx, TaskId};
pub use link::{Link, LinkEvent, LinkFaultWindow, LinkGrant, LinkObserver, LinkSpec};
pub use time::{SimDuration, SimTime, PS_PER_MS, PS_PER_NS, PS_PER_S, PS_PER_US};
