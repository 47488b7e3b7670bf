//! CUDA streams: in-order asynchronous operation queues.
//!
//! Only what the pipelined protocols need: enqueue memcpys (and generic
//! delays) that execute strictly in order, and synchronize on the tail.

use crate::GpuRuntime;
use pcie_sim::mem::MemRef;
use sim_core::{Action, Completion, SimDuration, TaskCtx};
use std::cell::RefCell;
use std::rc::Rc;

/// An in-order async work queue (the analogue of `cudaStream_t`).
pub struct Stream {
    rt: Rc<GpuRuntime>,
    tail: RefCell<Option<Completion>>,
}

impl Stream {
    pub fn new(rt: Rc<GpuRuntime>) -> Stream {
        Stream {
            rt,
            tail: RefCell::new(None),
        }
    }

    /// Enqueue an async memcpy; it starts once every earlier op on this
    /// stream finished. Charges the async-launch cost to the caller.
    /// Returns this op's completion.
    pub fn memcpy(&self, ctx: &TaskCtx, src: MemRef, dst: MemRef, len: u64) -> Completion {
        ctx.advance(self.rt.cluster().hw().gpu.memcpy_async_launch);
        let done = Completion::new();
        let (rt, done2) = (self.rt.clone(), done.clone());
        self.enqueue(ctx, &done, Box::new(move |s| rt.dma_start(s, src, dst, len, &done2)));
        done
    }

    /// Enqueue a fixed-cost operation (e.g. a kernel) on the stream.
    pub fn exec(&self, ctx: &TaskCtx, cost: SimDuration) -> Completion {
        let done = Completion::new();
        let done2 = done.clone();
        self.enqueue(
            ctx,
            &done,
            Box::new(move |s| s.schedule_in(cost, Box::new(move |s| s.signal(&done2, 1)))),
        );
        done
    }

    /// Run `start` once every earlier op on this stream finished; the op
    /// it starts signals `done`, the stream's new tail.
    fn enqueue(&self, ctx: &TaskCtx, done: &Completion, start: Action) {
        let prev = self.tail.replace(Some(done.clone()));
        ctx.with_sched(|s| match prev {
            Some(prev) => s.call_on(&prev, 1, start),
            None => start(s),
        });
    }

    /// `cudaStreamSynchronize`: block until everything enqueued completed.
    pub fn synchronize(&self, ctx: &TaskCtx) {
        let tail = self.tail.borrow().clone();
        if let Some(t) = tail {
            ctx.wait(&t);
        }
    }

    /// `cudaEventRecord`: returns an event that fires when every op
    /// enqueued so far has completed. Wait on it with
    /// [`GpuEvent::synchronize`] or query it with [`GpuEvent::query`].
    pub fn record_event(&self, ctx: &TaskCtx) -> GpuEvent {
        let fired = Completion::new();
        let tail = self.tail.borrow().clone();
        let f2 = fired.clone();
        ctx.with_sched(|s| match tail.as_ref() {
            Some(prev) => s.call_on(prev, 1, Box::new(move |s| s.signal(&f2, 1))),
            None => s.signal(&f2, 1),
        });
        GpuEvent { fired }
    }
}

/// A recorded stream event (`cudaEvent_t`).
#[derive(Clone)]
pub struct GpuEvent {
    fired: Completion,
}

impl GpuEvent {
    /// `cudaEventSynchronize`.
    pub fn synchronize(&self, ctx: &TaskCtx) {
        ctx.wait(&self.fired);
    }

    /// `cudaEventQuery`: has the event fired yet?
    pub fn query(&self) -> bool {
        self.fired.is_done(1)
    }

    /// `cudaEventElapsedTime`: microseconds between two fired events.
    pub fn elapsed_us_since(&self, earlier: &GpuEvent) -> f64 {
        let a = earlier.fired.time().expect("earlier event not fired");
        let b = self.fired.time().expect("event not fired");
        (b - a).as_us_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::mem::MemSpace;
    use pcie_sim::{Cluster, ClusterSpec, GpuId, HwProfile, ProcId};
    use sim_core::Sim;

    #[test]
    fn stream_ops_run_in_order_and_sync_waits() {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(1, 1), HwProfile::wilkes());
        cluster.create_host_arena(ProcId(0), 1 << 20);
        let rt = GpuRuntime::new(&sim, cluster, 1 << 20);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let g = rt2.gpu(GpuId(0));
            let dbuf = g.malloc(1 << 16).unwrap();
            let h = MemRef::new(MemSpace::Host(ProcId(0)), 0);
            rt2.cluster().mem().write_bytes(h, &[0xAB; 1024]).unwrap();

            let stream = Stream::new(rt2.clone());
            let c1 = stream.memcpy(&ctx, h, dbuf, 1024); // H2D
            let c2 = stream.memcpy(&ctx, dbuf, h.add(4096), 1024); // D2H of same data
            stream.synchronize(&ctx);
            assert!(c1.is_done(1) && c2.is_done(1));
            // Ordering mattered: the D2H must observe the H2D's bytes.
            let out = rt2.cluster().mem().read_bytes(h.add(4096), 1024).unwrap();
            assert!(out.iter().all(|&b| b == 0xAB));
        });
    }

    #[test]
    fn exec_serializes_with_copies() {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(1, 1), HwProfile::wilkes());
        cluster.create_host_arena(ProcId(0), 4096);
        let rt = GpuRuntime::new(&sim, cluster, 1 << 20);
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let stream = Stream::new(rt2.clone());
            let t0 = ctx.now();
            stream.exec(&ctx, SimDuration::from_us(10));
            stream.exec(&ctx, SimDuration::from_us(5));
            stream.synchronize(&ctx);
            let waited = ctx.now() - t0;
            assert!(waited >= SimDuration::from_us(15), "got {waited}");
        });
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;
    use pcie_sim::{Cluster, ClusterSpec, HwProfile, ProcId};
    use sim_core::Sim;

    fn rt() -> (Sim, Rc<GpuRuntime>) {
        let sim = Sim::new();
        let cluster = Cluster::new(ClusterSpec::wilkes(1, 1), HwProfile::wilkes());
        cluster.create_host_arena(ProcId(0), 1 << 20);
        let rt = GpuRuntime::new(&sim, cluster, 8 << 20);
        (sim, rt)
    }

    #[test]
    fn events_time_stream_sections() {
        let (sim, rt) = rt();
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let stream = Stream::new(rt2.clone());
            let start = stream.record_event(&ctx);
            stream.exec(&ctx, SimDuration::from_us(40));
            let end = stream.record_event(&ctx);
            end.synchronize(&ctx);
            assert!(start.query() && end.query());
            let us = end.elapsed_us_since(&start);
            assert!((us - 40.0).abs() < 1.0, "elapsed {us}");
        });
    }

    #[test]
    fn event_on_empty_stream_fires_immediately() {
        let (sim, rt) = rt();
        let rt2 = rt.clone();
        sim.run(1, move |ctx| {
            let stream = Stream::new(rt2.clone());
            let ev = stream.record_event(&ctx);
            assert!(ev.query());
            ev.synchronize(&ctx); // no hang
        });
    }
}
