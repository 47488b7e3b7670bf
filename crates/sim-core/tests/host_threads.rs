//! `Sim::run` executes its tasks on the calling thread, so two host
//! threads can each be inside a run of their own `Sim` at once — what
//! `cargo test` does to every suite that builds a machine. Each thread
//! maps and keeps task stacks of its own.

use sim_core::{stacks_mapped, Completion, Sim, SimDuration, SimTime};
use std::sync::Barrier;

/// A ring of `n` tasks stepping `steps` times; `meet` is called by rank 0
/// in the middle of the run. Returns each task's final instant.
fn ring(n: usize, steps: u64, meet: impl Fn() + Send + Sync) -> Vec<SimTime> {
    let sim = Sim::new();
    let comps: Vec<Completion> = (0..n).map(|_| Completion::new()).collect();
    sim.run(n, |ctx| {
        let me = ctx.rank();
        for step in 1..=steps {
            if me == 0 && step == steps / 2 {
                meet();
            }
            ctx.advance(SimDuration::from_us(me as u64 % 5 + 1));
            ctx.with_sched(|s| s.signal(&comps[(me + 1) % n], 1));
            ctx.wait_threshold(&comps[me], step);
        }
        ctx.now()
    })
}

#[test]
fn two_host_threads_run_two_sims_at_once() {
    let alone = [ring(8, 400, || {}), ring(13, 300, || {})];
    // both rank 0s stop at the barrier mid-run: neither run can finish
    // before the other is under way
    let both_inside = Barrier::new(2);
    let meet = || {
        both_inside.wait();
    };
    let together = std::thread::scope(|s| {
        let a = s.spawn(|| (ring(8, 400, meet), stacks_mapped()));
        let b = s.spawn(|| (ring(13, 300, meet), stacks_mapped()));
        [a.join().expect("first run"), b.join().expect("second run")]
    });
    let [(a, a_mapped), (b, b_mapped)] = together;
    assert_eq!([a, b], alone);
    // neither thread took a stack of the other's, nor one of this thread's
    assert_eq!([a_mapped, b_mapped], [8, 13]);
}
