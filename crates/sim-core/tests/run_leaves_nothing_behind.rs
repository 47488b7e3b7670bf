//! Every path out of `Sim::run` — normal exit, a panicking task, a
//! panicking event action, the deadlock an *exiting* task raises — ends
//! with every task's frames unwound and every stack unmapped or on the
//! thread's spare list, which the next run takes its stacks from.
//!
//! Alone in its file: the address-space check needs a process in which
//! nothing else maps memory meanwhile.

use sim_core::{stacks_mapped, Completion, Sim, SimDuration};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountsDrop<'a>(&'a AtomicUsize);

impl Drop for CountsDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Total program size in pages, `/proc/self/statm` field 1.
fn vm_pages() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("Linux procfs");
    statm
        .split(' ')
        .next()
        .and_then(|f| f.parse().ok())
        .expect("statm size field")
}

#[test]
fn two_thousand_runs_leave_nothing_behind() {
    const RUNS: usize = 2_000;
    // what the failing runs raise, by way of failing; their siblings'
    // secondary panics say "poisoned"
    let expected = [
        "rank 2 gives up",
        "event action gives up",
        "virtual-time deadlock",
    ];
    // keep those ~500 messages off the terminal, and only those
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or_default();
        if !expected.iter().any(|e| msg.contains(e)) && !msg.contains("poisoned") {
            report(info);
        }
    }));
    let drops = AtomicUsize::new(0);
    let us = SimDuration::from_us;
    let mut pages_at_half = 0;
    for run in 0..RUNS {
        if run == RUNS / 2 {
            pages_at_half = vm_pages();
        }
        // every tenth run fails, by each of the three ways in turn
        let failure = (run % 10 == 0).then_some(run / 10 % 3);
        let sim = Sim::new();
        let never = Completion::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            sim.run(4, |ctx| {
                let _local = CountsDrop(&drops);
                match (failure, ctx.rank()) {
                    (Some(0), 2) => {
                        ctx.advance(us(2));
                        panic!("rank 2 gives up");
                    }
                    // whoever blocks last drives the event and unwinds first
                    (Some(1), 2) => ctx.with_sched(|s| {
                        s.schedule_in(us(2), Box::new(|_| panic!("event action gives up")))
                    }),
                    // rank 2 leaves last, with nobody runnable and no event
                    // pending: the deadlock is raised on its way out
                    (Some(2), 2) => return ctx.advance(us(9)),
                    (Some(2), _) => ctx.wait(&never),
                    // suspended for good when the failure comes
                    (Some(_), 3) => ctx.wait(&never),
                    _ => {}
                }
                ctx.advance(us(ctx.rank() as u64 + 3));
            })
        }));
        // ... and is what `run` re-raises, not a sibling's secondary panic
        let raised = result.err().map(|p| match p.downcast::<String>() {
            Ok(formatted) => *formatted,
            Err(p) => p.downcast_ref::<&str>().expect("a message").to_string(),
        });
        match (failure, raised) {
            (None, None) => {}
            (Some(way), Some(msg)) => assert!(msg.contains(expected[way]), "run {run}: {msg}"),
            (_, raised) => panic!("run {run}: expected {failure:?}, got {raised:?}"),
        }
        assert_eq!(
            drops.swap(0, Ordering::SeqCst),
            4,
            "run {run}: a task's locals were not dropped"
        );
    }
    // the first run's four stacks carried all the others, failing ones too
    assert_eq!(stacks_mapped(), 4);
    // one leaked stack per failing run would be 100 x 513 pages
    let grown = vm_pages().saturating_sub(pages_at_half);
    assert!(
        grown < 512,
        "address space grew by {grown} pages over the last {} runs",
        RUNS / 2
    );
}
