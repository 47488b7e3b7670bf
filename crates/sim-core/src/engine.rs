//! The discrete-event engine and its single-runner task scheduling.
//!
//! Processing elements (PEs) run as stackful coroutines on the host
//! thread that called [`Sim::run`] — each on a stack of its own, so that
//! benchmark and application code can be written as straight-line SHMEM
//! programs, and no thread but the caller's: at any host instant exactly
//! one task holds the *baton* and executes user code. A panic in one is
//! caught at its entry and poisons the engine; `run` then resumes every
//! unfinished task so that it unwinds too, and re-raises the root cause
//! once no task is left suspended. A task that is woken joins a
//! FIFO run queue; a task that blocks (on a time advance or on a
//! [`Completion`]) or exits pops that queue and switches directly to the
//! one task it names. All *timing* is virtual: the global clock
//! only advances when the run queue is empty, at which point the task
//! that has just blocked drives the event heap itself until an event
//! wakes somebody — often the driver, which then simply returns.
//!
//! Hardware models (DMA engines, HCAs, proxies) are not threads; they are
//! chains of scheduled closures (`Action`s) that fire at virtual instants,
//! move bytes between arenas, and signal completions.
//!
//! # Determinism
//!
//! A run is a pure function of its inputs; the host scheduler decides
//! nothing. Events execute in `(time, seq)` order, ties at one instant
//! breaking on a monotonically increasing sequence number. Tasks resume
//! in wake order: by the `(time, seq)` of the event that woke them, then
//! by waiter-registration order inside one event; tasks woken from task
//! context ([`Sim::with_sched`]) run when the caller next blocks; the
//! tasks of one [`Sim::run`] start in rank order. Since a task's own
//! `schedule_*` calls draw their `seq` while it holds the baton, every
//! sequence number — and so every simulated timestamp — repeats exactly.
//!
//! # The hand-off
//!
//! What one switch between tasks costs the host is confined to
//! `TaskCtx::block`: mark the next task `Running` under the engine lock,
//! release the lock — it is one thread, so a guard held across the
//! switch would deadlock the task resumed — and swap registers and stack
//! pointer with it (`switch.rs`). No kernel call, and nothing that
//! depends on how many tasks are suspended.
//!
//! # Polling in place
//!
//! A task waiting for something only events can change need not pay that
//! switch per look: [`TaskCtx::poll_until`] has the wake event itself run
//! the task's probe and re-arm on the poll grid while the answer is no,
//! so an idle poller costs events but no resumptions.

use crate::switch::{self, Coros};
use crate::time::{SimDuration, SimTime};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Identifier of a task (PE coroutine) registered with the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A deferred closure run by the engine at a virtual instant.
pub type Action = Box<dyn FnOnce(&mut Sched<'_>) + Send>;

struct EventEntry {
    at: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// What a blocked task is waiting for; rendered only by the two dumps.
#[derive(Clone, Copy)]
enum WaitReason {
    Advance(SimTime),
    Completion(u64),
}

impl fmt::Display for WaitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitReason::Advance(at) => write!(f, "advance until {at}"),
            WaitReason::Completion(threshold) => write!(f, "completion>={threshold}"),
        }
    }
}

#[derive(Clone, Copy)]
enum TaskState {
    /// In the run queue: woken (or not yet started), waiting for the baton.
    Ready,
    /// Holds the baton: the one task executing user code.
    Running,
    Blocked(WaitReason),
    Exited,
}

struct Task {
    state: TaskState,
    /// Left by the poll event that ended a [`TaskCtx::poll_until`]: the
    /// interval the task's next poll would use.
    next_poll: SimDuration,
}

/// Probe of a [`TaskCtx::poll_until`] wait, run in event context.
pub type Probe = Box<dyn FnMut(SimTime) -> bool + Send>;

/// Aggregate engine counters, readable after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Total events executed since engine creation.
    pub events_executed: u64,
    /// High-water mark of the pending-event heap.
    pub max_heap_len: usize,
    /// Number of task wake-ups delivered: resumptions of a blocked task.
    /// A poll answered in place by a [`TaskCtx::poll_until`] probe is an
    /// event, not a wake-up.
    pub wakeups: u64,
    /// Number of `signal` calls on completions.
    pub completions_signalled: u64,
    /// Events a *blocked* task had to drive itself because no task was
    /// runnable — each one is a stall where virtual time could only
    /// advance through the event heap.
    pub time_advance_stalls: u64,
}

struct Core {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<EventEntry>,
    /// Tasks woken and not yet resumed, in wake order. Events are driven
    /// only while this is empty and the baton holder has blocked or exited.
    runq: VecDeque<TaskId>,
    /// Tasks spawned and not yet exited.
    live: usize,
    tasks: Vec<Task>,
    stats: EngineStats,
    /// Set when a task panicked (user code, event action or deadlock) so
    /// its suspended siblings unwind when `Sim::run` resumes them.
    poisoned: bool,
    /// Whether the events being driven count as `time_advance_stalls`:
    /// the driver is a blocked task, or a poll event re-armed in place
    /// (its poller is the blocked task that would be driving by now).
    stalled: bool,
}

const POISONED: &str = "simulation poisoned by an earlier panic in another task";

impl Core {
    fn wake(&mut self, task: TaskId) {
        match self.tasks[task.0].state {
            TaskState::Blocked(_) => {
                self.tasks[task.0].state = TaskState::Ready;
                self.runq.push_back(task);
                self.stats.wakeups += 1;
            }
            TaskState::Ready | TaskState::Running => {}
            TaskState::Exited => panic!("woke dead {task}"),
        }
    }

    /// Called by a task on entering the engine and on being resumed: out
    /// of a poisoned engine the only way is to unwind.
    fn check_poison(&self) {
        if self.poisoned {
            panic!("{POISONED}");
        }
    }

    fn push_blocked(&self, s: &mut String) {
        for (i, t) in self.tasks.iter().enumerate() {
            if let TaskState::Blocked(why) = t.state {
                s.push_str(&format!("  task{i}: waiting on {why}\n"));
            }
        }
    }

    fn deadlock_dump(&self) -> String {
        let mut s = String::from("virtual-time deadlock: no runnable task and no pending event\n");
        self.push_blocked(&mut s);
        s
    }
}

/// Handle to a simulation. Cheap to clone; all clones share one clock.
#[derive(Clone)]
pub struct Sim {
    core: Arc<Mutex<Core>>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Scheduling context handed to event callbacks and to
/// [`Sim::with_sched`] closures. Everything that mutates engine state or
/// signals completions goes through this type, which guarantees the engine
/// lock is held.
pub struct Sched<'a> {
    core: &'a mut Core,
}

impl<'a> Sched<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Schedule `action` to run at absolute time `at` (>= now).
    pub fn schedule_at(&mut self, at: SimTime, action: Action) {
        debug_assert!(at >= self.core.now, "scheduling into the past");
        let seq = self.core.seq;
        self.core.seq += 1;
        self.core.events.push(EventEntry { at, seq, action });
        let len = self.core.events.len();
        if len > self.core.stats.max_heap_len {
            self.core.stats.max_heap_len = len;
        }
    }

    /// Schedule `action` to run after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, action: Action) {
        let at = self.core.now + delay;
        self.schedule_at(at, action);
    }

    /// Mark a blocked task runnable again.
    pub fn wake(&mut self, task: TaskId) {
        self.core.wake(task);
    }

    /// Add `n` to a completion counter, waking satisfied waiters and
    /// scheduling any attached continuation actions (they run at the
    /// current instant, after already-queued same-instant events).
    pub fn signal(&mut self, c: &Completion, n: u64) {
        self.core.stats.completions_signalled += 1;
        let now = self.core.now;
        let fired = {
            let mut st = c.inner.lock();
            st.count += n;
            if st.first_at.is_none() {
                st.first_at = Some(now);
            }
            let count = st.count;
            let mut fired = Vec::new();
            let mut kept = Vec::new();
            for wt in st.waiters.drain(..) {
                if wt.threshold <= count {
                    fired.push(wt.kind);
                } else {
                    kept.push(wt);
                }
            }
            st.waiters = kept;
            fired
        };
        for k in fired {
            match k {
                WaiterKind::Task(t) => self.core.wake(t),
                WaiterKind::Action(a) => self.schedule_in(SimDuration::ZERO, a),
            }
        }
    }

    /// Run `action` once `c` reaches `threshold` (immediately if already
    /// there). The continuation fires at the instant the threshold is
    /// crossed — the idiom for chaining pipeline stages.
    pub fn call_on(&mut self, c: &Completion, threshold: u64, action: Action) {
        {
            let mut st = c.inner.lock();
            if st.count < threshold {
                st.waiters.push(CompWaiter {
                    threshold,
                    kind: WaiterKind::Action(action),
                });
                return;
            }
        }
        self.schedule_in(SimDuration::ZERO, action);
    }
}

/// The wake event of a [`TaskCtx::poll_until`]: resume `task` if `ready`
/// holds now, else stand in for the task's no-op iteration — re-arm
/// `next` later and keep its wait reason naming the new instant.
fn poll_event(task: TaskId, next: SimDuration, cap: SimDuration, mut ready: Probe) -> Action {
    Box::new(move |s| {
        if ready(s.now()) {
            s.core.tasks[task.0].next_poll = next;
            s.wake(task);
        } else {
            let at = s.now() + next;
            s.core.tasks[task.0].state = TaskState::Blocked(WaitReason::Advance(at));
            // from here on the old loop's poller would be the driver
            s.core.stalled = true;
            s.schedule_at(at, poll_event(task, (next * 2).min(cap), cap, ready));
        }
    })
}

/// Per-task handle passed to the task body by [`Sim::run`].
pub struct TaskCtx {
    sim: Sim,
    id: TaskId,
    rank: usize,
    /// The coroutines of this task's `Sim::run`, indexed by rank.
    coros: Rc<Coros>,
}

impl TaskCtx {
    /// This task's engine-global id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// This task's rank within its `Sim::run` group (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The owning simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Spend `d` of virtual time (models computation or fixed overhead).
    pub fn advance(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        let me = self.id;
        let mut guard = self.sim.core.lock();
        let at = guard.now + d;
        // go through the canonical scheduler so stats and the
        // monotonicity check apply to task wake-ups too
        Sched { core: &mut guard }.schedule_at(at, Box::new(move |s| s.wake(me)));
        self.block(guard, WaitReason::Advance(at));
    }

    /// Poll `ready` on the grid the loop
    /// `loop { advance(i); i = min(2 * i, cap); if ready(now) { break } }`
    /// visits, without resuming the task at the instants where it is
    /// false; returns the loop's final `i`. The first wake event is the
    /// one `advance(interval)` schedules; it runs `ready(now)` *in event
    /// context*, on whichever task's stack is driving the heap, and while the
    /// answer is no it re-arms itself for the next grid instant instead
    /// of waking the task. Since events are only driven while no task is
    /// runnable, that `schedule_at` draws the very `seq` the resumed
    /// task's own `advance` would have: every event, timestamp and
    /// counter but [`EngineStats::wakeups`] equals the loop's.
    ///
    /// `ready` must be side-effect free and runs with the engine lock
    /// held: it may not call into the engine (`now` is handed to it).
    pub fn poll_until(&self, interval: SimDuration, cap: SimDuration, ready: Probe) -> SimDuration {
        assert!(!interval.is_zero(), "poll_until needs a non-zero interval");
        let me = self.id;
        let mut guard = self.sim.core.lock();
        let at = guard.now + interval;
        let first = poll_event(me, (interval * 2).min(cap), cap, ready);
        Sched { core: &mut guard }.schedule_at(at, first);
        self.block(guard, WaitReason::Advance(at));
        self.sim.core.lock().tasks[me.0].next_poll
    }

    /// Block until `c`'s counter reaches at least `threshold`.
    pub fn wait_threshold(&self, c: &Completion, threshold: u64) {
        let me = self.id;
        let guard = self.sim.core.lock();
        {
            let mut st = c.inner.lock();
            if st.count >= threshold {
                return;
            }
            st.waiters.push(CompWaiter {
                threshold,
                kind: WaiterKind::Task(me),
            });
        }
        self.block(guard, WaitReason::Completion(threshold));
    }

    /// Block until `c` has been signalled at least once.
    pub fn wait(&self, c: &Completion) {
        self.wait_threshold(c, 1);
    }

    /// Block until `c` reaches `threshold` or virtual time advances by
    /// `timeout`, whichever comes first — the engine-level quiesce
    /// watchdog. Returns `Ok(())` if the threshold was reached and
    /// `Err(dump)` with a [`Sim::blocked_dump`] diagnostic if the
    /// deadline fired first. A zero `timeout` degrades to a plain
    /// [`TaskCtx::wait_threshold`], keeping unwatched runs' event order
    /// byte-identical.
    ///
    /// The deadline is a real scheduled event, so a completion that
    /// never arrives (a lost CQE with retries disabled) keeps the event
    /// heap non-empty: the engine reaches the deadline and hands back a
    /// typed failure instead of tripping the virtual-time deadlock
    /// panic. On timeout the threshold waiter attached to `c` stays
    /// registered and fires harmlessly if the completion lands later.
    pub fn wait_threshold_deadline(
        &self,
        c: &Completion,
        threshold: u64,
        timeout: SimDuration,
    ) -> Result<(), String> {
        if timeout.is_zero() {
            self.wait_threshold(c, threshold);
            return Ok(());
        }
        let fired = Completion::new();
        self.with_sched(|s| {
            let f1 = fired.clone();
            s.call_on(c, threshold, Box::new(move |s| s.signal(&f1, 1)));
            let f2 = fired.clone();
            s.schedule_in(timeout, Box::new(move |s| s.signal(&f2, 1)));
        });
        self.wait_threshold(&fired, 1);
        if c.is_done(threshold) {
            Ok(())
        } else {
            Err(self.sim.blocked_dump())
        }
    }

    /// Run a closure with the scheduler (engine lock held): the doorway for
    /// hardware models invoked from PE context.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        self.sim.with_sched(f)
    }

    /// Block the calling task until it is woken. Must be entered with the
    /// engine lock held and the task registered as a waiter somewhere.
    fn block(&self, mut guard: MutexGuard<'_, Core>, why: WaitReason) {
        let me = self.id;
        guard.check_poison();
        guard.tasks[me.0].state = TaskState::Blocked(why);
        let next = Sim::next_task(&mut guard, true);
        // the common `advance` case: the caller drove the event that woke it
        if next != me {
            // every task runs on this one thread: whoever is resumed
            // takes the engine lock next
            drop(guard);
            let rank_of_next = next.0 - (me.0 - self.rank);
            self.coros.switch_to(rank_of_next);
            // resumed by a hand-off, or by `Sim::run` to unwind
            self.sim.core.lock().check_poison();
        }
    }
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            core: Arc::new(Mutex::new(Core {
                now: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
                runq: VecDeque::new(),
                live: 0,
                tasks: Vec::new(),
                stats: EngineStats::default(),
                poisoned: false,
                stalled: false,
            })),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Engine counters so far.
    pub fn stats(&self) -> EngineStats {
        self.core.lock().stats
    }

    /// Diagnostic snapshot of every blocked task's wait reason plus the
    /// pending-event count — what a quiesce-watchdog timeout reports so
    /// a stuck wait names its suspects instead of just timing out.
    pub fn blocked_dump(&self) -> String {
        let guard = self.core.lock();
        let mut s = format!(
            "blocked tasks at t={} ({} events pending):\n",
            guard.now,
            guard.events.len()
        );
        guard.push_blocked(&mut s);
        s
    }

    /// Run a closure with the scheduler (engine lock held). Tasks it
    /// wakes run when the baton holder next blocks or exits.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        f(&mut Sched { core: &mut self.core.lock() })
    }

    // (helper) run one popped event with the engine lock held.
    fn exec_event(core: &mut Core, ev: EventEntry) {
        debug_assert!(ev.at >= core.now);
        core.now = ev.at;
        core.stats.events_executed += 1;
        let r = catch_unwind(AssertUnwindSafe(|| (ev.action)(&mut Sched { core })));
        if let Err(payload) = r {
            core.poisoned = true;
            resume_unwind(payload);
        }
    }

    /// Run `n` tasks executing `f(ctx)` as coroutines on the calling
    /// thread and return when all have finished, then drain any remaining
    /// events (letting in-flight hardware settle). Returns each task's
    /// result, indexed by rank.
    ///
    /// Virtual time persists across consecutive `run` calls.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TaskCtx) -> T + Send + Sync,
    {
        assert!(n > 0, "need at least one task");
        let (base, first) = {
            let mut core = self.core.lock();
            assert_eq!(core.live, 0, "nested/overlapping Sim::run is not supported");
            let base = core.tasks.len();
            for rank in 0..n {
                core.tasks.push(Task {
                    state: TaskState::Ready,
                    next_poll: SimDuration::ZERO,
                });
                core.runq.push_back(TaskId(base + rank));
            }
            core.live = n;
            (base, Self::next_task(&mut core, false))
        };
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let panics = RefCell::new(Vec::new());
        let bodies = out.iter_mut().enumerate().map(|(rank, slot)| {
            let (f, panics) = (&f, &panics);
            Box::new(move |coros: &Rc<Coros>| {
                let id = TaskId(base + rank);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // started by `switch::run`'s sweep, if poisoned
                    self.core.lock().check_poison();
                    let ctx = TaskCtx {
                        sim: self.clone(),
                        id,
                        rank,
                        coros: coros.clone(),
                    };
                    *slot = Some(f(ctx));
                }));
                let mut guard = self.core.lock();
                guard.tasks[id.0].state = TaskState::Exited;
                guard.live -= 1;
                let next = result.and_then(|()| {
                    if guard.live == 0 {
                        return Ok(None);
                    }
                    // If everyone left is blocked, keep the world turning before we go.
                    catch_unwind(AssertUnwindSafe(|| Self::next_task(&mut guard, false))).map(Some)
                });
                match next {
                    Ok(next) => next.map(|t| t.0 - base),
                    // A task that dies by panic (its own, an event
                    // action's, or the deadlock raised on its way out)
                    // poisons the engine and returns to `switch::run`,
                    // which resumes its unfinished siblings so that each
                    // unwinds in turn.
                    Err(payload) => {
                        guard.poisoned = true;
                        panics.borrow_mut().push(payload);
                        None
                    }
                }
            }) as switch::Body<'_>
        });
        switch::run(bodies.collect(), first.0 - base);
        let mut panics = panics.into_inner();
        if !panics.is_empty() {
            // Prefer the root-cause panic over the secondary
            // `POISONED` panics of its siblings.
            let is_poison = |p: &Box<dyn std::any::Any + Send>| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                msg.contains(POISONED)
            };
            let idx = panics.iter().position(|p| !is_poison(p)).unwrap_or(0);
            resume_unwind(panics.swap_remove(idx));
        }
        self.drain();
        out.into_iter().map(|o| o.expect("task result")).collect()
    }

    /// Execute every pending event (advancing time) until the heap is empty.
    pub fn drain(&self) {
        let mut guard = self.core.lock();
        assert_eq!(
            guard.live, 0,
            "drain() while tasks are live would execute events out from under them"
        );
        while let Some(ev) = guard.events.pop() {
            Self::exec_event(&mut guard, ev);
        }
    }

    /// Pop the next task to run and mark it `Running`, driving the event
    /// heap for as long as no task is runnable. `stalled` says the caller
    /// is a blocked task (not an exiting one), whose driven events count
    /// as `time_advance_stalls`.
    fn next_task(core: &mut Core, stalled: bool) -> TaskId {
        core.stalled = stalled;
        loop {
            if let Some(t) = core.runq.pop_front() {
                core.tasks[t.0].state = TaskState::Running;
                return t;
            }
            let Some(ev) = core.events.pop() else {
                core.poisoned = true;
                panic!("{}", core.deadlock_dump())
            };
            core.stats.time_advance_stalls += core.stalled as u64;
            Self::exec_event(core, ev);
        }
    }
}

enum WaiterKind {
    Task(TaskId),
    Action(Action),
}

struct CompWaiter {
    threshold: u64,
    kind: WaiterKind,
}

struct CompState {
    count: u64,
    waiters: Vec<CompWaiter>,
    /// Instant of the first signal (event-timestamping).
    first_at: Option<SimTime>,
}

/// A counting completion flag: hardware callbacks [`Sched::signal`] it,
/// tasks [`TaskCtx::wait_threshold`] on it. This is the moral equivalent
/// of a completion queue entry counter.
///
/// All mutation happens under the engine lock (enforced by the `Sched`
/// API), so there are no lost wake-ups.
#[derive(Clone)]
pub struct Completion {
    inner: Arc<Mutex<CompState>>,
}

impl Default for Completion {
    fn default() -> Self {
        Self::new()
    }
}

impl Completion {
    pub fn new() -> Completion {
        Completion {
            inner: Arc::new(Mutex::new(CompState {
                count: 0,
                waiters: Vec::new(),
                first_at: None,
            })),
        }
    }

    /// Racy read of the counter (fine for asserts and polling).
    pub fn peek(&self) -> u64 {
        self.inner.lock().count
    }

    /// True once the counter reached `threshold`.
    pub fn is_done(&self, threshold: u64) -> bool {
        self.peek() >= threshold
    }

    /// Virtual instant of the first signal, if any (event timestamps).
    pub fn time(&self) -> Option<SimTime> {
        self.inner.lock().first_at
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Completion({})", self.peek())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AO};

    #[test]
    fn one_task_runs_at_a_time() {
        // A ring of 64 tasks stepping through advance / signal / wait.
        // `inside` counts tasks between two blocking engine calls, i.e.
        // executing user code: the baton admits one.
        const N: usize = 64;
        const STEPS: u64 = 200;
        let sim = Sim::new();
        let comps: Vec<Completion> = (0..N).map(|_| Completion::new()).collect();
        let inside = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let enter = || most.fetch_max(inside.fetch_add(1, AO::SeqCst) + 1, AO::SeqCst);
        let leave = || inside.fetch_sub(1, AO::SeqCst);
        sim.run(N, |ctx| {
            let me = ctx.rank();
            enter();
            for step in 1..=STEPS {
                leave();
                ctx.advance(SimDuration::from_us(me as u64 % 7 + 1));
                enter();
                ctx.with_sched(|s| s.signal(&comps[(me + 1) % N], 1));
                leave();
                ctx.wait_threshold(&comps[me], step);
                enter();
            }
            leave();
        });
        assert_eq!(most.load(AO::SeqCst), 1);
        assert_eq!(inside.load(AO::SeqCst), 0);
    }

    #[test]
    fn same_instant_wakes_resume_in_wake_order() {
        const N: usize = 16;
        let run_once = || {
            let sim = Sim::new();
            let log = Mutex::new(Vec::new());
            let gate = Completion::new();
            sim.run(N, |ctx| {
                let me = ctx.rank();
                // resume in reverse rank order, one microsecond apart...
                ctx.advance(SimDuration::from_us((N - me) as u64));
                // ...then all advance to one instant: N wake events at
                // t = 2N us whose seq follows the order of these calls
                ctx.advance(SimDuration::from_us((N + me) as u64));
                log.lock().push(me);
                // waiter-registration order inside one event: everyone
                // but the last to arrive waits on `gate`, which one
                // signal then satisfies for all of them at once
                if me == 0 {
                    ctx.with_sched(|s| s.signal(&gate, 1));
                } else {
                    ctx.wait(&gate);
                }
                log.lock().push(N + me);
            });
            log.into_inner()
        };
        let first = run_once();
        let by_seq = (0..N).rev();
        // task 0 resumes last and signals; it runs on (it still holds the
        // baton), then the waiters in the order they registered
        let by_registration = std::iter::once(N).chain((1..N).rev().map(|me| N + me));
        assert_eq!(first, by_seq.chain(by_registration).collect::<Vec<_>>());
        for _ in 1..50 {
            assert_eq!(run_once(), first);
        }
    }

    #[test]
    fn tasks_start_in_rank_order() {
        let sim = Sim::new();
        let log = Mutex::new(Vec::new());
        sim.run(32, |ctx| log.lock().push(ctx.rank()));
        assert_eq!(log.into_inner(), (0..32).collect::<Vec<_>>());
        // the initial hand-offs are not wake-ups
        assert_eq!(sim.stats().wakeups, 0);
    }

    #[test]
    fn task_woken_before_it_first_runs_starts_once_in_wake_order() {
        // Rank r blocks at once and so switches to rank r + 1, which has
        // never run: a first run reached from a sibling, not from
        // `Sim::run`. Rank 0 also wakes ranks 3 and 1 while they still
        // queue for that first run; waking a `Ready` task queues nothing,
        // so each starts once, in the order `Sim::run` queued them.
        for _ in 0..200 {
            let sim = Sim::new();
            let log = Mutex::new(Vec::new());
            let out = sim.run(16, |ctx| {
                log.lock().push(ctx.rank());
                if ctx.rank() == 0 {
                    let base = ctx.id().0;
                    ctx.with_sched(|s| {
                        s.wake(TaskId(base + 3));
                        s.wake(TaskId(base + 1));
                    });
                }
                ctx.advance(SimDuration::from_us(1));
                log.lock().push(16 + ctx.rank());
                ctx.rank()
            });
            assert_eq!(out, (0..16).collect::<Vec<_>>());
            assert_eq!(log.into_inner(), (0..32).collect::<Vec<_>>());
            assert_eq!(sim.stats().wakeups, 16);
        }
    }

    #[test]
    fn ring_of_1024_tasks_hands_off() {
        // The engine's scale above the runtime's PE cap: a task costs a
        // lazily committed stack, not a thread. A token goes round the
        // ring; every pass is a switch to a task suspended a lap ago.
        const N: usize = 1024;
        const LAPS: u64 = 3;
        let sim = Sim::new();
        let comps: Vec<Completion> = (0..N).map(|_| Completion::new()).collect();
        let log = Mutex::new(Vec::new());
        sim.run(N, |ctx| {
            let me = ctx.rank();
            for lap in 1..=LAPS {
                if me != 0 {
                    ctx.wait_threshold(&comps[me], lap);
                }
                log.lock().push(me);
                ctx.advance(SimDuration::from_ns(10));
                ctx.with_sched(|s| s.signal(&comps[(me + 1) % N], 1));
                if me == 0 {
                    ctx.wait_threshold(&comps[0], lap);
                }
            }
        });
        let laps = (0..LAPS).flat_map(|_| 0..N).collect::<Vec<_>>();
        assert_eq!(log.into_inner(), laps);
        let end = SimTime::ZERO + SimDuration::from_ns(10 * N as u64 * LAPS);
        assert_eq!(sim.now(), end);
    }

    #[test]
    fn nested_run_on_another_sim_inside_a_task() {
        // The inner run's caller context is a coroutine of the outer one;
        // its tasks get stacks of their own and their own clock.
        let outer = Sim::new();
        let out = outer.run(3, |ctx| {
            ctx.advance(SimDuration::from_us(ctx.rank() as u64 + 1));
            let inner = Sim::new();
            let ends = inner.run(2, |ictx| {
                ictx.advance(SimDuration::from_us(5 * (ictx.rank() as u64 + 1)));
                ictx.now()
            });
            ctx.advance(SimDuration::from_us(1));
            (ctx.now().as_us_f64(), ends[1].as_us_f64())
        });
        assert_eq!(out, vec![(2.0, 10.0), (3.0, 10.0), (4.0, 10.0)]);
    }

    #[test]
    fn advance_moves_clock() {
        let sim = Sim::new();
        let end = sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(5));
            ctx.advance(SimDuration::from_us(7));
            ctx.now()
        });
        assert_eq!(end[0].as_us_f64(), 12.0);
    }

    #[test]
    fn two_tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        sim.run(2, move |ctx| {
            let me = ctx.id().0;
            // task0 steps 10us, task1 steps 4us: pure time interleaving.
            let step = if me == 0 { 10 } else { 4 };
            for i in 0..3 {
                ctx.advance(SimDuration::from_us(step));
                l2.lock().push((ctx.now().as_us_f64() as u64, me, i));
            }
        });
        let mut v = log.lock().clone();
        let sorted = {
            let mut s = v.clone();
            s.sort();
            s
        };
        v.sort();
        assert_eq!(v, sorted);
        // task1 wakes at 4, 8, 12; task0 at 10, 20, 30.
        let times: Vec<u64> = v.iter().map(|e| e.0).collect();
        assert_eq!(times, vec![4, 8, 10, 12, 20, 30]);
    }

    #[test]
    fn completion_wakes_waiter() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                // waiter
                ctx.wait(&c2);
                ctx.now().as_us_f64() as u64
            } else {
                ctx.advance(SimDuration::from_us(9));
                ctx.with_sched(|s| s.signal(&c2, 1));
                0
            }
        });
        assert_eq!(out[0], 9);
    }

    #[test]
    fn deadline_wait_times_out_on_lost_completion() {
        // a completion that is never signalled: without the deadline
        // this would be the virtual-time deadlock panic; with it the
        // task gets a typed Err carrying the blocked-task dump
        let sim = Sim::new();
        let c = Completion::new();
        let out = sim.run(1, move |ctx| {
            let r = ctx.wait_threshold_deadline(&c, 1, SimDuration::from_us(50));
            (r, ctx.now().as_us_f64() as u64)
        });
        let (r, t) = out[0].clone();
        assert_eq!(t, 50, "deadline must advance the clock to exactly timeout");
        let dump = r.expect_err("lost completion must time out");
        assert!(dump.contains("events pending"), "dump was {dump:?}");
    }

    #[test]
    fn deadline_wait_succeeds_before_timeout() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                let r = ctx.wait_threshold_deadline(&c2, 2, SimDuration::from_us(100));
                assert!(r.is_ok());
                ctx.now().as_us_f64() as u64
            } else {
                for _ in 0..2 {
                    ctx.advance(SimDuration::from_us(3));
                    ctx.with_sched(|s| s.signal(&c2, 1));
                }
                0
            }
        });
        assert_eq!(out[0], 6, "waiter must resume at signal time, not deadline");
    }

    #[test]
    fn deadline_wait_zero_timeout_is_plain_wait() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                ctx.wait_threshold_deadline(&c2, 1, SimDuration::ZERO).unwrap();
                ctx.now().as_us_f64() as u64
            } else {
                ctx.advance(SimDuration::from_us(4));
                ctx.with_sched(|s| s.signal(&c2, 1));
                0
            }
        });
        assert_eq!(out[0], 4);
    }

    #[test]
    fn threshold_wait_counts() {
        let sim = Sim::new();
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                ctx.wait_threshold(&c2, 3);
                ctx.now().as_us_f64() as u64
            } else {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_us(2));
                    ctx.with_sched(|s| s.signal(&c2, 1));
                }
                0
            }
        });
        assert_eq!(out[0], 6);
        assert!(c.is_done(3));
    }

    #[test]
    fn wait_on_already_satisfied_completion_returns_immediately() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.with_sched(|s| s.signal(&c, 5));
        let t = sim.run(1, |ctx| {
            ctx.wait_threshold(&c, 5);
            ctx.now()
        });
        assert_eq!(t[0], SimTime::ZERO);
    }

    #[test]
    fn event_chains_execute_in_order() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let c = Completion::new();
        let c2 = c.clone();
        sim.run(1, move |ctx| {
            let h = h.clone();
            let c = c2.clone();
            ctx.with_sched(move |s| {
                // chain: a -> b -> signal
                s.schedule_in(
                    SimDuration::from_us(1),
                    Box::new(move |s| {
                        h.fetch_add(1, AO::SeqCst);
                        let h2 = h.clone();
                        let c2 = c.clone();
                        s.schedule_in(
                            SimDuration::from_us(1),
                            Box::new(move |s| {
                                h2.fetch_add(1, AO::SeqCst);
                                s.signal(&c2, 1);
                            }),
                        );
                    }),
                );
            });
            ctx.wait(&c2);
            assert_eq!(ctx.now().as_us_f64(), 2.0);
        });
        assert_eq!(hits.load(AO::SeqCst), 2);
    }

    #[test]
    fn same_instant_events_fifo_by_seq() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10u32 {
            let o = order.clone();
            sim.with_sched(|s| {
                s.schedule_in(
                    SimDuration::from_us(1),
                    Box::new(move |_| o.lock().push(i)),
                )
            });
        }
        sim.drain();
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.run(1, move |ctx| {
            ctx.wait(&c); // nobody will ever signal
        });
    }

    #[test]
    fn time_persists_across_runs() {
        let sim = Sim::new();
        sim.run(1, |ctx| ctx.advance(SimDuration::from_us(3)));
        let t = sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(4));
            ctx.now()
        });
        assert_eq!(t[0].as_us_f64(), 7.0);
    }

    #[test]
    fn run_returns_results_by_rank() {
        let sim = Sim::new();
        let out = sim.run(8, |ctx| ctx.id().0 * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn stats_count_events() {
        let sim = Sim::new();
        sim.run(1, |ctx| {
            ctx.advance(SimDuration::from_us(1));
            ctx.advance(SimDuration::from_us(1));
        });
        assert!(sim.stats().events_executed >= 2);
    }

    #[test]
    fn many_tasks_barrier_style_sync() {
        // All tasks advance different amounts then signal a shared counter;
        // one task waits for all. Stress the wake bookkeeping.
        let sim = Sim::new();
        let n = 16;
        let c = Completion::new();
        let c2 = c.clone();
        let out = sim.run(n, move |ctx| {
            let me = ctx.id().0 as u64;
            ctx.advance(SimDuration::from_us(me + 1));
            ctx.with_sched(|s| s.signal(&c2, 1));
            ctx.wait_threshold(&c2, n as u64);
            ctx.now().as_us_f64() as u64
        });
        // Everyone resumes when the slowest (16us) signals.
        assert!(out.iter().all(|&t| t == n as u64));
    }
}

#[cfg(test)]
mod continuation_tests {
    use super::*;
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering as AO};
    use std::sync::Arc;

    #[test]
    fn call_on_fires_when_threshold_crossed() {
        let sim = Sim::new();
        let c = Completion::new();
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        let c2 = c.clone();
        sim.with_sched(move |s| {
            let h2 = h.clone();
            s.call_on(&c2, 3, Box::new(move |_| {
                h2.store(1, AO::SeqCst);
            }));
        });
        sim.with_sched(|s| s.signal(&c, 2));
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 0, "fired below threshold");
        sim.with_sched(|s| s.signal(&c, 1));
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 1);
    }

    #[test]
    fn call_on_already_satisfied_fires_immediately() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.with_sched(|s| s.signal(&c, 5));
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        sim.with_sched(move |s| {
            s.call_on(&c, 2, Box::new(move |_| {
                h.store(7, AO::SeqCst);
            }));
        });
        sim.drain();
        assert_eq!(hit.load(AO::SeqCst), 7);
    }

    #[test]
    fn chained_continuations_model_a_pipeline() {
        // c1 -> schedule work -> signal c2 -> continuation on c2
        let sim = Sim::new();
        let c1 = Completion::new();
        let c2 = Completion::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let c1b = c1.clone();
        let c2b = c2.clone();
        let c2d = c2.clone();
        sim.with_sched(move |s| {
            s.call_on(&c1b, 1, Box::new(move |s| {
                o1.lock().push("stage1");
                let c2c = c2b.clone();
                s.schedule_in(SimDuration::from_us(3), Box::new(move |s| s.signal(&c2c, 1)));
            }));
            s.call_on(&c2d, 1, Box::new(move |_| {
                o2.lock().push("stage2");
            }));
        });
        sim.with_sched(|s| s.signal(&c1, 1));
        sim.drain();
        assert_eq!(*order.lock(), vec!["stage1", "stage2"]);
        assert_eq!(sim.now().as_us_f64(), 3.0);
    }

    #[test]
    fn mixed_task_and_action_waiters_both_fire() {
        let sim = Sim::new();
        let c = Completion::new();
        let act = Arc::new(AtomicU64::new(0));
        let a2 = act.clone();
        let c2 = c.clone();
        let c3 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                let a3 = a2.clone();
                ctx.with_sched(|s| {
                    s.call_on(&c2, 1, Box::new(move |_| {
                        a3.store(1, AO::SeqCst);
                    }));
                });
                ctx.wait(&c2); // also wait as a task
                ctx.now().as_us_f64()
            } else {
                ctx.advance(SimDuration::from_us(4));
                ctx.with_sched(|s| s.signal(&c3, 1));
                0.0
            }
        });
        assert_eq!(out[0], 4.0);
        assert_eq!(act.load(AO::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "boom")] // the ROOT cause is re-raised
    fn sibling_panic_poisons_blocked_tasks() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                // block forever; must be unblocked by the poison
                ctx.wait(&c);
            } else {
                ctx.advance(SimDuration::from_us(1));
                panic!("boom");
            }
        });
    }
}

#[cfg(test)]
mod poll_tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering as AO};

    const FIRST: SimDuration = SimDuration(200 * crate::PS_PER_NS);
    const CAP: SimDuration = SimDuration(2_000 * crate::PS_PER_NS);

    fn at_ns(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    /// The loop `poll_until` replaces, kept as the reference: resume at
    /// every grid instant to look.
    fn reference_loop(
        ctx: &TaskCtx,
        mut i: SimDuration,
        cap: SimDuration,
        ready: impl Fn() -> bool,
    ) -> SimDuration {
        loop {
            ctx.advance(i);
            i = (i * 2).min(cap);
            if ready() {
                return i;
            }
        }
    }

    /// Everything one run of the scenario lets an observer see.
    #[derive(PartialEq, Debug)]
    struct Seen {
        resumed_at: SimTime,
        next_interval: SimDuration,
        /// Same-instant order of the waiter's resumption against the
        /// competing events and the other tasks' steps.
        log: Vec<(SimTime, &'static str)>,
        events: u64,
        stalls: u64,
        max_heap_len: usize,
        wakeups: u64,
    }

    /// Task 0 waits for `flag` on the grid 200, 600, 1400, 3000, 5000,
    /// 7000 ns; the flag is set by an event at 5000 ns that is scheduled
    /// either before the wait starts (lower `seq` than the 5000 ns poll,
    /// which therefore sees it) or by task 1 at 4000 ns (higher `seq`:
    /// the poll at 5000 ns runs first and misses it). Task 1 also plants
    /// a log-only event on either side of the 7000 ns poll; task 2 steps
    /// and exits early, so an *exiting* task drives part of the wait.
    fn scenario(in_place: bool, set_before_wait: bool) -> Seen {
        let sim = Sim::new();
        let flag = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let note = |s: &mut Sched<'_>, at: u64, what: &'static str, set: bool| {
            let (log, flag) = (log.clone(), flag.clone());
            s.schedule_at(
                at_ns(at),
                Box::new(move |s| {
                    log.lock().push((s.now(), what));
                    if set {
                        flag.store(true, AO::SeqCst);
                    }
                }),
            );
        };
        let out = sim.run(3, |ctx| match ctx.rank() {
            0 => {
                if set_before_wait {
                    ctx.with_sched(|s| note(s, 5_000, "set", true));
                }
                let next = if in_place {
                    let f = flag.clone();
                    ctx.poll_until(FIRST, CAP, Box::new(move |_| f.load(AO::SeqCst)))
                } else {
                    reference_loop(&ctx, FIRST, CAP, || flag.load(AO::SeqCst))
                };
                log.lock().push((ctx.now(), "resumed"));
                Some((ctx.now(), next))
            }
            1 => {
                ctx.advance(SimDuration::from_ns(4_000));
                ctx.with_sched(|s| {
                    if !set_before_wait {
                        note(s, 5_000, "set", true);
                    }
                    note(s, 7_000, "planted-at-4000", false);
                });
                ctx.advance(SimDuration::from_ns(2_000));
                ctx.with_sched(|s| note(s, 7_000, "planted-at-6000", false));
                None
            }
            _ => {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_ns(700));
                    log.lock().push((ctx.now(), "step"));
                }
                None
            }
        });
        let (resumed_at, next_interval) = out[0].expect("waiter result");
        let st = sim.stats();
        let log = log.lock().clone();
        Seen {
            resumed_at,
            next_interval,
            log,
            events: st.events_executed,
            stalls: st.time_advance_stalls,
            max_heap_len: st.max_heap_len,
            wakeups: st.wakeups,
        }
    }

    #[test]
    fn poll_until_matches_the_loop_it_replaces() {
        for set_before_wait in [true, false] {
            let reference = scenario(false, set_before_wait);
            let polled = scenario(true, set_before_wait);
            // the seq-identity proof: same resume instant (the 5000 ns
            // poll sees the flag only when the setter was scheduled
            // before it), same order at every shared instant
            let expect_ns = if set_before_wait { 5_000 } else { 7_000 };
            assert_eq!(reference.resumed_at, at_ns(expect_ns));
            if !set_before_wait {
                let at_7000 = reference.log.iter().filter(|e| e.0 == at_ns(7_000));
                let at_7000: Vec<_> = at_7000.map(|e| e.1).collect();
                assert_eq!(at_7000, ["planted-at-4000", "resumed", "planted-at-6000"]);
            }
            // task 1 advances twice, task 2 three times, the waiter once
            assert_eq!(polled.wakeups, 2 + 3 + 1);
            let visited = if set_before_wait { 5 } else { 6 };
            assert_eq!(reference.wakeups, 2 + 3 + visited);
            assert_eq!(Seen { wakeups: 0, ..polled }, Seen { wakeups: 0, ..reference });
        }
    }

    #[test]
    fn lone_poller_is_woken_once() {
        let sim = Sim::new();
        let flag = Arc::new(AtomicBool::new(false));
        let f = flag.clone();
        sim.with_sched(|s| {
            s.schedule_at(at_ns(20_000), Box::new(move |_| f.store(true, AO::SeqCst)))
        });
        let out = sim.run(1, |ctx| {
            let f = flag.clone();
            let next = ctx.poll_until(FIRST, FIRST, Box::new(move |_| f.load(AO::SeqCst)));
            (ctx.now(), next)
        });
        // a flat grid: cap == interval
        assert_eq!(out[0], (at_ns(20_000), FIRST));
        let st = sim.stats();
        assert_eq!(st.wakeups, 1);
        assert_eq!(st.events_executed, 100 + 1);
    }

    #[test]
    #[should_panic(expected = "probe exploded")] // not the siblings' POISONED
    fn panicking_probe_poisons_the_engine_and_is_the_root_cause() {
        let sim = Sim::new();
        let never = Completion::new();
        sim.run(3, |ctx| match ctx.rank() {
            0 => {
                ctx.poll_until(FIRST, CAP, Box::new(|now| {
                    assert!(now < at_ns(1_000), "probe exploded");
                    false
                }));
            }
            // suspended for good, and a task that drives the heap on exit
            1 => ctx.wait(&never),
            _ => ctx.advance(SimDuration::from_ns(300)),
        });
    }

    #[test]
    fn blocked_dump_mid_poll_names_the_next_grid_instant() {
        let sim = Sim::new();
        let flag = Arc::new(AtomicBool::new(false));
        let dump = sim.run(2, |ctx| {
            if ctx.rank() == 0 {
                let f = flag.clone();
                ctx.poll_until(FIRST, CAP, Box::new(move |_| f.load(AO::SeqCst)));
                assert_eq!(ctx.now(), at_ns(1_400));
                String::new()
            } else {
                // between the polls at 600 and 1400 ns
                ctx.advance(SimDuration::from_ns(1_000));
                let dump = ctx.sim().blocked_dump();
                flag.store(true, AO::SeqCst);
                dump
            }
        });
        assert!(
            dump[1].contains(&format!("task0: waiting on advance until {}\n", at_ns(1_400))),
            "dump was {:?}",
            dump[1]
        );
    }
}
