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
//! # One thread, one borrow
//!
//! A `Sim` belongs to the thread that created it (it is `!Send`). Its
//! state is a `RefCell` one engine call borrows at a time — a task's
//! `with_sched`, `advance` or wait, or the event being driven — so an
//! event action or probe that calls back into its `Sim` panics there
//! ("re-entrant engine access") instead of hanging. The clock is a
//! `Cell` outside that borrow: [`Sim::now`] works from any context.
//!
//! # The hand-off
//!
//! What one switch between tasks costs the host is confined to
//! `TaskCtx::block`: mark the next task `Running`, end the borrow, and
//! swap registers and stack pointer with it (`switch.rs`). No kernel
//! call, and nothing that depends on how many tasks are suspended.
//!
//! # Polling in place
//!
//! A task waiting for something only events can change need not pay that
//! switch per look: [`TaskCtx::poll_until`] has the wake event itself run
//! the task's probe and re-arm on the poll grid while the answer is no,
//! so an idle poller costs no resumptions. Nor does it cost a heap entry
//! per look while nothing can change the answer: until the heap's next
//! event runs, the answer can only change with time, and only from the
//! wait's *quiet instant* on (a timeout, say). So the poll event answers
//! every grid instant before that next event in place — asking the probe
//! only from the quiet instant on — and charges each the `seq`, event
//! and stall its heap entry would have, so that no later `seq`, timestamp
//! or counter moves. A probe therefore takes the time from its argument.

use crate::switch::{self, Coros};
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Identifier of a task (PE coroutine) registered with the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A deferred closure run by the engine at a virtual instant.
pub type Action = Box<dyn FnOnce(&mut Sched<'_>)>;

/// What an event does: a closure, or — inline, since most events are
/// these and each re-arms itself — the wake event of a
/// [`TaskCtx::poll_until`].
enum Event {
    Action(Action),
    /// Resume `task` if `probe` holds now, else stand in for the task's
    /// no-op iteration: re-arm `next` later (doubling up to `cap`) by
    /// moving the probe into the next entry, which allocates nothing,
    /// and keep the task's wait reason naming the new instant.
    Poll {
        task: TaskId,
        next: SimDuration,
        cap: SimDuration,
        probe: Probe,
    },
}

impl Event {
    /// An `Action` runs. A `Poll` whose probe is false answers in place
    /// every grid instant strictly before the heap's next event: the run
    /// queue is empty and no event runs before that head, so only time
    /// can change the answer, and only from the task's quiet instant on
    /// (before it the probe is not asked). Each such instant is charged
    /// what the re-armed entry it stands for cost — a `seq`, an executed
    /// event and a stall — so every later `seq`, timestamp and counter is
    /// the chain's. At the first instant at or past the head the entry
    /// goes back on the heap, drawing the `seq` the chain would have
    /// drawn there: at an equal instant the head, pushed earlier, runs
    /// first.
    fn run(self, s: &mut Sched<'_>) {
        let (task, mut next, cap, mut probe) = match self {
            Event::Action(action) => return action(s),
            Event::Poll { task, next, cap, probe } => (task, next, cap, probe),
        };
        let mut at = s.now();
        if !probe(at) {
            // from here on the old loop's poller would be the driver
            s.core.stalled = true;
            let quiet = s.core.tasks[task.0].quiet;
            let head = match s.core.events.peek() {
                Some(e) => e.at,
                None if quiet == SimTime::MAX => {
                    // only an event could change the answer, and none is left
                    let why = WaitReason::Advance(at + next);
                    s.core.tasks[task.0].state = TaskState::Blocked(why);
                    panic!("{}", s.core.deadlock_dump());
                }
                None => SimTime::MAX,
            };
            loop {
                at += next;
                next = (next * 2).min(cap);
                if at >= head {
                    let why = WaitReason::Advance(at);
                    s.core.tasks[task.0].state = TaskState::Blocked(why);
                    return s.push(at, Event::Poll { task, next, cap, probe });
                }
                s.core.skip_poll();
                if at >= quiet {
                    s.clock.set(at);
                    if probe(at) {
                        break;
                    }
                }
            }
        }
        s.core.tasks[task.0].next_poll = next;
        s.wake(task);
    }
}

/// A heap entry is 56 B and must not grow: a 72 B entry measured ~10 %
/// slower on bench_wall's `small_rma_mix`, so what a wait needs beyond
/// the grid lives in its `Task` slot.
const _: () = assert!(std::mem::size_of::<EventEntry>() == 56);

struct EventEntry {
    at: SimTime,
    seq: u64,
    event: Event,
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
    /// The quiet instant of the task's current [`TaskCtx::poll_until`].
    /// Kept here, not in the heap entry, which stays 56 B.
    quiet: SimTime,
}

/// Probe of a [`TaskCtx::poll_until`] wait, run in event context.
pub type Probe = Box<dyn FnMut(SimTime) -> bool>;

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
    /// Poll re-arms answered in place instead of through the heap.
    polls_elided: u64,
}

const POISONED: &str = "simulation poisoned by an earlier panic in another task";

/// The panic of an engine call made from an event action or poll probe,
/// which already hold the engine's borrow (only `Sim::now` is allowed).
const REENTRANT: &str = "re-entrant engine access: an event action or probe called into its Sim";

impl Core {
    /// Charge one poll answered in place what its heap entry would have
    /// cost: the `seq` it would have drawn, its slot on the heap, and its
    /// run as a stall.
    fn skip_poll(&mut self) {
        self.seq += 1;
        let len = self.events.len() + 1;
        self.stats.max_heap_len = self.stats.max_heap_len.max(len);
        self.stats.events_executed += 1;
        self.stats.time_advance_stalls += 1;
        self.polls_elided += 1;
    }

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

/// One simulation: the clock, readable from any context, and the core,
/// which one engine call at a time borrows.
struct World {
    now: Cell<SimTime>,
    core: RefCell<Core>,
}

/// Handle to a simulation. Cheap to clone; all clones share one clock.
#[derive(Clone)]
pub struct Sim {
    world: Rc<World>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// Scheduling context handed to event callbacks and to
/// [`Sim::with_sched`] closures. Everything that mutates engine state or
/// signals completions goes through this type, which holds the engine's
/// one borrow.
pub struct Sched<'a> {
    core: &'a mut Core,
    clock: &'a Cell<SimTime>,
}

impl<'a> Sched<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.get()
    }

    /// Schedule `action` to run at absolute time `at` (>= now).
    pub fn schedule_at(&mut self, at: SimTime, action: Action) {
        self.push(at, Event::Action(action));
    }

    /// Queue `event` at `at` (>= now), drawing the next `seq`.
    fn push(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now(), "scheduling into the past");
        let seq = self.core.seq;
        self.core.seq += 1;
        self.core.events.push(EventEntry { at, seq, event });
        let len = self.core.events.len();
        if len > self.core.stats.max_heap_len {
            self.core.stats.max_heap_len = len;
        }
    }

    /// Schedule `action` to run after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, action: Action) {
        self.schedule_at(self.now() + delay, action);
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
        let now = self.now();
        let fired = {
            let mut st = c.inner.borrow_mut();
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
            let mut st = c.inner.borrow_mut();
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
        let wake = Event::Action(Box::new(move |s| s.wake(me)));
        self.block_until(self.now() + d, wake);
    }

    /// Poll `ready` on the grid the loop
    /// `loop { advance(i); i = min(2 * i, cap); if ready(now) { break } }`
    /// visits, without resuming the task at the instants where it is
    /// false; returns the loop's final `i`. The first wake event is the
    /// one `advance(interval)` schedules; it runs `ready(now)` *in event
    /// context*, on whichever task's stack is driving the heap. While the
    /// answer is no it answers the grid instants before the heap's next
    /// event in place, then re-arms itself for the first one after,
    /// instead of waking the task. Since events are only driven while no
    /// task is runnable, that `schedule_at` draws the very `seq` the
    /// resumed task's own `advance` would have, and each instant answered
    /// in place is counted as the event the loop ran there: every event,
    /// timestamp and counter but [`EngineStats::wakeups`] equals the
    /// loop's. [`Sim::polls_elided`] counts the instants answered in place.
    ///
    /// `quiet` is the first instant at which time alone can turn `ready`
    /// true — a deadline; [`SimTime::ZERO`] if the answer depends on time
    /// throughout, [`SimTime::MAX`] if only events can change it. Before
    /// it an instant answered in place does not ask `ready`. A wait whose
    /// `quiet` is `MAX` with no event left to run is a virtual-time
    /// deadlock, and panics as one.
    ///
    /// `ready` must be side-effect free and take the time from its
    /// argument, the instant it answers for (the clock reads the same).
    /// It runs inside the event that drives it, so of the engine it may
    /// only read the clock; any other engine call panics as re-entrant.
    pub fn poll_until(
        &self,
        interval: SimDuration,
        cap: SimDuration,
        quiet: SimTime,
        ready: Probe,
    ) -> SimDuration {
        assert!(!interval.is_zero(), "poll_until needs a non-zero interval");
        let me = self.id;
        self.sim.core().tasks[me.0].quiet = quiet;
        let first = Event::Poll {
            task: me,
            next: (interval * 2).min(cap),
            cap,
            probe: ready,
        };
        self.block_until(self.now() + interval, first);
        self.sim.core().tasks[me.0].next_poll
    }

    /// Block until `c`'s counter reaches at least `threshold`.
    pub fn wait_threshold(&self, c: &Completion, threshold: u64) {
        {
            let mut st = c.inner.borrow_mut();
            if st.count >= threshold {
                return;
            }
            st.waiters.push(CompWaiter {
                threshold,
                kind: WaiterKind::Task(self.id),
            });
        }
        self.block(self.sim.core(), WaitReason::Completion(threshold));
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

    /// Run a closure with the scheduler: the doorway for hardware models
    /// invoked from PE context.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        self.sim.with_sched(f)
    }

    /// Schedule `wake` at `at` and block until something wakes the task
    /// (`wake` itself, unless it re-arms).
    fn block_until(&self, at: SimTime, wake: Event) {
        // go through the canonical scheduler so stats and the
        // monotonicity check apply to task wake-ups too
        self.with_sched(|s| s.push(at, wake));
        self.block(self.sim.core(), WaitReason::Advance(at));
    }

    /// Block the calling task until it is woken. Must be entered holding
    /// the engine's borrow, with the task registered as a waiter somewhere.
    fn block(&self, mut core: RefMut<'_, Core>, why: WaitReason) {
        let me = self.id;
        core.check_poison();
        core.tasks[me.0].state = TaskState::Blocked(why);
        let next = self.sim.world.next_task(&mut core, true);
        // the common `advance` case: the caller drove the event that woke it
        if next != me {
            // whoever is resumed borrows the engine next
            drop(core);
            let rank_of_next = next.0 - (me.0 - self.rank);
            self.coros.switch_to(rank_of_next);
            // resumed by a hand-off, or by `Sim::run` to unwind
            self.sim.core().check_poison();
        }
    }
}

impl Sim {
    pub fn new() -> Sim {
        Sim {
            world: Rc::new(World {
                now: Cell::new(SimTime::ZERO),
                core: RefCell::new(Core {
                    seq: 0,
                    events: BinaryHeap::new(),
                    runq: VecDeque::new(),
                    live: 0,
                    tasks: Vec::new(),
                    stats: EngineStats::default(),
                    poisoned: false,
                    stalled: false,
                    polls_elided: 0,
                }),
            }),
        }
    }

    /// The engine's one borrow, taken by every engine call but `now`.
    /// Already taken means an event action or probe called back in.
    fn core(&self) -> RefMut<'_, Core> {
        self.world
            .core
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("{REENTRANT}"))
    }

    /// Current virtual time. Callable from any context.
    pub fn now(&self) -> SimTime {
        self.world.now.get()
    }

    /// Engine counters so far.
    pub fn stats(&self) -> EngineStats {
        self.core().stats
    }

    /// How many of the polls counted in [`EngineStats::events_executed`]
    /// were answered in place, without a heap entry of their own
    /// ([`TaskCtx::poll_until`]).
    pub fn polls_elided(&self) -> u64 {
        self.core().polls_elided
    }

    /// Diagnostic snapshot of every blocked task's wait reason plus the
    /// pending-event count — what a quiesce-watchdog timeout reports so
    /// a stuck wait names its suspects instead of just timing out.
    pub fn blocked_dump(&self) -> String {
        let core = self.core();
        let mut s = format!(
            "blocked tasks at t={} ({} events pending):\n",
            self.now(),
            core.events.len()
        );
        core.push_blocked(&mut s);
        s
    }

    /// Run a closure with the scheduler. Tasks it wakes run when the
    /// baton holder next blocks or exits.
    pub fn with_sched<R>(&self, f: impl FnOnce(&mut Sched<'_>) -> R) -> R {
        f(&mut Sched {
            core: &mut self.core(),
            clock: &self.world.now,
        })
    }

    /// Run `n` tasks executing `f(ctx)` as coroutines on the calling
    /// thread and return when all have finished, then drain any remaining
    /// events (letting in-flight hardware settle). Returns each task's
    /// result, indexed by rank.
    ///
    /// Virtual time persists across consecutive `run` calls.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        F: Fn(TaskCtx) -> T,
    {
        assert!(n > 0, "need at least one task");
        let (base, first) = {
            let mut core = self.core();
            assert_eq!(core.live, 0, "nested/overlapping Sim::run is not supported");
            let base = core.tasks.len();
            for rank in 0..n {
                core.tasks.push(Task {
                    state: TaskState::Ready,
                    next_poll: SimDuration::ZERO,
                    quiet: SimTime::MAX,
                });
                core.runq.push_back(TaskId(base + rank));
            }
            core.live = n;
            (base, self.world.next_task(&mut core, false))
        };
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let panics = RefCell::new(Vec::new());
        let bodies = out.iter_mut().enumerate().map(|(rank, slot)| {
            let (f, panics) = (&f, &panics);
            Box::new(move |coros: &Rc<Coros>| {
                let id = TaskId(base + rank);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // started by `switch::run`'s sweep, if poisoned
                    self.core().check_poison();
                    let ctx = TaskCtx {
                        sim: self.clone(),
                        id,
                        rank,
                        coros: coros.clone(),
                    };
                    *slot = Some(f(ctx));
                }));
                let mut core = self.core();
                core.tasks[id.0].state = TaskState::Exited;
                core.live -= 1;
                let next = result.and_then(|()| {
                    if core.live == 0 {
                        return Ok(None);
                    }
                    // If everyone left is blocked, keep the world turning before we go.
                    catch_unwind(AssertUnwindSafe(|| self.world.next_task(&mut core, false)))
                        .map(Some)
                });
                match next {
                    Ok(next) => next.map(|t| t.0 - base),
                    // A task that dies by panic (its own, an event
                    // action's, or the deadlock raised on its way out)
                    // poisons the engine and returns to `switch::run`,
                    // which resumes its unfinished siblings so that each
                    // unwinds in turn.
                    Err(payload) => {
                        core.poisoned = true;
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
        let mut core = self.core();
        assert_eq!(
            core.live, 0,
            "drain() while tasks are live would execute events out from under them"
        );
        while let Some(ev) = core.events.pop() {
            self.world.exec_event(&mut core, ev);
        }
    }
}

impl World {
    /// Run one popped event; `core` is this world's borrowed core.
    fn exec_event(&self, core: &mut Core, ev: EventEntry) {
        debug_assert!(ev.at >= self.now.get());
        self.now.set(ev.at);
        core.stats.events_executed += 1;
        let r = catch_unwind(AssertUnwindSafe(|| {
            ev.event.run(&mut Sched { core, clock: &self.now })
        }));
        if let Err(payload) = r {
            core.poisoned = true;
            resume_unwind(payload);
        }
    }

    /// Pop the next task to run and mark it `Running`, driving the event
    /// heap for as long as no task is runnable. `stalled` says the caller
    /// is a blocked task (not an exiting one), whose driven events count
    /// as `time_advance_stalls`.
    fn next_task(&self, core: &mut Core, stalled: bool) -> TaskId {
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
            self.exec_event(core, ev);
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
/// All mutation goes through the `Sched` API, so a signal and the wait
/// it satisfies are ordered by the engine: there are no lost wake-ups.
#[derive(Clone)]
pub struct Completion {
    inner: Rc<RefCell<CompState>>,
}

impl Default for Completion {
    fn default() -> Self {
        Self::new()
    }
}

impl Completion {
    pub fn new() -> Completion {
        Completion {
            inner: Rc::new(RefCell::new(CompState {
                count: 0,
                waiters: Vec::new(),
                first_at: None,
            })),
        }
    }

    /// The counter's current value.
    pub fn peek(&self) -> u64 {
        self.inner.borrow().count
    }

    /// True once the counter reached `threshold`.
    pub fn is_done(&self, threshold: u64) -> bool {
        self.peek() >= threshold
    }

    /// Virtual instant of the first signal, if any (event timestamps).
    pub fn time(&self) -> Option<SimTime> {
        self.inner.borrow().first_at
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

    #[test]
    fn one_task_runs_at_a_time() {
        // A ring of 64 tasks stepping through advance / signal / wait.
        // `inside` counts tasks between two blocking engine calls, i.e.
        // executing user code: the baton admits one.
        const N: usize = 64;
        const STEPS: u64 = 200;
        let sim = Sim::new();
        let comps: Vec<Completion> = (0..N).map(|_| Completion::new()).collect();
        let inside = Cell::new(0usize);
        let most = Cell::new(0usize);
        let enter = || {
            inside.set(inside.get() + 1);
            most.set(most.get().max(inside.get()));
        };
        let leave = || inside.set(inside.get() - 1);
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
        assert_eq!(most.get(), 1);
        assert_eq!(inside.get(), 0);
    }

    #[test]
    fn same_instant_wakes_resume_in_wake_order() {
        const N: usize = 16;
        let run_once = || {
            let sim = Sim::new();
            let log = RefCell::new(Vec::new());
            let gate = Completion::new();
            sim.run(N, |ctx| {
                let me = ctx.rank();
                // resume in reverse rank order, one microsecond apart...
                ctx.advance(SimDuration::from_us((N - me) as u64));
                // ...then all advance to one instant: N wake events at
                // t = 2N us whose seq follows the order of these calls
                ctx.advance(SimDuration::from_us((N + me) as u64));
                log.borrow_mut().push(me);
                // waiter-registration order inside one event: everyone
                // but the last to arrive waits on `gate`, which one
                // signal then satisfies for all of them at once
                if me == 0 {
                    ctx.with_sched(|s| s.signal(&gate, 1));
                } else {
                    ctx.wait(&gate);
                }
                log.borrow_mut().push(N + me);
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
        let log = RefCell::new(Vec::new());
        sim.run(32, |ctx| log.borrow_mut().push(ctx.rank()));
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
            let log = RefCell::new(Vec::new());
            let out = sim.run(16, |ctx| {
                log.borrow_mut().push(ctx.rank());
                if ctx.rank() == 0 {
                    let base = ctx.id().0;
                    ctx.with_sched(|s| {
                        s.wake(TaskId(base + 3));
                        s.wake(TaskId(base + 1));
                    });
                }
                ctx.advance(SimDuration::from_us(1));
                log.borrow_mut().push(16 + ctx.rank());
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
        let log = RefCell::new(Vec::new());
        sim.run(N, |ctx| {
            let me = ctx.rank();
            for lap in 1..=LAPS {
                if me != 0 {
                    ctx.wait_threshold(&comps[me], lap);
                }
                log.borrow_mut().push(me);
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
        // the thread keeps a capped number of the 1 024 stacks
        assert_eq!(switch::spares(), switch::SPARE_CAP);
    }

    /// Run `f` on a thread of its own: no spare stack, none mapped yet.
    fn on_a_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| s.spawn(f).join().expect("the test body"));
    }

    #[test]
    fn nested_run_on_another_sim_inside_a_task() {
        // The inner run's caller context is a coroutine of the outer one;
        // its tasks get stacks of their own and their own clock.
        on_a_fresh_thread(|| {
            let outer_stacks = RefCell::new(Vec::new());
            let inner_stacks = RefCell::new(Vec::new());
            let outer = Sim::new();
            let out = outer.run(3, |ctx| {
                outer_stacks.borrow_mut().push(ctx.coros.running_stack());
                ctx.advance(SimDuration::from_us(ctx.rank() as u64 + 1));
                let inner = Sim::new();
                let ends = inner.run(2, |ictx| {
                    inner_stacks.borrow_mut().push(ictx.coros.running_stack());
                    ictx.advance(SimDuration::from_us(5 * (ictx.rank() as u64 + 1)));
                    ictx.now()
                });
                ctx.advance(SimDuration::from_us(1));
                (ctx.now().as_us_f64(), ends[1].as_us_f64())
            });
            assert_eq!(out, vec![(2.0, 10.0), (3.0, 10.0), (4.0, 10.0)]);
            // no inner task ran on a stack of the outer run, all of which
            // were in use throughout; the inner runs, one after another,
            // passed two stacks along
            let outer_stacks = outer_stacks.into_inner();
            let inner_stacks = inner_stacks.into_inner();
            assert!(inner_stacks.iter().all(|s| !outer_stacks.contains(s)));
            assert_eq!(crate::stacks_mapped(), 3 + 2);
        });
    }

    #[test]
    fn consecutive_runs_reuse_their_stacks() {
        on_a_fresh_thread(|| {
            for _ in 0..2 {
                let out = Sim::new().run(2, |ctx| {
                    ctx.advance(SimDuration::from_us(ctx.rank() as u64 + 1));
                    ctx.now().as_us_f64()
                });
                assert_eq!(out, vec![1.0, 2.0]);
            }
            assert_eq!(crate::stacks_mapped(), 2);
            assert_eq!(switch::spares(), 2);
        });
    }

    #[test]
    fn a_poisoned_runs_stacks_come_back_and_carry_the_next_run() {
        on_a_fresh_thread(|| {
            let never = Completion::new();
            let failed = catch_unwind(AssertUnwindSafe(|| {
                Sim::new().run(2, |ctx| {
                    if ctx.rank() == 0 {
                        ctx.wait(&never);
                    } else {
                        ctx.advance(SimDuration::from_us(1));
                        panic!("boom");
                    }
                })
            }));
            assert!(failed.is_err());
            assert_eq!(switch::spares(), 2);
            let out = Sim::new().run(2, |ctx| {
                ctx.advance(SimDuration::from_us(3));
                ctx.now().as_us_f64()
            });
            assert_eq!(out, vec![3.0, 3.0]);
            assert_eq!(crate::stacks_mapped(), 2);
        });
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
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.run(2, move |ctx| {
            let me = ctx.id().0;
            // task0 steps 10us, task1 steps 4us: pure time interleaving.
            let step = if me == 0 { 10 } else { 4 };
            for i in 0..3 {
                ctx.advance(SimDuration::from_us(step));
                l2.borrow_mut().push((ctx.now().as_us_f64() as u64, me, i));
            }
        });
        let mut v = log.borrow().clone();
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
        let hits = Rc::new(Cell::new(0u64));
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
                        h.set(h.get() + 1);
                        let h2 = h.clone();
                        let c2 = c.clone();
                        s.schedule_in(
                            SimDuration::from_us(1),
                            Box::new(move |s| {
                                h2.set(h2.get() + 1);
                                s.signal(&c2, 1);
                            }),
                        );
                    }),
                );
            });
            ctx.wait(&c2);
            assert_eq!(ctx.now().as_us_f64(), 2.0);
        });
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn same_instant_events_fifo_by_seq() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let o = order.clone();
            sim.with_sched(|s| {
                s.schedule_in(
                    SimDuration::from_us(1),
                    Box::new(move |_| o.borrow_mut().push(i)),
                )
            });
        }
        sim.drain();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
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

    #[test]
    fn call_on_fires_when_threshold_crossed() {
        let sim = Sim::new();
        let c = Completion::new();
        let hit = Rc::new(Cell::new(0u64));
        let h = hit.clone();
        let c2 = c.clone();
        sim.with_sched(move |s| {
            let h2 = h.clone();
            s.call_on(&c2, 3, Box::new(move |_| {
                h2.set(1);
            }));
        });
        sim.with_sched(|s| s.signal(&c, 2));
        sim.drain();
        assert_eq!(hit.get(), 0, "fired below threshold");
        sim.with_sched(|s| s.signal(&c, 1));
        sim.drain();
        assert_eq!(hit.get(), 1);
    }

    #[test]
    fn call_on_already_satisfied_fires_immediately() {
        let sim = Sim::new();
        let c = Completion::new();
        sim.with_sched(|s| s.signal(&c, 5));
        let hit = Rc::new(Cell::new(0u64));
        let h = hit.clone();
        sim.with_sched(move |s| {
            s.call_on(&c, 2, Box::new(move |_| {
                h.set(7);
            }));
        });
        sim.drain();
        assert_eq!(hit.get(), 7);
    }

    #[test]
    fn chained_continuations_model_a_pipeline() {
        // c1 -> schedule work -> signal c2 -> continuation on c2
        let sim = Sim::new();
        let c1 = Completion::new();
        let c2 = Completion::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let c1b = c1.clone();
        let c2b = c2.clone();
        let c2d = c2.clone();
        sim.with_sched(move |s| {
            s.call_on(&c1b, 1, Box::new(move |s| {
                o1.borrow_mut().push("stage1");
                let c2c = c2b.clone();
                s.schedule_in(SimDuration::from_us(3), Box::new(move |s| s.signal(&c2c, 1)));
            }));
            s.call_on(&c2d, 1, Box::new(move |_| {
                o2.borrow_mut().push("stage2");
            }));
        });
        sim.with_sched(|s| s.signal(&c1, 1));
        sim.drain();
        assert_eq!(*order.borrow(), vec!["stage1", "stage2"]);
        assert_eq!(sim.now().as_us_f64(), 3.0);
    }

    #[test]
    fn mixed_task_and_action_waiters_both_fire() {
        let sim = Sim::new();
        let c = Completion::new();
        let act = Rc::new(Cell::new(0u64));
        let a2 = act.clone();
        let c2 = c.clone();
        let c3 = c.clone();
        let out = sim.run(2, move |ctx| {
            if ctx.id().0 == 0 {
                let a3 = a2.clone();
                ctx.with_sched(|s| {
                    s.call_on(&c2, 1, Box::new(move |_| {
                        a3.set(1);
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
        assert_eq!(act.get(), 1);
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
    #[derive(Clone, PartialEq, Debug)]
    struct Seen {
        resumed_at: SimTime,
        next_interval: SimDuration,
        /// Same-instant order of the waiter's resumption against the
        /// competing events and the other tasks' steps.
        log: Vec<(SimTime, &'static str)>,
        events: u64,
        stalls: u64,
        max_heap_len: usize,
        completions: u64,
        wakeups: u64,
        elided: u64,
    }

    /// An event the scenario plants: logged at `at_ns`, setting the flag
    /// if `sets`, and scheduled before the wait starts (`from_ns: None`:
    /// a lower `seq` than any poll of the wait) or by task 1 once it has
    /// advanced to `from_ns`.
    #[derive(Clone, Copy)]
    struct Plant {
        at_ns: u64,
        what: &'static str,
        sets: bool,
        from_ns: Option<u64>,
    }

    const fn plant(at_ns: u64, what: &'static str, sets: bool, from_ns: Option<u64>) -> Plant {
        Plant { at_ns, what, sets, from_ns }
    }

    /// Task 0 waits until the flag is set or `deadline_ns` has come, on
    /// the grid 200, 600, 1400, 3000, 5000, 7000, … ns (2 µs apart from
    /// 3000 on) — through `poll_until` with the deadline as its quiet
    /// instant if `in_place`, else through the reference loop. Task 1
    /// plants the events that have a `from_ns`, in order; task 2 steps
    /// and exits early, so an *exiting* task drives part of the wait.
    fn scenario(in_place: bool, plants: &[Plant], deadline_ns: Option<u64>) -> Seen {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        let log = Rc::new(RefCell::new(Vec::new()));
        let schedule = |s: &mut Sched<'_>, p: Plant| {
            let (log, flag) = (log.clone(), flag.clone());
            s.schedule_at(
                at_ns(p.at_ns),
                Box::new(move |s| {
                    log.borrow_mut().push((s.now(), p.what));
                    if p.sets {
                        flag.set(true);
                    }
                }),
            );
        };
        let deadline = deadline_ns.map_or(SimTime::MAX, at_ns);
        let out = sim.run(3, |ctx| match ctx.rank() {
            0 => {
                ctx.with_sched(|s| {
                    plants.iter().filter(|p| p.from_ns.is_none()).for_each(|p| schedule(s, *p))
                });
                let next = if in_place {
                    let f = flag.clone();
                    let ready = Box::new(move |now| f.get() || now >= deadline);
                    ctx.poll_until(FIRST, CAP, deadline, ready)
                } else {
                    reference_loop(&ctx, FIRST, CAP, || flag.get() || ctx.now() >= deadline)
                };
                log.borrow_mut().push((ctx.now(), "resumed"));
                Some((ctx.now(), next))
            }
            1 => {
                for p in plants {
                    let Some(from) = p.from_ns.map(at_ns) else { continue };
                    ctx.advance(from - ctx.now());
                    ctx.with_sched(|s| schedule(s, *p));
                }
                None
            }
            _ => {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_ns(700));
                    log.borrow_mut().push((ctx.now(), "step"));
                }
                None
            }
        });
        let (resumed_at, next_interval) = out[0].expect("waiter result");
        let st = sim.stats();
        let log = log.borrow().clone();
        Seen {
            resumed_at,
            next_interval,
            log,
            events: st.events_executed,
            stalls: st.time_advance_stalls,
            max_heap_len: st.max_heap_len,
            completions: st.completions_signalled,
            wakeups: st.wakeups,
            elided: sim.polls_elided(),
        }
    }

    /// Runs a case both ways; returns the in-place run and how many grid
    /// instants the reference loop resumed the waiter at.
    fn side_by_side(plants: &[Plant], deadline_ns: Option<u64>, resumes_ns: u64) -> (Seen, u64) {
        let reference = scenario(false, plants, deadline_ns);
        let polled = scenario(true, plants, deadline_ns);
        assert_eq!(reference.resumed_at, at_ns(resumes_ns));
        assert_eq!(reference.elided, 0);
        // task 2 advances three times, the waiter is woken once, and task 1
        // once per distinct instant it plants from
        let mut froms: Vec<_> = plants.iter().filter_map(|p| p.from_ns).collect();
        froms.dedup();
        assert_eq!(polled.wakeups, 3 + 1 + froms.len() as u64);
        let visited = reference.wakeups - (polled.wakeups - 1);
        // the seq-identity proof: the same resume instant, the same order
        // at every shared instant, and every counter but the wake-ups
        let blind = |s: &Seen| Seen { wakeups: 0, elided: 0, ..s.clone() };
        assert_eq!(blind(&polled), blind(&reference));
        (polled, visited)
    }

    #[test]
    fn poll_until_matches_the_loop_it_replaces() {
        // set at 5000 ns by an event queued before the wait (so the 5000
        // ns poll sees it) or by task 1 at 4000 ns (after the poll's
        // re-arm: it misses it), with log-only events on either side of
        // the 7000 ns poll
        for set_before_wait in [true, false] {
            let set_from = (!set_before_wait).then_some(4_000);
            let plants = [
                plant(5_000, "set", true, set_from),
                plant(7_000, "planted-at-4000", false, Some(4_000)),
                plant(7_000, "planted-at-6000", false, Some(6_000)),
            ];
            let expect_ns = if set_before_wait { 5_000 } else { 7_000 };
            let (polled, visited) = side_by_side(&plants, None, expect_ns);
            assert_eq!(visited, if set_before_wait { 5 } else { 6 });
            if !set_before_wait {
                let at_7000 = polled.log.iter().filter(|e| e.0 == at_ns(7_000));
                let at_7000: Vec<_> = at_7000.map(|e| e.1).collect();
                assert_eq!(at_7000, ["planted-at-4000", "resumed", "planted-at-6000"]);
            }
        }
    }

    #[test]
    fn polls_between_sparse_events_are_answered_in_place() {
        // three unrelated events far apart, each between two grid
        // instants, and the flag set at 60 us, between 59 and 61
        let plants = [
            plant(10_300, "early", false, None),
            plant(25_700, "middle", false, None),
            plant(41_100, "late", false, Some(30_000)),
            plant(60_000, "set", true, None),
        ];
        let (polled, visited) = side_by_side(&plants, None, 61_000);
        assert_eq!(visited, 33);
        // everything but the first instants and one instant per event
        // on the heap: the first poll and the first instant at or past
        // each event — 0.2, 1.4, 3, 11, 27, 31, 43 and 61 us
        assert_eq!(polled.elided, visited - 8);
    }

    #[test]
    fn a_quiet_instant_between_two_events_ends_the_wait_on_time() {
        // the deadline falls between the events at 25.7 and 41.1 us: the
        // wait ends at the first grid instant past it, 35 us, which no
        // event marks, so it is answered in place
        let plants = [
            plant(10_300, "early", false, None),
            plant(25_700, "middle", false, None),
            plant(41_100, "late", false, Some(30_000)),
        ];
        let (polled, _) = side_by_side(&plants, Some(33_333), 35_000);
        assert!(polled.elided > 0);
    }

    #[test]
    fn an_event_on_a_grid_instant_runs_before_or_after_the_poll_by_seq() {
        // 21 us is a grid instant. Queued before the wait, the setter
        // runs before the poll there, which sees it.
        let before = [plant(21_000, "set", true, None)];
        let (polled, _) = side_by_side(&before, None, 21_000);
        assert!(polled.elided > 0);
        // Queued by task 1 at 20 us, after the poll's re-arm to 21 us: the
        // poll runs first and misses it, and the wait ends at 23 us.
        let after = [plant(21_000, "set", true, Some(20_000))];
        let (polled, _) = side_by_side(&after, None, 23_000);
        let at_21 = polled.log.iter().filter(|e| e.0 == at_ns(21_000)).count();
        assert_eq!(at_21, 1, "the set, not the waiter");
    }

    #[test]
    #[should_panic(expected = "virtual-time deadlock")]
    fn a_wait_no_event_can_answer_is_a_deadlock() {
        // the reference loop would poll forever
        let sim = Sim::new();
        sim.run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.poll_until(FIRST, CAP, SimTime::MAX, Box::new(|_| false));
            } else {
                ctx.advance(SimDuration::from_ns(5_000));
            }
        });
    }

    #[test]
    fn lone_poller_is_woken_once() {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        let f = flag.clone();
        sim.with_sched(|s| {
            s.schedule_at(at_ns(20_000), Box::new(move |_| f.set(true)))
        });
        let out = sim.run(1, |ctx| {
            let f = flag.clone();
            let next = ctx.poll_until(FIRST, FIRST, SimTime::MAX, Box::new(move |_| f.get()));
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
                ctx.poll_until(FIRST, CAP, SimTime::ZERO, Box::new(|now| {
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
        let flag = Rc::new(Cell::new(false));
        let dump = sim.run(2, |ctx| {
            if ctx.rank() == 0 {
                let f = flag.clone();
                ctx.poll_until(FIRST, CAP, SimTime::MAX, Box::new(move |_| f.get()));
                assert_eq!(ctx.now(), at_ns(1_400));
                String::new()
            } else {
                // between the polls at 600 and 1400 ns
                ctx.advance(SimDuration::from_ns(1_000));
                let dump = ctx.sim().blocked_dump();
                flag.set(true);
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

#[cfg(test)]
mod reentrancy_tests {
    use super::*;

    fn at_ns(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn now_is_callable_from_event_actions_and_probes() {
        let sim = Sim::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (clock, log) = (sim.clone(), seen.clone());
        sim.with_sched(|s| {
            s.schedule_at(
                at_ns(3),
                Box::new(move |s| log.borrow_mut().push((s.now(), clock.now()))),
            )
        });
        let end = sim.run(1, |ctx| {
            let (clock, log) = (ctx.sim().clone(), seen.clone());
            let step = SimDuration::from_ns(2);
            ctx.poll_until(
                step,
                step,
                SimTime::ZERO,
                Box::new(move |at| {
                    log.borrow_mut().push((at, clock.now()));
                    clock.now() >= at_ns(6)
                }),
            );
            ctx.now()
        });
        assert_eq!(end, [at_ns(6)]);
        let want: Vec<_> = [2, 3, 4, 6].map(|ns| (at_ns(ns), at_ns(ns))).into();
        assert_eq!(*seen.borrow(), want);
    }

    #[test]
    #[should_panic(expected = "re-entrant engine access")]
    fn with_sched_inside_an_event_action_panics_at_the_call() {
        let sim = Sim::new();
        let inner = sim.clone();
        sim.with_sched(|s| {
            s.schedule_in(
                SimDuration::from_ns(1),
                Box::new(move |_| inner.with_sched(|_| ())),
            )
        });
        sim.drain();
    }
}
