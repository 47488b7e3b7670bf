//! Stackful coroutines for the engine's tasks: the register swap, the
//! stacks, and the only `unsafe` in the workspace crates.
//!
//! [`run`] turns a set of closures into coroutines that execute on the
//! calling thread, one at a time, each on a stack of its own. A running
//! coroutine gives the processor away with [`Coros::switch_to`]; one
//! that returns names its successor. Nothing here schedules: who runs
//! next is the caller's decision, every time.
//!
//! A thread keeps the stacks of the groups it has dropped, up to
//! [`SPARE_CAP`] of them, and hands them to its next [`run`]: a run
//! needs a new mapping only for tasks beyond what the thread's earlier
//! runs left it. Thread exit unmaps the spares. [`stacks_mapped`] counts
//! the mappings.
//!
//! # Invariants the `unsafe` blocks rest on
//!
//! 1. **One thread.** [`Coros`] is neither `Send` nor `Sync` (it holds
//!    `Cell`s and raw pointers and is handed out in an `Rc`), so every
//!    switch of one group happens on the thread that called [`run`]. A
//!    suspended context is therefore resumed under the thread-local state
//!    (TLS base, panic count, signal stack) it was suspended under.
//! 2. **A saved stack pointer is resumed at most once.** A slot's `sp`
//!    is read only by `claim`, which requires `Suspended` and leaves
//!    `Running`; it is written again only by the `switch` that suspends
//!    that slot. The caller's own context (`main_sp`) is written by
//!    `resume` and consumed by the one `finish` that returns to it.
//! 3. **A saved stack pointer points into memory that is still mapped.**
//!    `switch_to` checks that it is called on the running slot's own
//!    stack, so a slot's `sp` always points into that slot's mapping,
//!    which lives as long as the `Coros`; `main_sp` points into the
//!    stack of a caller that is blocked in [`run`]. A stack on the
//!    thread's spare list holds no saved context: only a `Finished`
//!    slot's stack goes there, and `finish` drops the context it saves.
//! 4. **No body outlives [`run`].** `run` returns only when every slot is
//!    `Finished`, i.e. its body was called and has returned; that is what
//!    lets bodies borrow from the caller's frame. A body that has not
//!    returned is never abandoned: its stack is neither unmapped nor
//!    handed to another group under live frames, and its destructors are
//!    not skipped. A group hands its stacks back only when it is dropped,
//!    so a spare is a stack no group uses: a run nested in a coroutine
//!    never gets the stack it is called on.
//! 5. **Nothing unwinds into assembly.** `entry` is `extern "C"`: a panic
//!    that escapes a body aborts the process instead of unwinding into
//!    `trampoline`, which has no unwind tables. Bodies that can panic
//!    catch it themselves.
//!
//! `switch` saves what the System V x86-64 ABI makes the callee preserve
//! and code may have changed: `rbp rbx r12-r15` and `rsp`. The control
//! words (`mxcsr`, x87 CW) are preserved by never being written, here or
//! in any code this workspace compiles. Shadow stacks (CET) are not
//! supported; no Linux process has them unless its binary opts in.

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "sim-core runs tasks as coroutines switched by x86_64 System V assembly on mmap'ed \
     stacks: crates/sim-core/src/switch.rs is the one file to port to another target"
);

use std::arch::{asm, naked_asm};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// What one coroutine runs. It is handed the group it belongs to, and
/// returns where control goes once it is done: `Some(i)` resumes
/// coroutine `i`, `None` goes back to the caller of [`run`].
pub(crate) type Body<'a> = Box<dyn FnOnce(&Rc<Coros>) -> Option<usize> + 'a>;

/// Usable bytes of one coroutine stack — what `std::thread` gives a
/// spawned thread by default. Pages are committed only once touched, and
/// stay committed while the stack waits on the spare list.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack: an overflow faults instead of
/// running into the next mapping.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = if cfg!(target_os = "linux") {
    0x20
} else {
    0x1000
};
const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

/// Most stacks a thread keeps for its next runs: one per PE of the
/// paper's largest job, 128 nodes of 2 GPUs. The rest are unmapped.
pub(crate) const SPARE_CAP: usize = 256;

thread_local! {
    /// Stacks of dropped groups, each with no saved context on it.
    static SPARES: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    static MAPPED: Cell<u64> = const { Cell::new(0) };
}

/// How many task stacks this thread has mapped so far. A host-cost
/// counter, like [`Sim::polls_elided`](crate::Sim::polls_elided): a run
/// whose tasks all find a spare stack of an earlier run maps none.
pub fn stacks_mapped() -> u64 {
    MAPPED.with(Cell::get)
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// An anonymous mapping: the guard page, then the stack above it.
struct Stack {
    base: *mut u8,
}

impl Stack {
    /// A spare stack of this thread, or a new mapping.
    fn take() -> Stack {
        let spare = SPARES.try_with(|s| s.borrow_mut().pop());
        spare.ok().flatten().unwrap_or_else(Stack::new)
    }

    /// Keep this stack for the thread's next run, or unmap it once the
    /// thread holds [`SPARE_CAP`] spares or is exiting (its list gone).
    fn give_back(self) {
        let _ = SPARES.try_with(|s| {
            let mut spares = s.borrow_mut();
            if spares.len() < SPARE_CAP {
                spares.push(self);
            }
        });
    }

    fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel picks touches no memory this program already uses.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base != MAP_FAILED, "mmap of a {len}-byte task stack failed");
        MAPPED.with(|n| n.set(n.get() + 1));
        let stack = Stack { base };
        // SAFETY: the page-aligned first page of the mapping made above,
        // which nothing has a pointer into yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a task stack's guard page failed");
        stack
    }

    /// One past the highest usable byte; page- and so 16-byte-aligned.
    fn top(&self) -> usize {
        self.base as usize + GUARD_BYTES + STACK_BYTES
    }

    fn contains(&self, addr: usize) -> bool {
        (self.base as usize + GUARD_BYTES..self.top()).contains(&addr)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` made. Its group is being
        // dropped, or it was a spare, so nothing can resume a context on
        // this stack, and none is executing on it: `run` holds a handle to
        // its group for as long as any of its coroutines runs. A failure
        // is ignored: `drop` must not panic, and the cost is a leaked
        // mapping.
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum State {
    /// `sp` is a context nobody has resumed yet.
    Suspended,
    Running,
    /// The body has returned; the slot is never resumed again.
    Finished,
}

struct Slot {
    stack: Stack,
    /// The suspended context's stack pointer; meaningful in `Suspended`.
    sp: Cell<usize>,
    state: Cell<State>,
}

/// What a new coroutine finds through `r12` when it first runs.
struct Start<'r, 'a> {
    coros: &'r Rc<Coros>,
    body: Option<Body<'a>>,
}

impl Slot {
    /// A stack with nothing to run on it yet.
    fn new() -> Slot {
        Slot {
            stack: Stack::take(),
            sp: Cell::new(0),
            state: Cell::new(State::Finished),
        }
    }

    /// Make this idle slot a coroutine that calls `entry(start)` when it
    /// is first resumed.
    fn arm(&self, start: *mut Start<'_, '_>) {
        assert_eq!(self.state.get(), State::Finished, "arming a live coroutine");
        // What `switch` pops, lowest address first: r15 r14 r13, r12 (the
        // argument `trampoline` forwards), rbx, rbp, then the address it
        // `ret`s to. The two zero words above keep `rsp` 16-byte aligned
        // at `trampoline`'s `call`, as the ABI demands of every call site
        // (`movaps` spills fault otherwise), and read as the null return
        // address and frame pointer that end a stack walk.
        let ret = trampoline as *const () as usize;
        let frame: [usize; 9] = [0, 0, 0, start as usize, 0, 0, ret, 0, 0];
        let sp = self.stack.top() - std::mem::size_of_val(&frame);
        // SAFETY: the top 72 bytes of this slot's writable mapping, 8-byte
        // aligned because `top` is page-aligned; no context lives on the
        // stack of an idle slot.
        unsafe { (sp as *mut [usize; 9]).write(frame) };
        self.sp.set(sp);
        self.state.set(State::Suspended);
    }
}

/// A group of coroutines sharing one thread; see the module doc.
pub(crate) struct Coros {
    slots: Box<[Slot]>,
    /// The slot executing now; `None` while the caller of [`run`] is.
    current: Cell<Option<usize>>,
    /// The context of the caller of [`run`], while a coroutine executes.
    main_sp: Cell<usize>,
}

impl Drop for Coros {
    /// The stacks of finished slots go back on the thread's spare list;
    /// any other stack is unmapped with its slot.
    fn drop(&mut self) {
        for slot in std::mem::take(&mut self.slots) {
            if slot.state.get() == State::Finished {
                slot.stack.give_back();
            }
        }
    }
}

/// Run `bodies` as coroutines on this thread, starting with `first`,
/// and return when all of them have finished.
///
/// Control comes back here when a body returns `None`. Coroutines that
/// are unfinished at that point (suspended, or never started) are then
/// resumed in index order until none is left, so whoever sends control
/// back early must have arranged for the rest to run to their end.
pub(crate) fn run(bodies: Vec<Body<'_>>, first: usize) {
    let coros = Rc::new(Coros {
        slots: bodies.iter().map(|_| Slot::new()).collect(),
        current: Cell::new(None),
        main_sp: Cell::new(0),
    });
    let mut starts: Vec<Start<'_, '_>> = bodies
        .into_iter()
        .map(|body| Start {
            coros: &coros,
            body: Some(body),
        })
        .collect();
    for (slot, start) in coros.slots.iter().zip(&mut starts) {
        slot.arm(start);
    }
    let mut next = Some(first);
    while let Some(i) = next {
        coros.resume(i);
        next = coros
            .slots
            .iter()
            .position(|s| s.state.get() != State::Finished);
    }
}

impl Coros {
    /// Suspend the running coroutine and resume coroutine `to`, which
    /// must be suspended. Returns when somebody switches back.
    ///
    /// Panics, with nothing changed, if called from outside the group's
    /// running coroutine or if `to` is running or has finished.
    pub(crate) fn switch_to(&self, to: usize) {
        let me = self.current.get().expect("switch_to outside a coroutine");
        let rsp: usize;
        // SAFETY: reads a register; touches neither memory nor flags.
        unsafe { asm!("mov {}, rsp", out(reg) rsp, options(nomem, nostack, preserves_flags)) };
        assert!(
            self.slots[me].stack.contains(rsp),
            "switch_to called off the running coroutine's stack"
        );
        let to_sp = self.claim(to);
        self.slots[me].state.set(State::Suspended);
        // SAFETY: `to_sp` is a live context resumed for the first time
        // since it was saved (invariants 2 and 3) on the thread that
        // saved it (1); this context is executing on slot `me`'s stack
        // (checked above), so that slot's `sp` is the right place for it.
        unsafe { switch(self.slots[me].sp.as_ptr(), to_sp) };
    }

    /// Take slot `i`'s saved context for resumption.
    fn claim(&self, i: usize) -> usize {
        let slot = &self.slots[i];
        assert_eq!(
            slot.state.get(),
            State::Suspended,
            "coroutine {i} cannot be resumed"
        );
        slot.state.set(State::Running);
        self.current.set(Some(i));
        slot.sp.get()
    }

    /// From the caller of `run`: execute coroutine `i` until some
    /// coroutine finishes with `None`.
    fn resume(&self, i: usize) {
        debug_assert_eq!(self.current.get(), None);
        let sp = self.claim(i);
        // SAFETY: as in `switch_to`; the saved context is this frame,
        // which stays blocked here until a `finish` resumes it, once.
        unsafe { switch(self.main_sp.as_ptr(), sp) };
    }

    /// The running coroutine's body has returned: leave for good.
    fn finish(&self, next: Option<usize>) -> ! {
        let me = self.current.get().expect("a coroutine is running");
        self.slots[me].state.set(State::Finished);
        let to_sp = match next {
            Some(i) => self.claim(i),
            None => {
                self.current.set(None);
                self.main_sp.get()
            }
        };
        let mut never_resumed = 0;
        // SAFETY: as in `switch_to`. Only `entry`'s frame is left on this
        // stack and it owns nothing; the context saved into the local is
        // dropped, so this stack is never run again.
        unsafe { switch(&mut never_resumed, to_sp) };
        unreachable!("a finished coroutine was resumed")
    }
}

/// First Rust frame of every coroutine.
extern "C" fn entry(start: *mut Start<'_, '_>) -> ! {
    // SAFETY: `run` passed a pointer to an element of its `starts`
    // vector, which it neither moves nor touches until every coroutine
    // has finished; each element is handed to exactly one coroutine.
    let Start { coros, body } = unsafe { &mut *start };
    let body = body.take().expect("a coroutine starts once");
    let next = body(coros);
    coros.finish(next)
}

/// Where a fresh context's first `ret` lands: forward the argument
/// `Slot::arm` parked in `r12`. Backtraces end here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!("mov rdi, r12", "call {entry}", "ud2", entry = sym entry)
}

/// Save the caller's context, store its stack pointer in `*from`, and
/// resume the context whose stack pointer is `to`.
///
/// # Safety
///
/// `to` must have been stored by this function, or built by `Slot::arm`,
/// and not been resumed since; the stack it points into must still be
/// mapped; the caller must be the thread that saved it. `from` must be
/// valid for a write.
#[unsafe(naked)]
unsafe extern "C" fn switch(from: *mut usize, to: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// How many spare stacks this thread holds.
#[cfg(test)]
pub(crate) fn spares() -> usize {
    SPARES.with(|s| s.borrow().len())
}

#[cfg(test)]
impl Coros {
    /// The top of the running coroutine's stack, which names the stack.
    pub(crate) fn running_stack(&self) -> usize {
        let me = self.current.get().expect("a coroutine is running");
        self.slots[me].stack.top()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn coroutines_interleave_on_their_own_stacks_and_borrow_from_the_caller() {
        let log = RefCell::new(Vec::new());
        let ping: Body<'_> = Box::new(|coros| {
            for i in 0..3 {
                log.borrow_mut().push(("ping", i));
                coros.switch_to(1);
            }
            Some(1)
        });
        let pong: Body<'_> = Box::new(|coros| {
            for i in 0..3 {
                log.borrow_mut().push(("pong", i));
                coros.switch_to(0);
            }
            None
        });
        run(vec![ping, pong], 0);
        let turns = (0..3).flat_map(|i| [("ping", i), ("pong", i)]);
        assert_eq!(log.into_inner(), turns.collect::<Vec<_>>());
    }

    #[test]
    fn unfinished_coroutines_are_resumed_in_index_order_before_run_returns() {
        let log = RefCell::new(Vec::new());
        let body = |name: &'static str, first_act: Option<usize>| -> Body<'_> {
            let log = &log;
            Box::new(move |coros| {
                log.borrow_mut().push((name, "starts"));
                if let Some(to) = first_act {
                    coros.switch_to(to);
                }
                log.borrow_mut().push((name, "ends"));
                None
            })
        };
        // 2 runs first and suspends itself into 1, which goes straight
        // back to the caller: 0 has never run and 2 is suspended
        run(
            vec![body("a", None), body("b", None), body("c", Some(1))],
            2,
        );
        let order = [("c", "starts"), ("b", "starts"), ("b", "ends")];
        let swept = [("a", "starts"), ("a", "ends"), ("c", "ends")];
        assert_eq!(log.into_inner(), [order, swept].concat());
    }

    #[test]
    fn a_switch_that_cannot_be_honoured_panics_and_changes_nothing() {
        let escaped = RefCell::new(None);
        let refused = |coros: &Coros, to| catch_unwind(AssertUnwindSafe(|| coros.switch_to(to)));
        let first: Body<'_> = Box::new(|coros| {
            *escaped.borrow_mut() = Some(coros.clone());
            assert!(
                refused(coros, 0).is_err(),
                "to the running coroutine itself"
            );
            assert!(
                refused(coros, 7).is_err(),
                "to a coroutine that does not exist"
            );
            let nested: Body<'_> = Box::new(|_| {
                assert!(refused(coros, 1).is_err(), "from a stack of another group");
                None
            });
            run(vec![nested], 0);
            coros.switch_to(1);
            assert!(refused(coros, 1).is_err(), "to a finished coroutine");
            None
        });
        let second: Body<'_> = Box::new(|_| Some(0));
        run(vec![first, second], 0);
        // the stacks outlive `run` with the handle, but nothing is left to resume
        let coros = escaped.into_inner().expect("the handle");
        assert!(refused(&coros, 0).is_err(), "from outside any coroutine");
    }
}
