//! The per-PE handle: the OpenSHMEM API surface.
//!
//! A [`Pe`] is what application code receives from
//! [`ShmemMachine::run`]: `shmalloc(size, domain)`, `putmem`/`getmem`,
//! atomics, `quiet`/`fence`/`barrier_all`, `wait_until`, and `shmem_ptr`,
//! plus local-memory helpers for writing benchmarks and applications.

use crate::addr::{Domain, Pod, SymAddr, SymSlice};
use crate::error::TransferError;
use crate::machine::ShmemMachine;
use crate::state::PeStats;
use ib_sim::AtomicOp;
use pcie_sim::mem::{Held, MemRef, MemSpace};
use pcie_sim::ProcId;
use sim_core::{SimDuration, SimTime, TaskCtx};
use std::rc::Rc;

/// Comparison operator for [`Pe::wait_until`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmp {
    Eq,
    Ne,
    Ge,
    Le,
}

impl Cmp {
    pub(crate) fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

/// One processing element's view of the job.
pub struct Pe {
    m: Rc<ShmemMachine>,
    ctx: TaskCtx,
    id: ProcId,
}

impl Pe {
    pub(crate) fn new(m: Rc<ShmemMachine>, ctx: TaskCtx, id: ProcId) -> Pe {
        Pe { m, ctx, id }
    }

    // ---------- identity & environment ----------

    /// `shmem_my_pe()`.
    pub fn my_pe(&self) -> usize {
        self.id.index()
    }

    /// `shmem_n_pes()`.
    pub fn n_pes(&self) -> usize {
        self.m.n_pes()
    }

    pub fn proc_id(&self) -> ProcId {
        self.id
    }

    pub fn machine(&self) -> &Rc<ShmemMachine> {
        &self.m
    }

    pub fn ctx(&self) -> &TaskCtx {
        &self.ctx
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Spend `d` of application compute time (outside the library: the
    /// host-pipeline progress engine does NOT run during this).
    pub fn compute(&self, d: SimDuration) {
        self.ctx.advance(d);
    }

    /// Model a GPU kernel execution (launch overhead + cost).
    pub fn gpu_compute(&self, cost: SimDuration) {
        self.m.gpus().kernel_sync(&self.ctx, cost);
    }

    // ---------- symmetric allocation ----------

    /// `shmalloc(size, domain)` — collective; all PEs must call with the
    /// same arguments in the same order. Includes the implicit barrier.
    pub fn shmalloc(&self, bytes: u64, domain: Domain) -> SymAddr {
        let st = self.m.pe_state(self.id);
        let off = match domain {
            Domain::Host => st.host_alloc.borrow_mut().alloc(bytes),
            Domain::Gpu => st.gpu_alloc.borrow_mut().alloc(bytes),
        }
        .unwrap_or_else(|e| panic!("{domain} symmetric heap exhausted: {e}"));
        self.barrier_all();
        SymAddr::new(domain, off)
    }

    /// Typed collective allocation.
    pub fn shmalloc_slice<T: Pod>(&self, n: usize, domain: Domain) -> SymSlice<T> {
        let addr = self.shmalloc((n * T::SIZE) as u64, domain);
        SymSlice::new(addr, n)
    }

    /// `shfree` — collective.
    pub fn shfree(&self, addr: SymAddr, bytes: u64) {
        let st = self.m.pe_state(self.id);
        match addr.domain {
            Domain::Host => st.host_alloc.borrow_mut().free(addr.offset, bytes),
            Domain::Gpu => st.gpu_alloc.borrow_mut().free(addr.offset, bytes),
        }
        self.barrier_all();
    }

    // ---------- local (private) memory ----------

    /// Allocate private host memory (not symmetric; like malloc).
    pub fn malloc_host(&self, bytes: u64) -> MemRef {
        let off = self
            .m
            .pe_state(self.id)
            .priv_alloc
            .borrow_mut()
            .alloc(bytes)
            .unwrap_or_else(|e| panic!("private host memory exhausted: {e}"));
        MemRef::new(MemSpace::Host(self.id), off)
    }

    /// Free private host memory.
    pub fn free_host(&self, mem: MemRef, bytes: u64) {
        assert_eq!(mem.space, MemSpace::Host(self.id), "foreign private buffer");
        self.m.pe_state(self.id).priv_alloc.borrow_mut().free(mem.offset, bytes);
    }

    /// Allocate private device memory on this PE's GPU (like cudaMalloc).
    pub fn malloc_dev(&self, bytes: u64) -> MemRef {
        let gpu = self.m.cluster().topo().gpu_of(self.id);
        self.m
            .gpus()
            .gpu(gpu)
            .malloc(bytes)
            .unwrap_or_else(|e| panic!("device memory exhausted: {e}"))
    }

    /// Free private device memory from [`Pe::malloc_dev`] (like
    /// cudaFree): the next allocation may reuse the block.
    pub fn free_dev(&self, mem: MemRef, bytes: u64) {
        let gpu = self.m.cluster().topo().gpu_of(self.id);
        self.m.gpus().gpu(gpu).free(mem, bytes);
    }

    /// Synchronous cudaMemcpy between any local buffers (explicit staging
    /// for the Naive design, app-side data movement).
    pub fn cuda_memcpy(&self, src: MemRef, dst: MemRef, len: u64) {
        self.m.gpus().memcpy_sync(&self.ctx, src, dst, len);
    }

    /// Resolve a symmetric address on a PE (usually `self`).
    pub fn addr_of(&self, sym: SymAddr, pe: usize) -> MemRef {
        self.m.layout().resolve(sym, ProcId(pe as u32))
    }

    /// `shmem_ptr`: a directly usable pointer to a peer's symmetric
    /// object — only for host-domain objects of node-local peers.
    pub fn shmem_ptr(&self, sym: SymAddr, pe: usize) -> Option<MemRef> {
        let target = ProcId(pe as u32);
        let topo = self.m.cluster().topo();
        if sym.domain == Domain::Host && topo.same_node(self.id, target) {
            Some(self.m.layout().resolve(sym, target))
        } else {
            None
        }
    }

    // ---------- zero-time raw access (test & setup helpers) ----------

    /// Write bytes directly into any local buffer or symmetric object on
    /// this PE. Zero virtual time: models a CPU store / pre-initialized
    /// data. Use [`Pe::cuda_memcpy`] for time-accurate device writes.
    pub fn write_raw(&self, mem: MemRef, data: &[u8]) {
        self.m
            .cluster()
            .mem()
            .write_bytes(mem, data)
            .expect("raw write");
    }

    /// Make `len` bytes at `mem` read as `byte`, like [`Pe::write_raw`]
    /// of that many copies of it: the whole pages the range covers share
    /// one page of `byte` (see `pcie_sim::mem`).
    pub fn fill_raw(&self, mem: MemRef, byte: u8, len: u64) {
        self.m
            .cluster()
            .mem()
            .fill_bytes(mem, byte, len)
            .expect("raw fill");
    }

    /// Read bytes directly (zero virtual time).
    pub fn read_raw(&self, mem: MemRef, len: u64) -> Vec<u8> {
        self.m.cluster().mem().read_bytes(mem, len).expect("raw read")
    }

    /// What [`Pe::read_raw`] would read now, as a hold of the pages under
    /// it: no byte is copied, and later writes leave the snapshot as it
    /// is. Read it with [`Held::runs`].
    pub fn snapshot(&self, mem: MemRef, len: u64) -> Held {
        self.m.cluster().mem().hold(mem, len).expect("raw snapshot")
    }

    /// Write a typed slice into this PE's copy of a symmetric object.
    pub fn write_sym<T: Pod>(&self, s: &SymSlice<T>, vals: &[T]) {
        assert!(vals.len() <= s.len(), "writing past symmetric object");
        self.write_raw(self.addr_of(s.addr(), self.my_pe()), &T::to_bytes(vals));
    }

    /// Read this PE's copy of a symmetric object.
    pub fn read_sym<T: Pod>(&self, s: &SymSlice<T>) -> Vec<T> {
        let b = self.read_raw(self.addr_of(s.addr(), self.my_pe()), s.byte_len());
        T::from_bytes(&b)
    }

    // ---------- RMA ----------

    /// `shmem_putmem(dest, source, len, pe)`: `source` is any local
    /// buffer (private host/device or resolved symmetric address).
    /// Panics if the transfer fails permanently under an active fault
    /// plan — use [`Pe::try_putmem`] to handle typed errors instead.
    pub fn putmem(&self, dest: SymAddr, src: MemRef, len: u64, pe: usize) {
        self.try_putmem(dest, src, len, pe)
            .unwrap_or_else(|e| panic!("putmem failed: {e}"));
    }

    /// Fallible `shmem_putmem`: retries/fallbacks happen inside; what
    /// remains is a typed [`TransferError`] (retry exhaustion, per-op
    /// timeout, capability fault with no fallback). A chunked transfer
    /// whose retries exhaust mid-flight returns
    /// [`TransferError::PartialDelivery`]: delivered chunks are final,
    /// failed chunks left no bytes and no staging credits behind.
    pub fn try_putmem(
        &self,
        dest: SymAddr,
        src: MemRef,
        len: u64,
        pe: usize,
    ) -> Result<(), TransferError> {
        self.m
            .do_put(&self.ctx, self.id, dest, src, len, ProcId(pe as u32))
    }

    /// Put from one of this PE's symmetric objects.
    pub fn putmem_sym(&self, dest: SymAddr, src_sym: SymAddr, len: u64, pe: usize) {
        let src = self.addr_of(src_sym, self.my_pe());
        self.putmem(dest, src, len, pe);
    }

    /// Typed put of a whole slice view.
    pub fn put_slice<T: Pod>(&self, dest: &SymSlice<T>, src: MemRef, pe: usize) {
        self.putmem(dest.addr(), src, dest.byte_len(), pe);
    }

    /// `shmem_getmem(dest, source, len, pe)`. Panics on permanent
    /// failure; see [`Pe::try_getmem`].
    pub fn getmem(&self, dest: MemRef, source: SymAddr, len: u64, pe: usize) {
        self.try_getmem(dest, source, len, pe)
            .unwrap_or_else(|e| panic!("getmem failed: {e}"));
    }

    /// Fallible `shmem_getmem`: surfaces a typed [`TransferError`]
    /// instead of panicking when the fault plan defeats every retry.
    /// Chunked gets that fail mid-transfer return
    /// [`TransferError::PartialDelivery`]; destination bytes of the
    /// undelivered chunks are unspecified.
    pub fn try_getmem(
        &self,
        dest: MemRef,
        source: SymAddr,
        len: u64,
        pe: usize,
    ) -> Result<(), TransferError> {
        self.m
            .do_get(&self.ctx, self.id, dest, source, len, ProcId(pe as u32))
    }

    /// `shmem_putmem_nbi`: non-blocking put. The source buffer must not
    /// be modified until the next `quiet`/`barrier_all`.
    pub fn putmem_nbi(&self, dest: SymAddr, src: MemRef, len: u64, pe: usize) {
        self.machine()
            .clone()
            .do_put_nbi(&self.ctx, self.id, dest, src, len, ProcId(pe as u32))
            .unwrap_or_else(|e| panic!("putmem_nbi failed: {e}"));
    }

    /// `shmem_getmem_nbi`: non-blocking get. The destination contents
    /// are undefined until the next `quiet`/`barrier_all`.
    pub fn getmem_nbi(&self, dest: MemRef, source: SymAddr, len: u64, pe: usize) {
        self.machine()
            .clone()
            .do_get_nbi(&self.ctx, self.id, dest, source, len, ProcId(pe as u32))
            .unwrap_or_else(|e| panic!("getmem_nbi failed: {e}"));
    }

    /// `shmem_put_signal` (OpenSHMEM 1.5): one-sided put of `len` bytes
    /// plus an ordered 8-byte signal store into `sig` on the same target
    /// — the consumer just `wait_until`s the signal, no quiet/flag pair
    /// needed. Only RDMA-serviced paths support the fused form; other
    /// protocols fall back to put + fence + put_u64 transparently.
    pub fn put_signal(
        &self,
        dest: SymAddr,
        src: MemRef,
        len: u64,
        sig: SymAddr,
        sig_value: u64,
        pe: usize,
    ) {
        self.machine()
            .clone()
            .do_put_signal(
                &self.ctx,
                self.id,
                dest,
                src,
                len,
                sig,
                sig_value,
                ProcId(pe as u32),
            )
            .unwrap_or_else(|e| panic!("put_signal failed: {e}"));
    }

    /// `shmem_<type>_p`: store one element into a remote symmetric object.
    pub fn put_one<T: Pod>(&self, dest: SymAddr, value: T, pe: usize) {
        let scratch = self.machine().sync_scratch(self.id);
        self.write_raw(scratch, &T::to_bytes(&[value]));
        self.putmem(dest, scratch, T::SIZE as u64, pe);
    }

    /// `shmem_<type>_g`: fetch one element from a remote symmetric object.
    pub fn get_one<T: Pod>(&self, source: SymAddr, pe: usize) -> T {
        let buf = self.machine().sync_scratch(self.id).add(64);
        self.getmem(buf, source, T::SIZE as u64, pe);
        T::from_bytes(&self.read_raw(buf, T::SIZE as u64))[0]
    }

    /// `shmem_<type>_iput`: strided put — element `k` of the source
    /// (stride `sst` elements) lands at element `k * dst` stride of the
    /// destination. Implemented as per-element non-blocking puts, like
    /// most production runtimes (so wide strides are latency-bound —
    /// pack into contiguous buffers when that matters).
    pub fn iput<T: Pod>(
        &self,
        dest: SymAddr,
        src: MemRef,
        dst_stride: usize,
        src_stride: usize,
        nelems: usize,
        pe: usize,
    ) {
        let es = T::SIZE as u64;
        for k in 0..nelems {
            self.putmem_nbi(
                dest.add(es * (k * dst_stride) as u64),
                src.add(es * (k * src_stride) as u64),
                es,
                pe,
            );
        }
        self.quiet();
    }

    /// `shmem_<type>_iget`: strided get (per-element, blocking overall).
    pub fn iget<T: Pod>(
        &self,
        dest: MemRef,
        source: SymAddr,
        dst_stride: usize,
        src_stride: usize,
        nelems: usize,
        pe: usize,
    ) {
        let es = T::SIZE as u64;
        for k in 0..nelems {
            self.getmem_nbi(
                dest.add(es * (k * dst_stride) as u64),
                source.add(es * (k * src_stride) as u64),
                es,
                pe,
            );
        }
        self.quiet();
    }

    /// Put a single u64 (typed convenience, e.g. flags).
    pub fn put_u64(&self, dest: SymAddr, value: u64, pe: usize) {
        let scratch = self.m.sync_scratch(self.id);
        self.write_raw(scratch, &value.to_le_bytes());
        self.putmem(dest, scratch, 8, pe);
    }

    /// Read a u64 from this PE's copy of a symmetric object.
    pub fn local_u64(&self, sym: SymAddr) -> u64 {
        let b = self.read_raw(self.addr_of(sym, self.my_pe()), 8);
        u64::from_le_bytes(b.try_into().unwrap())
    }

    // ---------- atomics ----------

    /// `shmem_atomic_fetch_add` (64-bit, IB hardware atomic via GDR when
    /// the object lives on a GPU). Panics on permanent failure; see
    /// [`Pe::try_atomic_fetch_add`].
    pub fn atomic_fetch_add(&self, sym: SymAddr, value: u64, pe: usize) -> u64 {
        self.try_atomic_fetch_add(sym, value, pe)
            .unwrap_or_else(|e| panic!("atomic_fetch_add failed: {e}"))
    }

    /// Fallible fetch-add: an atomic on GPU symmetric memory with GDR
    /// capability-disabled at the target has no software fallback and
    /// surfaces [`TransferError::CapabilityDisabled`].
    pub fn try_atomic_fetch_add(
        &self,
        sym: SymAddr,
        value: u64,
        pe: usize,
    ) -> Result<u64, TransferError> {
        self.m
            .do_atomic(&self.ctx, self.id, sym, ProcId(pe as u32), AtomicOp::FetchAdd(value))
    }

    /// `shmem_atomic_compare_swap` (64-bit). Panics on permanent
    /// failure; see [`Pe::try_atomic_compare_swap`].
    pub fn atomic_compare_swap(&self, sym: SymAddr, compare: u64, swap: u64, pe: usize) -> u64 {
        self.try_atomic_compare_swap(sym, compare, swap, pe)
            .unwrap_or_else(|e| panic!("atomic_compare_swap failed: {e}"))
    }

    /// Fallible compare-swap; see [`Pe::try_atomic_fetch_add`].
    pub fn try_atomic_compare_swap(
        &self,
        sym: SymAddr,
        compare: u64,
        swap: u64,
        pe: usize,
    ) -> Result<u64, TransferError> {
        self.m.do_atomic(
            &self.ctx,
            self.id,
            sym,
            ProcId(pe as u32),
            AtomicOp::CompareSwap { compare, swap },
        )
    }

    /// 32-bit fetch-add via the paper's mask technique (§III-D): the HCA
    /// only does 64-bit atomics, so narrow atomics loop on a 64-bit
    /// compare-and-swap of the containing aligned word.
    pub fn atomic_fetch_add32(&self, sym: SymAddr, value: u32, pe: usize) -> u32 {
        let word = SymAddr::new(sym.domain, sym.offset & !7);
        let lo_half = (sym.offset & 7) == 0;
        assert!(sym.offset.is_multiple_of(4), "unaligned 32-bit atomic");
        loop {
            // fetch the current word (fetch_add of 0)
            let cur = self.atomic_fetch_add(word, 0, pe);
            let old32 = if lo_half { cur as u32 } else { (cur >> 32) as u32 };
            let new32 = old32.wrapping_add(value);
            let new = if lo_half {
                (cur & 0xFFFF_FFFF_0000_0000) | new32 as u64
            } else {
                (cur & 0x0000_0000_FFFF_FFFF) | ((new32 as u64) << 32)
            };
            let prev = self.atomic_compare_swap(word, cur, new, pe);
            if prev == cur {
                return old32;
            }
        }
    }

    // ---------- ordering & synchronization ----------

    /// `shmem_quiet`: block until every outstanding put by this PE is
    /// complete at its target.
    pub fn quiet(&self) {
        let t0 = self.ctx.now();
        let st = self.m.pe_state(self.id);
        let _in_library = st.enter_library();
        self.m.drain_pending(&self.ctx, self.id);
        loop {
            let list: Vec<_> = std::mem::take(&mut *st.outstanding.borrow_mut());
            if list.is_empty() {
                break;
            }
            for c in list {
                self.ctx.wait_threshold(&c, 1);
            }
        }
        // quiet moves no payload: it lands in size class 0, making
        // flush-dominated stretches visible in the latency summary
        self.m.obs().op_latency("quiet", "quiet", 0, self.ctx.now().since(t0));
    }

    /// `shmem_fence`: ordering of puts to each PE. Implemented as
    /// `quiet` (strictly stronger): waiting for remote completion of
    /// everything outstanding trivially establishes per-target ordering,
    /// regardless of how individual transports interleave.
    pub fn fence(&self) {
        self.quiet();
    }

    /// `shmem_wait_until` on a host-domain symmetric u64. Panics if the
    /// wait times out under an active fault plan — use
    /// [`Pe::try_wait_until`] to handle the typed error instead.
    pub fn wait_until(&self, sym: SymAddr, cmp: Cmp, value: u64) {
        self.try_wait_until(sym, cmp, value)
            .unwrap_or_else(|e| panic!("wait_until({sym:?} {cmp:?} {value}) failed: {e}"));
    }

    /// Fallible `shmem_wait_until`. Unfaulted runs wait without bound;
    /// under an active fault plan the wait shares `sync_wait`'s deadline
    /// (the plan's `op_timeout_ns`, else 2 ms) and a flag that is never
    /// written surfaces as [`TransferError::Timeout`] at the first poll
    /// instant past it — each poll is an event, so the engine's deadlock
    /// detector would never see this wait.
    pub fn try_wait_until(&self, sym: SymAddr, cmp: Cmp, value: u64) -> Result<(), TransferError> {
        assert_eq!(
            sym.domain,
            Domain::Host,
            "wait_until polls host symmetric memory"
        );
        let st = self.m.pe_state(self.id);
        let _in_library = st.enter_library();
        let cell = self.addr_of(sym, self.my_pe());
        self.m.flag_wait(&self.ctx, self.id, None, cell, cmp, value, crate::sync::POLL_INTERVAL)
    }

    // ---------- statistics ----------

    /// Snapshot of this PE's counters.
    pub fn stats(&self) -> PeStats {
        self.m.pe_state(self.id).stats.borrow().clone()
    }
}
