//! Protocol dispatch: executing the design tables of paper §III.
//!
//! The table itself — which protocol serves which (design × locality ×
//! buffer domains × size × GPU↔HCA socket relation) cell — is
//! [`obs::plan::plan`]. This module is what runs a plan: every put and
//! get form goes through [`ShmemMachine::rma`] (shared prologue → plan
//! → one executor `match` → shared epilogue), which also owns the three
//! runtime rules the table leaves open: when to take the degraded
//! route, when that counts as a fallback, and when the non-blocking /
//! fused fast path applies.

use crate::addr::{Domain, SymAddr};
use crate::config::Design;
use crate::error::TransferError;
use crate::machine::{OpToken, ShmemMachine};
use crate::state::Protocol;
use ib_sim::{AtomicOp, RdmaCompletion, Rkey};
use obs::plan::{plan, Op, Route, Step, Unsupported};
use pcie_sim::mem::{MemRef, MemSpace};
use pcie_sim::ProcId;
use sim_core::{Completion, SimDuration, TaskCtx};
use std::sync::Arc;

/// How the origin wants a transfer completed.
#[derive(Clone, Copy)]
pub(crate) enum Form {
    /// Return once the source is reusable (put) or the data has landed
    /// (get).
    Blocking,
    /// `shmem_putmem_nbi` / `shmem_getmem_nbi`: return right after the
    /// post when a single RDMA verb services the transfer.
    Nbi,
    /// `shmem_put_signal`: fuse this 8-byte signal store into the write
    /// when a single RDMA write services the transfer.
    Signal { sig: SymAddr, value: u64 },
}

impl Form {
    /// The op name a transfer records when the form's fast path runs;
    /// everything else behaves, and is recorded, as the blocking op.
    fn name(self, op: Op) -> &'static str {
        match (self, op) {
            (Form::Blocking, _) => op.name(),
            (Form::Nbi, Op::Put) => "put-nbi",
            (Form::Nbi, Op::Get) => "get-nbi",
            (Form::Signal { .. }, _) => "put-signal",
        }
    }
}

/// Flush outstanding one-sided ops of `me` (the quiet loop, callable
/// from machine context). Enters the library and drains pending work
/// first — blocking here without the in-library flag would stop the
/// target-side progress engine and deadlock symmetric exchanges.
fn ctx_quiet(m: &Arc<ShmemMachine>, ctx: &TaskCtx, me: ProcId) {
    let st = m.pe_state(me);
    let _in_library = st.enter_library();
    m.drain_pending(ctx, me);
    loop {
        let list: Vec<_> = std::mem::take(&mut *st.outstanding.lock());
        if list.is_empty() {
            break;
        }
        for c in list {
            ctx.wait_threshold(&c, 1);
        }
    }
}

impl ShmemMachine {
    // ---------- small shared helpers ----------

    /// Make sure `mem` is usable as a local RDMA buffer for `pe`: either
    /// it is covered by an existing MR (symmetric heaps, staging, or a
    /// previous on-demand registration — the registration *cache* hit) or
    /// it gets registered now, paying the cold cost.
    pub(crate) fn ensure_registered(self: &Arc<Self>, ctx: &TaskCtx, pe: ProcId, mem: MemRef, len: u64) {
        if self.ib().mrs().check_local(pe, mem, len).is_ok() {
            return; // cache hit: free
        }
        // Register whole megabyte granules around the access so nearby
        // buffers hit the cache (as production registration caches do —
        // per-request registration would make every new chunk pay the
        // ~30us cold cost).
        const GRANULE: u64 = 1 << 20;
        let base = mem.offset / GRANULE * GRANULE;
        let end = (mem.offset + len).div_ceil(GRANULE) * GRANULE;
        let arena = self
            .cluster()
            .mem()
            .get(mem.space)
            .expect("registering unmapped space");
        let end = end.min(arena.size());
        self.ib()
            .reg_mr(ctx, pe, MemRef::new(mem.space, base), end - base);
    }

    /// Post a work request with bounded retry under the fault plan.
    /// Each injected transient CQE error costs the detection latency,
    /// then an exponentially growing, seeded-jittered backoff before
    /// the repost; exhausting `max_retries` surfaces a typed error.
    /// With no active plan this is exactly one `post()` call.
    pub(crate) fn post_with_retry<T>(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        proto: Protocol,
        token: OpToken,
        mut post: impl FnMut() -> Result<T, ib_sim::MrError>,
    ) -> Result<T, TransferError> {
        let plan = &self.cfg().faults;
        let mut attempt: u32 = 0;
        loop {
            if let Some(f) = self.ib().inject_transient_cqe(me, ctx.now()) {
                self.obs_fault(me, ctx.now(), f.kind, proto.name(), token);
                self.health_on_failure(me, ctx.now(), proto, token);
                ctx.advance(f.detect);
                if attempt >= plan.max_retries {
                    self.obs().fault_tally_at("exhausted", proto.name(), ctx.now());
                    return Err(TransferError::RetriesExhausted {
                        kind: f.kind,
                        attempts: attempt + 1,
                    });
                }
                let backoff = plan.backoff_ns(token.id, attempt);
                self.obs_retry(me, ctx.now(), proto.name(), attempt + 1, backoff, token);
                ctx.advance(SimDuration::from_ns(backoff));
                attempt += 1;
                continue;
            }
            let out = post().map_err(TransferError::Mr)?;
            self.health_on_success(me, ctx.now(), proto, token);
            if attempt > 0 {
                self.obs().fault_tally_at("recovered", proto.name(), ctx.now());
            }
            return Ok(out);
        }
    }

    /// Wait until `comp` reaches `threshold`, bounded by the fault
    /// plan's per-op virtual-time timeout or — when the plan sets none —
    /// the config's quiesce-watchdog deadline (unbounded when both are
    /// zero). On timeout the completion stays outstanding: the op is
    /// poisoned and reported as a typed error carrying the stuck op's
    /// token, protocol and the engine's blocked-task dump, instead of
    /// hanging the simulation forever.
    pub(crate) fn wait_with_timeout(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        comp: &Completion,
        threshold: u64,
        token: OpToken,
        proto: Protocol,
    ) -> Result<(), TransferError> {
        let plan_ns = self.cfg().faults.op_timeout_ns;
        let timeout_ns = if plan_ns > 0 { plan_ns } else { self.cfg().quiesce_ns };
        match ctx.wait_threshold_deadline(comp, threshold, SimDuration::from_ns(timeout_ns)) {
            Ok(()) => Ok(()),
            Err(dump) => {
                self.obs().fault_tally_at("timeout", proto.name(), ctx.now());
                Err(TransferError::Timeout {
                    after_ns: timeout_ns,
                    diag: format!(
                        "op {:#x} ({}) stuck at completion>={threshold} \
                         (have {} of {threshold})\n{dump}",
                        token.id,
                        proto.name(),
                        comp.peek(),
                    ),
                })
            }
        }
    }

    /// Node-local CPU copy through the shared segment (or private host
    /// memory): the `shmem_ptr` fast path. Synchronous.
    pub(crate) fn shm_copy(self: &Arc<Self>, ctx: &TaskCtx, src: MemRef, dst: MemRef, len: u64) {
        let hw = self.cluster().hw();
        ctx.advance(hw.host.memcpy_overhead + SimDuration::for_bytes(len, hw.host.memcpy_bw));
        self.cluster()
            .mem()
            .copy(src, dst, len)
            .expect("shm copy endpoints");
    }

    /// One synchronous CUDA copy (IPC paths, any H/D combination).
    pub(crate) fn cuda_copy(self: &Arc<Self>, ctx: &TaskCtx, src: MemRef, dst: MemRef, len: u64) {
        self.gpus().memcpy_sync(ctx, src, dst, len);
    }

    /// A single RDMA write: post, then — by `form` — wait *local*
    /// completion (source reusable), or return right after the post
    /// (`shmem_putmem_nbi`: the source is not reusable until `quiet`),
    /// or fuse the signal store behind the payload. The remote
    /// completion is tracked for `quiet`, and the op's flow ends on the
    /// *target's* track there — the one-sided delivery point. Transient
    /// CQE faults are retried; timeouts and exhausted retries surface
    /// as typed errors.
    #[allow(clippy::too_many_arguments)]
    fn rdma_put(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        src: MemRef,
        rkey: Rkey,
        dst: MemRef,
        len: u64,
        form: Form,
        target: ProcId,
        token: OpToken,
        proto: Protocol,
    ) -> Result<(), TransferError> {
        self.ensure_registered(ctx, me, src, len);
        let comp = self.post_with_retry(ctx, me, proto, token, || match form {
            Form::Signal { sig, value } => {
                ctx.advance(self.cluster().hw().ib.post_overhead);
                let comp = RdmaCompletion::new();
                let sig_rkey = self.layout().rkey(Domain::Host, target);
                let sig_dst = self.layout().resolve(sig, target);
                ctx.with_sched(|s| {
                    self.ib().rdma_write_signal_start(
                        s, me, src, rkey, dst, len, sig_rkey, sig_dst, value, &comp,
                    )
                })?;
                Ok(comp)
            }
            Form::Blocking | Form::Nbi => self.ib().post_rdma_write(ctx, me, src, rkey, dst, len),
        })?;
        if let Form::Nbi = form {
            self.pe_state(me).track(comp.local);
        } else {
            self.wait_with_timeout(ctx, &comp.local, 1, token, proto)?;
        }
        self.flow_end_on(ctx, &comp.remote, 1, self.pe_track(target), token);
        self.pe_state(me).track(comp.remote);
        Ok(())
    }

    /// A single RDMA read: blocking until the data is locally available
    /// (or the fault plan's per-op timeout expires), or — `nbi` — posted
    /// and tracked, `quiet` guaranteeing local delivery. Transient CQE
    /// faults are retried with backoff before the post goes through.
    #[allow(clippy::too_many_arguments)]
    fn rdma_get(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        rkey: Rkey,
        src: MemRef,
        len: u64,
        nbi: bool,
        token: OpToken,
        proto: Protocol,
    ) -> Result<(), TransferError> {
        self.ensure_registered(ctx, me, dst, len);
        let done = self.post_with_retry(ctx, me, proto, token, || {
            self.ib().post_rdma_read(ctx, me, dst, rkey, src, len)
        })?;
        if !nbi {
            return self.wait_with_timeout(ctx, &done, 1, token, proto);
        }
        // a get completes locally: the flow ends on the origin track
        // when the read's data lands
        self.flow_end_on(ctx, &done, 1, self.pe_track(me), token);
        self.pe_state(me).track(done);
        Ok(())
    }

    fn count(&self, me: ProcId, p: Protocol) {
        self.pe_state(me).stats.lock().count(p);
    }

    /// Is the GPU backing `mem` on the same socket as `hca_owner`'s HCA
    /// (true for host memory)?
    fn mem_gpu_intra_socket(&self, mem: MemRef, hca_owner: ProcId) -> bool {
        match mem.space {
            MemSpace::Device(g) => {
                let topo = self.cluster().topo();
                topo.gpu_hca_intra_socket(g, topo.hca_of(hca_owner))
            }
            _ => true,
        }
    }

    /// Human label of [`Self::mem_gpu_intra_socket`] for decision
    /// records: `"host"` when `mem` is not device memory.
    fn socket_rel_of(&self, mem: MemRef, hca_owner: ProcId) -> &'static str {
        match mem.space {
            MemSpace::Device(_) if self.mem_gpu_intra_socket(mem, hca_owner) => "intra-socket",
            MemSpace::Device(_) => "inter-socket",
            _ => "host",
        }
    }

    /// Bounds-check a symmetric access against its heap: protects the
    /// staging/sync areas that sit after the host heap in the segment
    /// (an oversized put would otherwise silently corrupt them).
    pub(crate) fn check_sym_range(&self, sym: crate::addr::SymAddr, len: u64) {
        let heap = match sym.domain {
            crate::addr::Domain::Host => self.cfg().host_heap,
            crate::addr::Domain::Gpu => self.cfg().gpu_heap,
        };
        assert!(
            sym.offset.checked_add(len).is_some_and(|end| end <= heap),
            "symmetric access {sym}+{len} overruns the {} {} -byte heap",
            sym.domain,
            heap
        );
    }

    // ---------- put / get ----------

    /// `shmem_putmem(dest, source, len, pe)`.
    pub(crate) fn do_put(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dest: SymAddr,
        src: MemRef,
        len: u64,
        target: ProcId,
    ) -> Result<(), TransferError> {
        self.rma(ctx, me, Op::Put, Form::Blocking, src, dest, len, target)
            .map(drop)
    }

    /// `shmem_getmem(dest_local, source_sym, len, pe)`.
    pub(crate) fn do_get(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        source: SymAddr,
        len: u64,
        from: ProcId,
    ) -> Result<(), TransferError> {
        self.rma(ctx, me, Op::Get, Form::Blocking, dst, source, len, from)
            .map(drop)
    }

    /// `shmem_putmem_nbi`: non-blocking put. RDMA-serviced paths return
    /// right after the post; copy/pipeline paths retain their protocol's
    /// natural local-completion point (as real implementations do).
    /// `quiet` completes everything.
    pub(crate) fn do_put_nbi(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dest: SymAddr,
        src: MemRef,
        len: u64,
        target: ProcId,
    ) -> Result<(), TransferError> {
        self.rma(ctx, me, Op::Put, Form::Nbi, src, dest, len, target)
            .map(drop)
    }

    /// `shmem_getmem_nbi`: the RDMA read is posted and tracked; `quiet`
    /// guarantees local delivery.
    pub(crate) fn do_get_nbi(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        source: SymAddr,
        len: u64,
        from: ProcId,
    ) -> Result<(), TransferError> {
        self.rma(ctx, me, Op::Get, Form::Nbi, dst, source, len, from)
            .map(drop)
    }

    /// `shmem_put_signal`: fused data + signal when the path is
    /// RDMA-serviced (Enhanced-GDR small/medium and H-H); otherwise the
    /// safe decomposition put + fence + flag put.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn do_put_signal(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dest: SymAddr,
        src: MemRef,
        len: u64,
        sig: SymAddr,
        sig_value: u64,
        target: ProcId,
    ) -> Result<(), TransferError> {
        assert_eq!(
            sig.domain,
            Domain::Host,
            "signals live in host symmetric memory (wait_until polls them)"
        );
        let form = Form::Signal {
            sig,
            value: sig_value,
        };
        if self.rma(ctx, me, Op::Put, form, src, dest, len, target)? {
            return Ok(());
        }
        // decomposition: the data (if any) is delivered; order, then
        // raise the signal
        ctx_quiet(self, ctx, me);
        let scratch = self.sync_scratch(me);
        self.cluster()
            .mem()
            .write_bytes(scratch, &sig_value.to_le_bytes())
            .expect("signal scratch");
        self.do_put(ctx, me, sig, scratch, 8, target)
    }

    /// One one-sided transfer between `local` memory of `me` and the
    /// symmetric object `sym` on `peer`: shared prologue (gate, token,
    /// library guard, drain, stats) → [`plan`] → the executor → shared
    /// epilogue (count, decision record, flow end). Returns whether the
    /// fast path of `form` ran.
    ///
    /// The table names a healthy and a GDR-free degraded choice; three
    /// rules pick and report. *Degrade* iff GDR is off for the pair
    /// (capability fault at either end, or the direct fabric cut) or
    /// the healthy choice is direct GDR and the node's breaker says
    /// avoid — consulted only then, which is also what admits the
    /// half-open probe. Record a *fallback* iff the step taken is not
    /// the healthy one. The *fast path* of a non-blocking or fused form
    /// applies iff the design is Enhanced-GDR, nothing degraded, and
    /// the step is a single RDMA verb; otherwise the op runs, and is
    /// recorded, as its blocking form.
    #[allow(clippy::too_many_arguments)]
    fn rma(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        op: Op,
        form: Form,
        local: MemRef,
        sym: SymAddr,
        len: u64,
        peer: ProcId,
    ) -> Result<bool, TransferError> {
        if len == 0 {
            // zero-byte ops land in size-class 0 so quiet-only windows
            // still show up in the histograms
            self.obs().latency(form.name(op), 0, SimDuration::ZERO);
            return Ok(false);
        }
        self.peer_gate(ctx, me, peer)?;
        let t0 = ctx.now();
        let token = self.next_op(me);
        let st = self.pe_state(me);
        let _in_library = st.enter_library();
        self.drain_pending(ctx, me);
        {
            let mut s = st.stats.lock();
            match op {
                Op::Put => {
                    s.puts += 1;
                    s.bytes_put += len;
                }
                Op::Get => {
                    s.gets += 1;
                    s.bytes_get += len;
                }
            }
        }
        self.check_sym_range(sym, len);
        let remote = self.layout().resolve(sym, peer);
        let rkey = self.layout().rkey(sym.domain, peer);
        // src/dst follow the data; the HCA that writes into dst is the
        // owner's
        let (src, dst, dst_owner) = match op {
            Op::Put => (local, remote, peer),
            Op::Get => (remote, local, me),
        };
        let cfg = self.cfg();
        let route = Route {
            design: cfg.design,
            self_op: me == peer,
            same_node: self.cluster().topo().same_node(me, peer),
            src_dev: src.is_device(),
            dst_dev: dst.is_device(),
            dst_gpu_intra_socket: self.mem_gpu_intra_socket(dst, dst_owner),
            proxy_enabled: cfg.proxy_enabled,
        };
        let plan = plan(op, &route, len, &cfg.limits).unwrap_or_else(|u| match (u, op) {
            (Unsupported::NaiveGpuBuffer, Op::Put) => panic!(
                "Naive design: GPU buffers must be staged manually with cudaMemcpy \
                 (put {src} -> {dst})"
            ),
            (Unsupported::NaiveGpuBuffer, Op::Get) => {
                panic!("Naive design: GPU buffers must be staged manually with cudaMemcpy")
            }
            (Unsupported::HostPipelineMixedInterNode, _) => panic!(
                "Host-Pipeline design does not support inter-node \
                 H-D / D-H configurations (paper Table I)"
            ),
        });

        // Capability fault (GDR administratively dead at either end) or
        // reachability fault (the pair's direct/GDR fabric severed by an
        // asymmetric cut): every GDR protocol must re-route onto the
        // still-reachable proxy/host-staged paths.
        let dev = route.src_dev || route.dst_dev;
        let cut = self.cut_now(me, peer);
        if cut && dev {
            self.note_cut(me, peer, ctx.now());
        }
        let gdr_off = dev && (self.gdr_disabled_at(me) || self.gdr_disabled_at(peer) || cut);
        // Health demotion: an op that would go direct GDR takes the same
        // route while the breaker is open (a lapsed cooldown admits it
        // as the probe).
        let degrade = gdr_off
            || (plan.healthy.0 == Protocol::DirectGdr
                && self.health_avoid(me, ctx.now(), Protocol::DirectGdr, token));
        let (label, step) = if degrade { plan.degraded } else { plan.healthy };
        if step != plan.healthy.1 {
            self.obs_fallback(
                me,
                ctx.now(),
                op.name(),
                plan.healthy.0.name(),
                label.name(),
                token,
            );
        }
        let fast = cfg.design == Design::EnhancedGdr
            && !degrade
            && matches!(
                (form, step),
                (Form::Nbi, Step::RdmaWrite | Step::RdmaRead)
                    | (Form::Signal { .. }, Step::RdmaWrite)
            );
        let form = if fast { form } else { Form::Blocking };

        match step {
            Step::ShmCopy => self.shm_copy(ctx, src, dst, len),
            Step::CudaCopy => self.cuda_copy(ctx, src, dst, len),
            Step::TwoCopyStaged => self.two_copy_staged(ctx, me, src, dst, len)?,
            Step::RdmaWrite => {
                self.rdma_put(ctx, me, src, rkey, dst, len, form, peer, token, label)?
            }
            Step::RdmaRead => self.rdma_get(ctx, me, dst, rkey, src, len, fast, token, label)?,
            Step::ChunkedDirectRead => {
                self.chunked_direct_get(ctx, me, dst, rkey, src, len, token)?
            }
            Step::PipelineGdrPut => {
                self.pipeline_gdr_put(ctx, me, src, dst, sym.domain, len, peer, token)?
            }
            Step::ProxyPut => self.proxy_put(ctx, me, src, dst, len, peer, token)?,
            Step::ProxyGet => self.proxy_get(ctx, me, dst, src, len, peer, token)?,
            Step::StagedGet { via_proxy } => {
                self.staged_get(ctx, me, dst, rkey, src, len, peer, token, via_proxy)?
            }
            Step::HostPipelinePut => self.host_pipeline_put(ctx, me, src, dst, len, peer, token)?,
            Step::HostPipelineGet => self.host_pipeline_get(ctx, me, dst, src, len, peer, token)?,
        }

        self.count(me, label);
        // the device end (the remote one first — the peer's HCA DMAs
        // into or out of its GPU) drives the P2P path of paper Table III
        let socket_rel = if remote.is_device() {
            self.socket_rel_of(remote, peer)
        } else {
            self.socket_rel_of(local, me)
        };
        self.obs_op(
            form.name(op),
            me,
            peer,
            label,
            len,
            route.src_dev,
            route.dst_dev,
            route.same_node,
            socket_rel,
            t0,
            ctx.now(),
            token,
            plan.candidates,
            plan.consulted,
        );
        // Synchronous copies and every blocking get deliver before
        // returning, so the flow ends right here; RDMA/pipeline puts and
        // the posted read attached their ends to the completion inside
        // the protocol.
        let delivered = match op {
            Op::Put => matches!(step, Step::ShmCopy | Step::CudaCopy | Step::TwoCopyStaged),
            Op::Get => !fast,
        };
        if delivered {
            self.flow_end_at(self.pe_track(me), ctx.now(), token);
        }
        Ok(fast)
    }

    // ---------- atomic ----------

    /// 64-bit fetching atomic on symmetric memory.
    pub(crate) fn do_atomic(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        target_sym: SymAddr,
        target: ProcId,
        op: AtomicOp,
    ) -> Result<u64, TransferError> {
        self.peer_gate(ctx, me, target)?;
        let t0 = ctx.now();
        let token = self.next_op(me);
        let st = self.pe_state(me);
        let _in_library = st.enter_library();
        self.drain_pending(ctx, me);
        st.stats.lock().atomics += 1;
        if self.cfg().design != Design::EnhancedGdr && target_sym.is_gpu() {
            panic!(
                "{} design does not support atomics on GPU symmetric memory \
                 (GDR hardware atomics are an Enhanced-GDR feature)",
                self.cfg().design.name()
            );
        }
        if target_sym.is_gpu() && (self.gdr_disabled_at(target) || self.cut_now(me, target)) {
            // Without GDR (disabled, or this pair's direct lane severed
            // by a cut) the HCA cannot issue atomics against GPU
            // memory, and no software path preserves atomicity against
            // concurrent hardware atomics: a typed error, not a fallback.
            if self.cut_now(me, target) {
                self.note_cut(me, target, ctx.now());
            }
            return Err(TransferError::CapabilityDisabled {
                what: "gdr-atomic",
                node: self.cluster().topo().node_of(target).0,
            });
        }
        let dst = self.layout().resolve(target_sym, target);
        let rkey = self.layout().rkey(target_sym.domain, target);
        let res = self.post_with_retry(ctx, me, Protocol::HwAtomic, token, || {
            self.ib().post_atomic(ctx, me, rkey, dst, op)
        })?;
        self.wait_with_timeout(ctx, &res.done, 1, token, Protocol::HwAtomic)?;
        self.count(me, Protocol::HwAtomic);
        self.obs_op(
            "atomic",
            me,
            target,
            Protocol::HwAtomic,
            8,
            false,
            target_sym.is_gpu(),
            self.cluster().topo().same_node(me, target),
            self.socket_rel_of(dst, target),
            t0,
            ctx.now(),
            token,
            &[Protocol::HwAtomic],
            &[],
        );
        // The atomic acted on the target's memory; end the flow there.
        self.flow_end_at(self.pe_track(target), ctx.now(), token);
        Ok(res
            .value()
            .expect("atomic completion signaled but result slot empty"))
    }

    /// Capability fallback for gets when GDR is disabled: land the data
    /// in registered *host* staging (host-RDMA read or proxy pipeline —
    /// neither touches GDR), then finish with plain H2D cudaMemcpy.
    /// Loops in staging-capacity pieces so transfers larger than the
    /// staging arena still fit.
    #[allow(clippy::too_many_arguments)]
    fn staged_get(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        dst: MemRef,
        rkey: Rkey,
        src: MemRef,
        len: u64,
        from: ProcId,
        token: OpToken,
        via_proxy: bool,
    ) -> Result<(), TransferError> {
        let cap = self.cfg().staging;
        let mut done = 0u64;
        while done < len {
            let n = cap.min(len - done);
            let off = self.alloc_staging_blocking(ctx, me, n)?;
            let stg = self.layout().staging_base(me).add(off);
            let r = if via_proxy {
                self.proxy_get(ctx, me, stg, src.add(done), n, from, token)
            } else {
                let label = Protocol::HostPipelineStaged;
                self.rdma_get(ctx, me, stg, rkey, src.add(done), n, false, token, label)
            };
            if r.is_ok() {
                self.cuda_copy(ctx, stg, dst.add(done), n);
            }
            self.pe_state(me).staging_alloc.lock().free(off, n);
            r?;
            done += n;
        }
        Ok(())
    }

    /// The baseline's two-copy staged path (inter-domain intra-node):
    /// CUDA copy into own staging, then a second copy to the final spot.
    fn two_copy_staged(
        self: &Arc<Self>,
        ctx: &TaskCtx,
        me: ProcId,
        src: MemRef,
        dst: MemRef,
        len: u64,
    ) -> Result<(), TransferError> {
        let off = self.alloc_staging_blocking(ctx, me, len)?;
        let stg = self.layout().staging_base(me).add(off);
        // copy 1: into staging (CUDA if either end is a device)
        if src.is_device() {
            self.cuda_copy(ctx, src, stg, len);
        } else {
            self.shm_copy(ctx, src, stg, len);
        }
        // copy 2: staging to destination
        if dst.is_device() {
            self.cuda_copy(ctx, stg, dst, len);
        } else {
            self.shm_copy(ctx, stg, dst, len);
        }
        self.pe_state(me).staging_alloc.lock().free(off, len);
        Ok(())
    }
}
