//! The protocol-selection table of paper §III, written once: locality ×
//! buffer domains × message size × GPU↔HCA socket relation → protocol.
//!
//! [`plan`] is a pure function of a [`Route`], a length and the six
//! [`Limits`]. The runtime executes the [`Step`] it returns, the
//! decision record serialises its candidates and consulted thresholds,
//! and `gdrprof whatif` calls it again under an alternate table — there
//! is no second copy of these rules to keep in step.
//!
//! A [`Plan`] carries two choices. `healthy` is what the table picks
//! when nothing is wrong; `degraded` is the route that touches no
//! GPUDirect path, taken when GDR is unavailable for the pair
//! (capability fault, severed direct fabric) or when `healthy` is
//! direct GDR and the node's health breaker says to avoid it. Which of
//! the two runs is the runtime's call; the table only names both.

/// Which OpenSHMEM runtime design services communication operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Design {
    /// The basic OpenSHMEM model: host-to-host communication only; users
    /// stage GPU data with explicit cudaMemcpy (paper Table I "Naive").
    Naive,
    /// The CUDA-aware host-based pipeline of Potluri et al. [15]
    /// (IPDPS'13): IPC copies intra-node, D2H→IB→H2D pipeline inter-node,
    /// target process involved in the last stage.
    HostPipeline,
    /// This paper's contribution: GDR loopback + IPC hybrid intra-node,
    /// direct-GDR / pipeline-GDR-write / proxy inter-node — truly
    /// one-sided in every configuration.
    #[default]
    EnhancedGdr,
}

impl Design {
    pub fn name(self) -> &'static str {
        match self {
            Design::Naive => "Naive",
            Design::HostPipeline => "Host-Pipeline",
            Design::EnhancedGdr => "Enhanced-GDR",
        }
    }
}

/// Which concrete protocol serviced an operation — the label the
/// runtime counts, records and keys retries and health breakers by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Protocol {
    /// Node-local CPU copy through the shared segment (`shmem_ptr` path).
    ShmCopy = 0,
    /// Single CUDA (IPC) copy, source-driven.
    IpcCopy,
    /// Two-copy staged path through the source's staging area
    /// (the baseline's unoptimized inter-domain intra-node path).
    TwoCopyStaged,
    /// GDR loopback RDMA through the PE's own HCA (intra-node).
    LoopbackGdr,
    /// Direct GDR RDMA to/from the remote node (inter-node small/medium).
    DirectGdr,
    /// Chunked D2H staging + GDR RDMA write, truly one-sided (inter-node
    /// large puts).
    PipelineGdrWrite,
    /// Host-based pipeline with target-side final copy [15]
    /// (breaks one-sidedness).
    HostPipelineStaged,
    /// Node-proxy reverse pipeline (inter-node large gets).
    ProxyPipeline,
    /// Plain host RDMA (H-H inter-node, both designs).
    HostRdma,
    /// IB hardware atomic (possibly via GDR).
    HwAtomic,
}

impl Protocol {
    pub const COUNT: usize = 10;

    /// Every protocol, in counter-index order (for rendering loops).
    pub const ALL: [Protocol; Protocol::COUNT] = [
        Protocol::ShmCopy,
        Protocol::IpcCopy,
        Protocol::TwoCopyStaged,
        Protocol::LoopbackGdr,
        Protocol::DirectGdr,
        Protocol::PipelineGdrWrite,
        Protocol::HostPipelineStaged,
        Protocol::ProxyPipeline,
        Protocol::HostRdma,
        Protocol::HwAtomic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Protocol::ShmCopy => "shm-copy",
            Protocol::IpcCopy => "ipc-copy",
            Protocol::TwoCopyStaged => "two-copy-staged",
            Protocol::LoopbackGdr => "loopback-gdr",
            Protocol::DirectGdr => "direct-gdr",
            Protocol::PipelineGdrWrite => "pipeline-gdr-write",
            Protocol::HostPipelineStaged => "host-pipeline-staged",
            Protocol::ProxyPipeline => "proxy-pipeline",
            Protocol::HostRdma => "host-rdma",
            Protocol::HwAtomic => "hw-atomic",
        }
    }

    /// Inverse of [`Protocol::name`] — an SLO violation carries only the
    /// protocol's name, and the health bridge needs the enum back.
    pub fn from_name(name: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// The six protocol-switch thresholds (paper §IV's tuning knobs; the
/// moral equivalents of `MV2_GPUDIRECT_LIMIT` and friends): their
/// names, their tuned values and the one name → field map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Intra-node: use GDR loopback for puts up to this size (beyond it,
    /// CUDA IPC copies win; the binding constraint is the inter-socket
    /// P2P write cap when the peer's GPU is on the other socket).
    pub loopback_put_limit: u64,
    /// Intra-node: use GDR loopback for gets up to this size. Much lower
    /// than the put limit: a loopback get is a P2P *read* from the peer
    /// GPU, and the inter-socket read cap is catastrophic (paper: "the
    /// only difference is the threshold as this operation involves a P2P
    /// read from the GPU", §III-B).
    pub loopback_get_limit: u64,
    /// Intra-node D-D uses "the least GDR threshold" (paper §III-B):
    /// both endpoints pay P2P caps, so loopback wins only when tiny.
    pub loopback_dd_limit: u64,
    /// Inter-node: direct-GDR puts up to this size when the *source* is
    /// on the GPU (P2P read gather caps the streaming rate).
    pub gdr_put_limit: u64,
    /// Inter-node: direct-GDR gets up to this size when the *remote*
    /// buffer is on the GPU.
    pub gdr_get_limit: u64,
    /// Minimum message size that engages the proxy for gets: below it,
    /// chunked direct reads win (the proxy signal + staging overhead
    /// only pays off once the P2P read cap dominates).
    pub proxy_get_min: u64,
}

impl Limits {
    /// The names decision records cite and `thresholds-v1` artifacts
    /// carry, in field order.
    pub const NAMES: [&'static str; 6] = [
        "loopback_put_limit",
        "loopback_get_limit",
        "loopback_dd_limit",
        "gdr_put_limit",
        "gdr_get_limit",
        "proxy_get_min",
    ];

    /// Tuned for the Wilkes-like hardware profile.
    pub const TUNED: Limits = Limits {
        loopback_put_limit: 4 << 10,
        loopback_get_limit: 1 << 10,
        loopback_dd_limit: 2 << 10,
        gdr_put_limit: 32 << 10,
        gdr_get_limit: 16 << 10,
        proxy_get_min: 512 << 10,
    };

    fn field(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "loopback_put_limit" => &mut self.loopback_put_limit,
            "loopback_get_limit" => &mut self.loopback_get_limit,
            "loopback_dd_limit" => &mut self.loopback_dd_limit,
            "gdr_put_limit" => &mut self.gdr_put_limit,
            "gdr_get_limit" => &mut self.gdr_get_limit,
            "proxy_get_min" => &mut self.proxy_get_min,
            _ => return None,
        })
    }

    /// Set one threshold by name; rejects names the table does not
    /// consult (fail loud, not silent).
    pub fn set(&mut self, name: &str, value: u64) -> Result<(), String> {
        match self.field(name) {
            Some(f) => {
                *f = value;
                Ok(())
            }
            None => Err(format!(
                "unknown threshold {name:?} (known: {})",
                Limits::NAMES.join(", ")
            )),
        }
    }

    /// The value of one threshold by name.
    pub fn get(mut self, name: &str) -> Option<u64> {
        self.field(name).map(|f| *f)
    }
}

/// Direction of a one-sided transfer, as the origin sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Put,
    Get,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
        }
    }
}

/// Everything about one transfer the table looks at, besides its
/// length. `src`/`dst` follow the data: a get's source is the remote
/// buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Route {
    pub design: Design,
    /// Origin and peer are the same PE.
    pub self_op: bool,
    /// Origin and peer share a node (true for a self op).
    pub same_node: bool,
    pub src_dev: bool,
    pub dst_dev: bool,
    /// The destination GPU sits on the socket of the HCA that would
    /// DMA-write into it (paper Table III's fast P2P-write case); true
    /// when the destination is host memory.
    pub dst_gpu_intra_socket: bool,
    /// The node proxy may service large gets from GPU memory.
    pub proxy_enabled: bool,
}

/// The executable actions a plan can name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Node-local CPU copy through the shared segment.
    ShmCopy,
    /// One synchronous CUDA copy (IPC paths, any H/D combination).
    CudaCopy,
    /// CUDA copy into own staging, then a second copy to the final spot.
    TwoCopyStaged,
    /// A single RDMA write (host RDMA, GDR loopback or direct GDR).
    RdmaWrite,
    /// A single RDMA read.
    RdmaRead,
    /// Chunked direct GDR reads, paying the P2P read bottleneck (large
    /// gets from GPU memory with the proxy disabled or below its floor).
    ChunkedDirectRead,
    /// Chunked D2H staging + RDMA writes, truly one-sided.
    PipelineGdrPut,
    /// Host RDMA into target host staging; the target's proxy performs
    /// the final H2D.
    ProxyPut,
    /// The remote proxy runs the reverse pipeline into the origin's
    /// landing buffer.
    ProxyGet,
    /// Land the data in registered host staging — by host RDMA read, or
    /// through the remote proxy — then finish with H2D copies.
    StagedGet { via_proxy: bool },
    /// The baseline's D2H → IB → H2D pipeline, target finishes the put.
    HostPipelinePut,
    /// The baseline's get: the target serves the request.
    HostPipelineGet,
}

/// Cells of the design table that do not exist (paper Table I).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Unsupported {
    /// The Naive design moves host buffers only.
    NaiveGpuBuffer,
    /// The Host-Pipeline baseline has no inter-node H-D / D-H path.
    HostPipelineMixedInterNode,
}

/// One labelled action: the protocol it counts as, and what to execute.
pub type Choice = (Protocol, Step);

/// What [`plan`] decides for one transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Plan {
    pub healthy: Choice,
    /// The GDR-free route; equal to `healthy` where that already is one.
    pub degraded: Choice,
    /// Every protocol the size and socket axes of this cell choose
    /// between under the given config.
    pub candidates: &'static [Protocol],
    /// Names ([`Limits::NAMES`]) of the thresholds this cell compares
    /// the length against.
    pub consulted: &'static [&'static str],
}

/// The dispatch table.
pub fn plan(op: Op, r: &Route, len: u64, l: &Limits) -> Result<Plan, Unsupported> {
    use Protocol::*;
    const SHM: Choice = (ShmCopy, Step::ShmCopy);
    const IPC: Choice = (IpcCopy, Step::CudaCopy);
    const STAGED: Choice = (TwoCopyStaged, Step::TwoCopyStaged);
    // a cell with one protocol, nothing to degrade to and no threshold
    let only = |c: Choice, candidates| Plan {
        healthy: c,
        degraded: c,
        candidates,
        consulted: &[],
    };
    let rdma = match op {
        Op::Put => Step::RdmaWrite,
        Op::Get => Step::RdmaRead,
    };
    let dev = r.src_dev || r.dst_dev;

    if r.self_op {
        // a local copy, whatever the design
        return Ok(if dev {
            only(IPC, &[IpcCopy])
        } else {
            only(SHM, &[ShmCopy])
        });
    }
    if !dev {
        // host to host: every design copies through the shared segment
        // on a node and uses plain RDMA between nodes
        return Ok(if r.same_node {
            only(SHM, &[ShmCopy])
        } else {
            only((HostRdma, rdma), &[HostRdma])
        });
    }
    Ok(match (r.design, r.same_node) {
        (Design::Naive, _) => return Err(Unsupported::NaiveGpuBuffer),

        // D-H (a put from my GPU, a get from the peer's): the
        // unoptimized inter-domain path, two copies through staging;
        // everything else with a GPU end is a single IPC copy
        (Design::HostPipeline, true) if r.src_dev && !r.dst_dev => only(STAGED, &[TwoCopyStaged]),
        (Design::HostPipeline, true) => only(IPC, &[IpcCopy]),
        (Design::HostPipeline, false) if r.src_dev && r.dst_dev => {
            let step = match op {
                Op::Put => Step::HostPipelinePut,
                Op::Get => Step::HostPipelineGet,
            };
            only((HostPipelineStaged, step), &[HostPipelineStaged])
        }
        (Design::HostPipeline, false) => return Err(Unsupported::HostPipelineMixedInterNode),

        // GDR loopback through the own HCA while small, one CUDA copy
        // (IPC-mapped peer / shared segment visible to cudaMemcpy, the
        // shmem_ptr design of paper Fig. 3) beyond; without GDR the
        // loopback is an HCA round trip through GPU memory it cannot make
        (Design::EnhancedGdr, true) => {
            let (limit, consulted): (u64, &'static [&'static str]) = match op {
                Op::Get => (l.loopback_get_limit, &["loopback_get_limit"]),
                // D-D pays P2P caps on both ends of the loopback: the
                // least threshold (§III-B)
                Op::Put if r.src_dev && r.dst_dev => (
                    l.loopback_dd_limit.min(l.loopback_put_limit),
                    &["loopback_put_limit", "loopback_dd_limit"],
                ),
                Op::Put => (l.loopback_put_limit, &["loopback_put_limit"]),
            };
            Plan {
                healthy: if len <= limit {
                    (LoopbackGdr, rdma)
                } else {
                    IPC
                },
                degraded: IPC,
                candidates: &[LoopbackGdr, IpcCopy],
                consulted,
            }
        }

        (Design::EnhancedGdr, false) if op == Op::Put => {
            // Direct GDR for small/medium, and for a host source with a
            // clean P2P write path at every size.
            let direct_ok = len <= l.gdr_put_limit || (!r.src_dev && r.dst_gpu_intra_socket);
            let proxy: Choice = (ProxyPipeline, Step::ProxyPut);
            let pipeline: Choice = (PipelineGdrWrite, Step::PipelineGdrPut);
            Plan {
                healthy: if direct_ok {
                    (DirectGdr, Step::RdmaWrite)
                } else if r.dst_dev && !r.dst_gpu_intra_socket {
                    // P2P write bottleneck at the target: stage into
                    // target host memory, its proxy performs the final
                    // H2D — still one-sided
                    proxy
                } else {
                    pipeline
                },
                // no HCA<->GPU DMA at either end: the proxy put (host
                // RDMA + proxy-side H2D) and the D2H-staged pipeline
                // into a host destination never touch GDR
                degraded: if r.dst_dev { proxy } else { pipeline },
                candidates: &[DirectGdr, PipelineGdrWrite, ProxyPipeline],
                consulted: &["gdr_put_limit"],
            }
        }

        // remote host: a direct RDMA read at any size (the local
        // scatter is the strong P2P write direction); without GDR, a
        // plain host RDMA read into staging finished by H2D copies
        (Design::EnhancedGdr, false) if !r.src_dev => Plan {
            healthy: (DirectGdr, Step::RdmaRead),
            degraded: (HostPipelineStaged, Step::StagedGet { via_proxy: false }),
            candidates: &[DirectGdr],
            consulted: &[],
        },

        (Design::EnhancedGdr, false) => {
            let healthy = if len <= l.gdr_get_limit {
                (DirectGdr, Step::RdmaRead)
            } else if r.proxy_enabled && len >= l.proxy_get_min {
                // large get from remote GPU memory: the remote proxy
                // runs the reverse pipeline, target PE never involved
                (ProxyPipeline, Step::ProxyGet)
            } else {
                (DirectGdr, Step::ChunkedDirectRead)
            };
            // the remote proxy stages D2H on its node and host-RDMA-
            // writes into my landing buffer; a device destination takes
            // one extra local H2D copy
            let degraded = if r.dst_dev {
                (ProxyPipeline, Step::StagedGet { via_proxy: true })
            } else {
                (ProxyPipeline, Step::ProxyGet)
            };
            // candidates follow the config: a disabled proxy is not one
            let (candidates, consulted): (&[Protocol], &[&str]) = if r.proxy_enabled {
                (
                    &[DirectGdr, ProxyPipeline],
                    &["gdr_get_limit", "proxy_get_min"],
                )
            } else {
                (&[DirectGdr], &["gdr_get_limit"])
            };
            Plan {
                healthy,
                degraded,
                candidates,
                consulted,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGNS: [Design; 3] = [Design::Naive, Design::HostPipeline, Design::EnhancedGdr];

    /// Every route, with the lengths on both sides of every threshold.
    fn space() -> Vec<(Op, Route, u64)> {
        let mut lens = vec![0, 8, 4 << 20, u64::MAX];
        for name in Limits::NAMES {
            let v = Limits::TUNED.get(name).unwrap();
            lens.extend([v - 1, v, v + 1]);
        }
        let mut out = Vec::new();
        for op in [Op::Put, Op::Get] {
            for design in DESIGNS {
                for bits in 0u32..64 {
                    let b = |i: u32| bits & (1 << i) != 0;
                    let r = Route {
                        design,
                        self_op: b(0),
                        same_node: b(0) || b(1),
                        src_dev: b(2),
                        dst_dev: b(3),
                        dst_gpu_intra_socket: !b(3) || b(4),
                        proxy_enabled: b(5),
                    };
                    out.extend(lens.iter().map(|&len| (op, r, len)));
                }
            }
        }
        out
    }

    #[test]
    fn every_cell_is_self_consistent() {
        use Protocol::*;
        let l = Limits::TUNED;
        for (op, r, len) in space() {
            let Ok(p) = plan(op, &r, len, &l) else {
                assert!(
                    !r.self_op && r.design != Design::EnhancedGdr,
                    "{op:?} {r:?}"
                );
                continue;
            };
            let cell = format!("{op:?} {r:?} len={len}: {p:?}");
            assert!(p.candidates.contains(&p.healthy.0), "{cell}");
            assert!(
                p.consulted.iter().all(|n| Limits::NAMES.contains(n)),
                "{cell}"
            );
            // the degraded route never drives the HCA against GPU memory
            if r.src_dev || r.dst_dev {
                assert!(!matches!(p.degraded.0, LoopbackGdr | DirectGdr), "{cell}");
                assert_ne!(p.degraded.1, Step::ChunkedDirectRead, "{cell}");
            } else {
                assert_eq!(p.degraded, p.healthy, "{cell}");
            }
            // one label, one kind of step
            for (label, step) in [p.healthy, p.degraded] {
                match label {
                    ShmCopy => assert_eq!(step, Step::ShmCopy, "{cell}"),
                    IpcCopy => assert_eq!(step, Step::CudaCopy, "{cell}"),
                    TwoCopyStaged => assert_eq!(step, Step::TwoCopyStaged, "{cell}"),
                    LoopbackGdr | HostRdma => {
                        assert!(matches!(step, Step::RdmaWrite | Step::RdmaRead), "{cell}")
                    }
                    DirectGdr => assert!(!r.same_node, "{cell}"),
                    HwAtomic => panic!("{cell}"),
                    _ => {}
                }
                assert_eq!(
                    matches!(
                        step,
                        Step::RdmaWrite
                            | Step::ProxyPut
                            | Step::PipelineGdrPut
                            | Step::HostPipelinePut
                    ),
                    op == Op::Put && !matches!(label, ShmCopy | IpcCopy | TwoCopyStaged),
                    "{cell}"
                );
            }
            // a threshold the cell does not cite cannot move its plan
            for name in Limits::NAMES.iter().filter(|n| !p.consulted.contains(n)) {
                for v in [0, u64::MAX] {
                    let mut alt = l;
                    alt.set(name, v).unwrap();
                    assert_eq!(plan(op, &r, len, &alt), Ok(p), "{name}={v} moved {cell}");
                }
            }
        }
    }

    #[test]
    fn enhanced_gdr_boundaries() {
        use Protocol::*;
        let l = Limits::TUNED;
        let base = Route {
            design: Design::EnhancedGdr,
            self_op: false,
            same_node: true,
            src_dev: true,
            dst_dev: true,
            dst_gpu_intra_socket: true,
            proxy_enabled: true,
        };
        let label = |op, r: Route, len| plan(op, &r, len, &l).unwrap().healthy.0;
        // D-D loopback uses min(dd, put); a host end uses the put limit
        assert_eq!(label(Op::Put, base, 2048), LoopbackGdr);
        assert_eq!(label(Op::Put, base, 2049), IpcCopy);
        let mut tight = l;
        tight.loopback_put_limit = 1024;
        assert_eq!(
            plan(Op::Put, &base, 1025, &tight).unwrap().healthy.0,
            IpcCopy
        );
        let hd = Route {
            src_dev: false,
            ..base
        };
        assert_eq!(label(Op::Put, hd, 4096), LoopbackGdr);
        assert_eq!(label(Op::Put, hd, 4097), IpcCopy);
        assert_eq!(label(Op::Get, base, 1024), LoopbackGdr);
        assert_eq!(label(Op::Get, base, 1025), IpcCopy);

        let inter = Route {
            same_node: false,
            ..base
        };
        assert_eq!(label(Op::Put, inter, 32768), DirectGdr);
        assert_eq!(label(Op::Put, inter, 32769), PipelineGdrWrite);
        // inter-socket destination GPU: the P2P write cap sends large
        // puts through the proxy
        let cross = Route {
            dst_gpu_intra_socket: false,
            ..inter
        };
        assert_eq!(label(Op::Put, cross, 32769), ProxyPipeline);
        // host source, clean write path: direct at any size
        assert_eq!(
            label(
                Op::Put,
                Route {
                    src_dev: false,
                    ..inter
                },
                4 << 20
            ),
            DirectGdr
        );
        assert_eq!(
            label(
                Op::Put,
                Route {
                    src_dev: false,
                    ..cross
                },
                4 << 20
            ),
            ProxyPipeline
        );

        let get = |r, len| plan(Op::Get, &r, len, &l).unwrap();
        assert_eq!(get(inter, 16384).healthy, (DirectGdr, Step::RdmaRead));
        // above the direct limit but below the proxy floor: chunked
        // direct reads keep the direct-gdr label
        assert_eq!(
            get(inter, 16385).healthy,
            (DirectGdr, Step::ChunkedDirectRead)
        );
        assert_eq!(get(inter, (512 << 10) - 1).healthy.0, DirectGdr);
        assert_eq!(
            get(inter, 512 << 10).healthy,
            (ProxyPipeline, Step::ProxyGet)
        );
        // candidates follow the config
        let off = get(
            Route {
                proxy_enabled: false,
                ..inter
            },
            4 << 20,
        );
        assert_eq!(off.healthy, (DirectGdr, Step::ChunkedDirectRead));
        assert_eq!(off.candidates, &[DirectGdr]);
        assert_eq!(off.consulted, &["gdr_get_limit"]);
        // the staged-get detour keeps the proxy label
        assert_eq!(
            get(inter, 4 << 20).degraded,
            (ProxyPipeline, Step::StagedGet { via_proxy: true })
        );
    }

    #[test]
    fn limits_names_are_the_fields() {
        let mut l = Limits::TUNED;
        for (i, name) in Limits::NAMES.into_iter().enumerate() {
            l.set(name, i as u64).unwrap();
        }
        let Limits {
            loopback_put_limit,
            loopback_get_limit,
            loopback_dd_limit,
            gdr_put_limit,
            gdr_get_limit,
            proxy_get_min,
        } = l;
        assert_eq!(
            [
                loopback_put_limit,
                loopback_get_limit,
                loopback_dd_limit,
                gdr_put_limit,
                gdr_get_limit,
                proxy_get_min
            ],
            [0, 1, 2, 3, 4, 5]
        );
        assert_eq!(l.get("gdr_get_limit"), Some(4));
        assert_eq!(l.get("warp_core_limit"), None);
        assert!(l
            .set("warp_core_limit", 1)
            .unwrap_err()
            .contains("warp_core_limit"));
    }

    #[test]
    fn protocol_names_round_trip() {
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
            assert_eq!(Protocol::from_name(p.name()), Some(p));
        }
        assert_eq!(Protocol::from_name("warp-drive"), None);
    }
}
