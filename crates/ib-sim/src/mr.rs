//! Memory registration: MRs, lkeys/rkeys, and protection checks.
//!
//! An HCA may only DMA through memory that was registered with it. MRs
//! over **device** memory are exactly GPUDirect RDMA: registering a GPU
//! buffer pins its BAR mapping so the HCA can do P2P reads/writes.

use pcie_sim::mem::{MemRef, MemSpace};
use pcie_sim::ProcId;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

/// Remote access key: what a peer presents to touch the MR.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rkey(pub u64);

/// Local access key: proves the poster owns a registered local buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lkey(pub u64);

/// A registered memory region.
#[derive(Clone, Copy, Debug)]
pub struct MemoryRegion {
    pub owner: ProcId,
    pub base: MemRef,
    pub len: u64,
    pub lkey: Lkey,
    pub rkey: Rkey,
}

impl MemoryRegion {
    /// Does this MR cover `[r, r+len)`?
    pub fn covers(&self, r: MemRef, len: u64) -> bool {
        r.space == self.base.space
            && r.offset >= self.base.offset
            && r.offset
                .checked_add(len)
                .is_some_and(|end| end <= self.base.offset + self.len)
    }

    /// Is this a GPUDirect (device memory) registration?
    pub fn is_gdr(&self) -> bool {
        matches!(self.base.space, MemSpace::Device(_))
    }
}

/// Registration failures and protection errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MrError {
    /// rkey not known to the fabric.
    InvalidRkey(Rkey),
    /// lkey not known / not owned by the poster.
    InvalidLkey(Lkey),
    /// Access outside the registered range.
    ProtectionFault {
        key: u64,
        addr: MemRef,
        len: u64,
    },
    /// The local buffer was not registered by the posting process at all.
    NotRegistered { proc: ProcId, addr: MemRef },
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::InvalidRkey(k) => write!(f, "invalid rkey {k:?}"),
            MrError::InvalidLkey(k) => write!(f, "invalid lkey {k:?}"),
            MrError::ProtectionFault { key, addr, len } => {
                write!(f, "protection fault: key {key} does not cover {addr}+{len}")
            }
            MrError::NotRegistered { proc, addr } => {
                write!(f, "{proc} has no MR covering {addr}")
            }
        }
    }
}

impl std::error::Error for MrError {}

/// The fabric-wide MR table.
#[derive(Default)]
pub struct MrTable {
    next_key: Cell<u64>,
    by_rkey: RefCell<HashMap<Rkey, MemoryRegion>>,
    by_lkey: RefCell<HashMap<Lkey, MemoryRegion>>,
}

impl MrTable {
    pub fn new() -> Self {
        MrTable {
            next_key: Cell::new(1),
            by_rkey: RefCell::new(HashMap::new()),
            by_lkey: RefCell::new(HashMap::new()),
        }
    }

    /// Register `[base, base+len)` for `owner`. (Timing is charged by the
    /// caller — see `IbVerbs::reg_mr`.)
    pub fn insert(&self, owner: ProcId, base: MemRef, len: u64) -> MemoryRegion {
        let k = self.next_key.get();
        self.next_key.set(k + 1);
        let mr = MemoryRegion {
            owner,
            base,
            len,
            lkey: Lkey(k),
            rkey: Rkey(k),
        };
        self.by_rkey.borrow_mut().insert(mr.rkey, mr);
        self.by_lkey.borrow_mut().insert(mr.lkey, mr);
        mr
    }

    /// Resolve an rkey and verify it covers the access.
    pub fn check_remote(&self, rkey: Rkey, addr: MemRef, len: u64) -> Result<MemoryRegion, MrError> {
        let mr = *self
            .by_rkey
            .borrow()
            .get(&rkey)
            .ok_or(MrError::InvalidRkey(rkey))?;
        if !mr.covers(addr, len) {
            return Err(MrError::ProtectionFault {
                key: rkey.0,
                addr,
                len,
            });
        }
        Ok(mr)
    }

    /// Verify the poster has *some* MR covering the local buffer.
    pub fn check_local(&self, proc: ProcId, addr: MemRef, len: u64) -> Result<MemoryRegion, MrError> {
        let tab = self.by_lkey.borrow();
        tab.values()
            .find(|mr| mr.owner == proc && mr.covers(addr, len))
            .copied()
            .ok_or(MrError::NotRegistered { proc, addr })
    }

    pub fn len(&self) -> usize {
        self.by_rkey.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcie_sim::GpuId;

    fn dref(off: u64) -> MemRef {
        MemRef::new(MemSpace::Device(GpuId(0)), off)
    }

    #[test]
    fn register_and_check_bounds() {
        let t = MrTable::new();
        let mr = t.insert(ProcId(0), dref(0x1000), 0x1000);
        assert!(mr.is_gdr());
        assert!(t.check_remote(mr.rkey, dref(0x1000), 0x1000).is_ok());
        assert!(t.check_remote(mr.rkey, dref(0x1800), 0x800).is_ok());
        let e = t.check_remote(mr.rkey, dref(0x1800), 0x1000).unwrap_err();
        assert!(matches!(e, MrError::ProtectionFault { .. }));
        // below base
        assert!(t.check_remote(mr.rkey, dref(0xFFF), 8).is_err());
        // wrong space
        let h = MemRef::new(MemSpace::Host(ProcId(0)), 0x1000);
        assert!(t.check_remote(mr.rkey, h, 8).is_err());
    }

    #[test]
    fn unknown_rkey_rejected() {
        let t = MrTable::new();
        assert_eq!(
            t.check_remote(Rkey(42), dref(0), 8).unwrap_err(),
            MrError::InvalidRkey(Rkey(42))
        );
    }

    #[test]
    fn local_check_requires_ownership() {
        let t = MrTable::new();
        t.insert(ProcId(0), dref(0), 0x100);
        assert!(t.check_local(ProcId(0), dref(0x10), 8).is_ok());
        assert!(matches!(
            t.check_local(ProcId(1), dref(0x10), 8).unwrap_err(),
            MrError::NotRegistered { .. }
        ));
    }

    #[test]
    fn overflow_access_rejected() {
        let t = MrTable::new();
        let mr = t.insert(ProcId(0), dref(0), 0x100);
        assert!(t.check_remote(mr.rkey, dref(u64::MAX - 4), 16).is_err());
    }
}
