//! First-fit range allocator with coalescing, used for device heaps and
//! symmetric-heap suballocation.

use std::fmt;

/// Allocation failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfMemory {
    pub requested: u64,
    pub largest_free: u64,
    pub total_free: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, largest free block {}, total free {}",
            self.requested, self.largest_free, self.total_free
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Clone, Copy, Debug)]
struct FreeBlock {
    off: u64,
    len: u64,
}

/// First-fit allocator over a `[0, capacity)` byte range.
#[derive(Clone, Debug)]
pub struct RangeAlloc {
    capacity: u64,
    align: u64,
    free: Vec<FreeBlock>, // sorted by offset, non-adjacent
    allocated: u64,
}

impl RangeAlloc {
    /// `align` must be a power of two.
    pub fn new(capacity: u64, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        RangeAlloc {
            capacity,
            align,
            free: vec![FreeBlock {
                off: 0,
                len: capacity,
            }],
            allocated: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    pub fn total_free(&self) -> u64 {
        self.free.iter().map(|b| b.len).sum()
    }

    fn round_up(&self, v: u64) -> u64 {
        (v + self.align - 1) & !(self.align - 1)
    }

    /// Index of the first free block of at least `size` (rounded) bytes.
    fn first_fit(&self, size: u64) -> Option<usize> {
        self.free.iter().position(|b| b.len >= size)
    }

    /// Would [`Self::alloc`] of `size` bytes succeed right now?
    pub fn fits(&self, size: u64) -> bool {
        self.first_fit(self.round_up(size.max(1))).is_some()
    }

    /// Allocate `size` bytes (rounded up to the alignment); returns offset.
    pub fn alloc(&mut self, size: u64) -> Result<u64, OutOfMemory> {
        let size = self.round_up(size.max(1));
        let Some(i) = self.first_fit(size) else {
            return Err(OutOfMemory {
                requested: size,
                largest_free: self.free.iter().map(|b| b.len).max().unwrap_or(0),
                total_free: self.total_free(),
            });
        };
        let b = self.free[i];
        if b.len == size {
            self.free.remove(i);
        } else {
            self.free[i] = FreeBlock {
                off: b.off + size,
                len: b.len - size,
            };
        }
        self.allocated += size;
        Ok(b.off)
    }

    /// Return a block; `size` must match the original request (it is
    /// rounded up identically). Coalesces with neighbours.
    pub fn free(&mut self, off: u64, size: u64) {
        let size = self.round_up(size.max(1));
        assert!(off + size <= self.capacity, "free out of range");
        self.allocated = self
            .allocated
            .checked_sub(size)
            .expect("freed more than allocated");
        let idx = self.free.partition_point(|b| b.off < off);
        // guard against overlap with neighbours (double free / bad size)
        if idx > 0 {
            let prev = self.free[idx - 1];
            assert!(prev.off + prev.len <= off, "double free or overlap (prev)");
        }
        if idx < self.free.len() {
            assert!(off + size <= self.free[idx].off, "double free or overlap (next)");
        }
        self.free.insert(idx, FreeBlock { off, len: size });
        // coalesce with next
        if idx + 1 < self.free.len() && self.free[idx].off + self.free[idx].len == self.free[idx + 1].off
        {
            self.free[idx].len += self.free[idx + 1].len;
            self.free.remove(idx + 1);
        }
        // coalesce with prev
        if idx > 0 && self.free[idx - 1].off + self.free[idx - 1].len == self.free[idx].off {
            self.free[idx - 1].len += self.free[idx].len;
            self.free.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = RangeAlloc::new(1024, 256);
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_eq!(x, 0);
        assert_eq!(y, 256); // aligned
        assert_eq!(a.allocated(), 512);
        a.free(x, 100);
        a.free(y, 100);
        assert_eq!(a.allocated(), 0);
        assert_eq!(a.total_free(), 1024);
        // after coalescing, a full-size alloc succeeds
        assert_eq!(a.alloc(1024).unwrap(), 0);
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut a = RangeAlloc::new(4096, 256);
        let x = a.alloc(256).unwrap();
        let _y = a.alloc(256).unwrap();
        a.free(x, 256);
        let z = a.alloc(256).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn oom_reports_fragmentation() {
        let mut a = RangeAlloc::new(1024, 256);
        let w = a.alloc(256).unwrap();
        let _x = a.alloc(256).unwrap();
        let y = a.alloc(256).unwrap();
        let _z = a.alloc(256).unwrap();
        a.free(w, 256);
        a.free(y, 256);
        // `fits` is `alloc` without the side effect: fragmentation counts
        assert!(!a.fits(512));
        assert!(a.fits(200));
        assert_eq!(a.total_free(), 512);
        let err = a.alloc(512).unwrap_err();
        assert_eq!(err.largest_free, 256);
        assert_eq!(err.total_free, 512);
    }

    #[test]
    #[should_panic]
    fn double_free_detected() {
        // A double free trips either the accounting check ("freed more
        // than allocated") or the overlap check, depending on state.
        let mut a = RangeAlloc::new(1024, 256);
        let x = a.alloc(256).unwrap();
        a.free(x, 256);
        a.free(x, 256);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn overlapping_free_detected() {
        let mut a = RangeAlloc::new(1024, 256);
        let x = a.alloc(512).unwrap();
        let _y = a.alloc(256).unwrap();
        a.free(x, 256);
        a.free(x, 256); // overlaps the block just freed
    }

    #[test]
    fn zero_sized_alloc_takes_one_unit() {
        let mut a = RangeAlloc::new(1024, 256);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn exhaustive_fill_then_drain() {
        let mut a = RangeAlloc::new(256 * 16, 256);
        let offs: Vec<u64> = (0..16).map(|_| a.alloc(256).unwrap()).collect();
        assert!(a.alloc(1).is_err());
        for &o in offs.iter().rev() {
            a.free(o, 256);
        }
        assert_eq!(a.total_free(), 256 * 16);
        assert_eq!(a.free.len(), 1, "should fully coalesce");
    }
}
