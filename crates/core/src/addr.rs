//! Symmetric addressing: domains and symmetric addresses.
//!
//! A [`SymAddr`] names the same logical object in every PE's symmetric
//! heap, exactly as an OpenSHMEM symmetric pointer does: passing a local
//! symmetric address plus a target PE to `put`/`get` addresses the
//! target's copy. The [`Domain`] is the paper's extension — symmetric
//! heaps exist on both the host and the GPU, selected at `shmalloc` time.

use std::fmt;
use std::marker::PhantomData;

/// Where a symmetric allocation lives (paper §III-A: `shmalloc(size, domain)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Domain {
    /// The per-PE host symmetric heap (placed in the node's shared
    /// segment, so node-local peers can `shmem_ptr` into it).
    Host,
    /// The per-PE symmetric heap in GPU device memory.
    Gpu,
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Host => write!(f, "host"),
            Domain::Gpu => write!(f, "gpu"),
        }
    }
}

/// A symmetric address: domain + byte offset within that domain's heap.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymAddr {
    pub domain: Domain,
    pub offset: u64,
}

impl SymAddr {
    pub fn new(domain: Domain, offset: u64) -> Self {
        SymAddr { domain, offset }
    }

    /// Address `bytes` further into the same allocation.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Self {
        SymAddr {
            domain: self.domain,
            offset: self.offset + bytes,
        }
    }

    pub fn is_gpu(self) -> bool {
        self.domain == Domain::Gpu
    }
}

impl fmt::Display for SymAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym[{}+{:#x}]", self.domain, self.offset)
    }
}

/// A typed view over a symmetric allocation of `n` elements of `T`.
///
/// `T` must be plain-old-data (we only support the fixed-width number
/// types used by the OpenSHMEM typed API).
#[derive(Clone, Copy, Debug)]
pub struct SymSlice<T> {
    base: SymAddr,
    len: usize,
    _t: PhantomData<T>,
}

/// Sealed helper for plain-old-data element types.
pub trait Pod: Copy + Default + 'static {
    fn to_bytes(v: &[Self]) -> Vec<u8>;
    fn from_bytes(b: &[u8]) -> Vec<Self>;
    const SIZE: usize;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn to_bytes(v: &[Self]) -> Vec<u8> {
                v.iter().flat_map(|x| x.to_le_bytes()).collect()
            }
            fn from_bytes(b: &[u8]) -> Vec<Self> {
                b.chunks_exact(Self::SIZE)
                    .map(|c| <$t>::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            }
        }
    )*};
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl<T: Pod> SymSlice<T> {
    pub fn new(base: SymAddr, len: usize) -> Self {
        SymSlice {
            base,
            len,
            _t: PhantomData,
        }
    }

    pub fn addr(&self) -> SymAddr {
        self.base
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn byte_len(&self) -> u64 {
        (self.len * T::SIZE) as u64
    }

    /// Subslice of `count` elements starting at element `at`.
    pub fn slice(&self, at: usize, count: usize) -> SymSlice<T> {
        assert!(at + count <= self.len, "subslice out of range");
        SymSlice::new(self.base.add((at * T::SIZE) as u64), count)
    }

    /// Address of element `i`.
    pub fn at(&self, i: usize) -> SymAddr {
        assert!(i < self.len, "index out of range");
        self.base.add((i * T::SIZE) as u64)
    }

    pub fn domain(&self) -> Domain {
        self.base.domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_addr_arithmetic() {
        let a = SymAddr::new(Domain::Gpu, 0x100);
        assert!(a.is_gpu());
        assert_eq!(a.add(8).offset, 0x108);
        assert_eq!(format!("{a}"), "sym[gpu+0x100]");
    }

    #[test]
    fn typed_slice_geometry() {
        let s: SymSlice<f64> = SymSlice::new(SymAddr::new(Domain::Host, 64), 100);
        assert_eq!(s.byte_len(), 800);
        assert_eq!(s.at(3).offset, 64 + 24);
        let sub = s.slice(10, 5);
        assert_eq!(sub.addr().offset, 64 + 80);
        assert_eq!(sub.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subslice_bounds_checked() {
        let s: SymSlice<u32> = SymSlice::new(SymAddr::new(Domain::Host, 0), 4);
        s.slice(2, 3);
    }

    #[test]
    fn pod_round_trip() {
        let v = vec![1.5f64, -2.25, 3.0];
        let b = f64::to_bytes(&v);
        assert_eq!(b.len(), 24);
        assert_eq!(f64::from_bytes(&b), v);
        let u = vec![0xDEADBEEFu32, 7];
        assert_eq!(u32::from_bytes(&u32::to_bytes(&u)), u);
    }
}
