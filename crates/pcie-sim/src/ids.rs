//! Cluster-global identifiers for hardware and software entities.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl $name {
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_type!(
    /// A physical node (server) in the cluster.
    NodeId,
    "node"
);
id_type!(
    /// A process / processing element, globally ranked across the cluster.
    ProcId,
    "pe"
);
id_type!(
    /// A GPU device, globally numbered across the cluster.
    GpuId,
    "gpu"
);
id_type!(
    /// An InfiniBand-like host channel adapter, globally numbered.
    HcaId,
    "hca"
);
id_type!(
    /// A System-V-style shared memory segment (one per node by default).
    SegId,
    "seg"
);
id_type!(
    /// A CPU socket within a node (0-based within the node).
    SocketId,
    "skt"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_and_compare() {
        assert_eq!(format!("{}", ProcId(3)), "pe3");
        assert_eq!(format!("{:?}", GpuId(1)), "gpu1");
        assert!(NodeId(0) < NodeId(2));
        assert_eq!(HcaId(7).index(), 7);
    }
}
