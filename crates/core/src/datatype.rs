//! MPI datatypes: contiguous vs. strided layouts, and why they matter here.
//!
//! §IV-C is explicit: the message-counter scheme "relies on data coming in
//! order into the application buffer … applicable only in the context of
//! data flow following connection semantics" and "message counters are
//! applicable only to contiguous data flows." The Bcast FIFO has no such
//! restriction — slots carry `{connection id, length}` metadata, so a
//! non-contiguous stream simply packs into slots.
//!
//! This module gives the selection layer that distinction: a
//! [`Datatype::Vector`] broadcast cannot use the `Shaddr` counter paths and
//! falls back to the FIFO (torus) or staged-shmem (tree) algorithms, paying
//! an explicit pack/unpack cost.

use crate::select::BcastAlgorithm;

/// A (simplified) MPI datatype layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    /// One contiguous byte run.
    Contiguous,
    /// `MPI_Type_vector`: `count` blocks of `blocklen` bytes, the start of
    /// consecutive blocks separated by `stride` bytes (`stride >= blocklen`).
    Vector {
        /// Number of blocks.
        count: u32,
        /// Bytes per block.
        blocklen: u32,
        /// Distance between block starts.
        stride: u32,
    },
}

impl Datatype {
    /// Whether the layout is one contiguous run (a vector with
    /// `stride == blocklen` collapses to contiguous).
    pub fn is_contiguous(&self) -> bool {
        match *self {
            Datatype::Contiguous => true,
            Datatype::Vector {
                blocklen,
                stride,
                count,
            } => count <= 1 || stride == blocklen,
        }
    }

    /// `alg` when this layout may use it, else its §IV-C-safe equivalent
    /// ([`demote_noncontiguous`]).
    pub fn demote(&self, alg: BcastAlgorithm) -> BcastAlgorithm {
        if self.is_contiguous() {
            alg
        } else {
            demote_noncontiguous(alg)
        }
    }

    /// Payload bytes actually transferred (the packed size).
    pub fn packed_size(&self, contiguous_equivalent: u64) -> u64 {
        match *self {
            Datatype::Contiguous => contiguous_equivalent,
            Datatype::Vector {
                count, blocklen, ..
            } => u64::from(count) * u64::from(blocklen),
        }
    }

    /// Memory span touched in the user buffer (for working-set purposes).
    pub fn extent(&self, contiguous_equivalent: u64) -> u64 {
        match *self {
            Datatype::Contiguous => contiguous_equivalent,
            Datatype::Vector {
                count,
                blocklen,
                stride,
            } => {
                if count == 0 {
                    0
                } else {
                    u64::from(count - 1) * u64::from(stride) + u64::from(blocklen)
                }
            }
        }
    }
}

/// Demote a contiguous-policy pick to its §IV-C-safe equivalent for
/// non-contiguous layouts.
///
/// The counter-based `Shaddr` paths rely on connection-ordered contiguous
/// data flow and are barred outright; their replacements keep the same
/// network (tree → DMA Direct Put, whose descriptors handle typed buffers;
/// torus → Bcast FIFO, whose slot copies double as pack/unpack). `TreeSmp`
/// has no intra-node stage at all, so a typed buffer takes the torus path,
/// which packs at the root. Every other algorithm already stages or
/// packetizes and passes through unchanged.
///
/// This demotion is applied *after* any tuning-table lookup — a table can
/// move the region boundaries but can never tune a non-contiguous broadcast
/// onto a counter path (see `crate::tune::SelectionPolicy`).
pub fn demote_noncontiguous(alg: BcastAlgorithm) -> BcastAlgorithm {
    match alg {
        BcastAlgorithm::TreeShaddr { .. } => BcastAlgorithm::TreeDmaDirectPut,
        BcastAlgorithm::TorusShaddr => BcastAlgorithm::TorusFifo,
        BcastAlgorithm::TreeSmp => BcastAlgorithm::TorusDirectPut,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tune::SelectionPolicy;
    use bgp_machine::MachineConfig;

    #[test]
    fn vector_with_gap_is_noncontiguous() {
        let v = Datatype::Vector {
            count: 8,
            blocklen: 64,
            stride: 256,
        };
        assert!(!v.is_contiguous());
        assert_eq!(v.packed_size(0), 512);
        assert_eq!(v.extent(0), 7 * 256 + 64);
    }

    #[test]
    fn degenerate_vectors_collapse_to_contiguous() {
        assert!(Datatype::Vector {
            count: 1,
            blocklen: 64,
            stride: 999
        }
        .is_contiguous());
        assert!(Datatype::Vector {
            count: 8,
            blocklen: 64,
            stride: 64
        }
        .is_contiguous());
        assert!(Datatype::Contiguous.is_contiguous());
        assert_eq!(Datatype::Contiguous.packed_size(123), 123);
        assert_eq!(Datatype::Contiguous.extent(123), 123);
    }

    #[test]
    fn zero_count_vector() {
        let v = Datatype::Vector {
            count: 0,
            blocklen: 64,
            stride: 256,
        };
        assert_eq!(v.packed_size(0), 0);
        assert_eq!(v.extent(0), 0);
    }

    #[test]
    fn noncontiguous_never_selects_a_counter_path() {
        let policy = SelectionPolicy::builtin();
        let cfg = MachineConfig::two_racks_quad();
        let v = Datatype::Vector {
            count: 1024,
            blocklen: 512,
            stride: 4096,
        };
        for bytes in [1024u64, 64 << 10, 4 << 20] {
            let alg = policy.select_bcast_typed(&cfg, bytes, v);
            assert!(
                !matches!(
                    alg,
                    BcastAlgorithm::TorusShaddr | BcastAlgorithm::TreeShaddr { .. }
                ),
                "counter path selected for non-contiguous data at {bytes}: {alg:?}"
            );
        }
        // Large non-contiguous: the Bcast FIFO (its packetization is the
        // pack step).
        assert_eq!(
            policy.select_bcast_typed(&cfg, 4 << 20, v),
            BcastAlgorithm::TorusFifo
        );
    }

    #[test]
    fn contiguous_follows_the_ordinary_policy() {
        let cfg = MachineConfig::two_racks_quad();
        let policy = SelectionPolicy::builtin();
        assert_eq!(
            policy.select_bcast_typed(&cfg, 4 << 20, Datatype::Contiguous),
            policy.select_bcast(&cfg, 4 << 20)
        );
    }
}
