//! The operation vocabulary rank programs speak.

use dfsim_des::Time;

/// Message tag. Application tags must stay below [`TagSpace::COLLECTIVE_BASE`];
/// the collective engine reserves the upper tag space.
pub type Tag = u64;

/// Reserved tag-space helpers.
pub struct TagSpace;

impl TagSpace {
    /// Base of the reserved collective tag space.
    pub const COLLECTIVE_BASE: Tag = 1 << 62;

    /// Tag for a collective instance: unique per (communicator, sequence,
    /// phase) so consecutive collectives on one communicator never
    /// cross-match.
    pub fn collective(comm: CommId, seq: u32, phase: u8) -> Tag {
        Self::COLLECTIVE_BASE | ((comm.0 as Tag) << 40) | ((seq as Tag) << 8) | phase as Tag
    }
}

/// A communicator handle. Communicator 0 is always the application's world;
/// applications may register sub-communicators (e.g. FFT3D's process rows
/// and columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommId(pub u16);

impl CommId {
    /// The application-wide communicator.
    pub const WORLD: CommId = CommId(0);
}

/// One MPI operation emitted by a rank program. All rank numbers are
/// *world* ranks of the owning application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiOp {
    /// Busy computation for a duration (not counted as communication time).
    Compute(Time),
    /// Blocking standard send.
    Send {
        /// Destination world rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
        /// Message tag.
        tag: Tag,
    },
    /// Non-blocking send; completes at a later `WaitAll`.
    Isend {
        /// Destination world rank.
        dst: u32,
        /// Payload bytes.
        bytes: u64,
        /// Message tag.
        tag: Tag,
    },
    /// Blocking receive. `src = None` receives from any source.
    Recv {
        /// Source world rank (`None` = any).
        src: Option<u32>,
        /// Message tag.
        tag: Tag,
    },
    /// Non-blocking receive; completes at a later `WaitAll`.
    Irecv {
        /// Source world rank (`None` = any).
        src: Option<u32>,
        /// Message tag.
        tag: Tag,
    },
    /// Block until every outstanding non-blocking request of this rank has
    /// completed.
    WaitAll,
    /// Ring-algorithm all-to-all: every pair exchanges `bytes` (SST's
    /// multi-step ring; one message in flight per round).
    AllToAll {
        /// Communicator.
        comm: CommId,
        /// Bytes exchanged per rank pair.
        bytes: u64,
    },
    /// Binary-tree allreduce of a `bytes`-sized buffer.
    AllReduce {
        /// Communicator.
        comm: CommId,
        /// Reduced buffer size in bytes.
        bytes: u64,
    },
    /// Binary-tree reduction towards `root`.
    Reduce {
        /// Communicator.
        comm: CommId,
        /// Root (communicator-relative index).
        root: u32,
        /// Buffer bytes.
        bytes: u64,
    },
    /// Binary-tree broadcast from `root`.
    Bcast {
        /// Communicator.
        comm: CommId,
        /// Root (communicator-relative index).
        root: u32,
        /// Buffer bytes.
        bytes: u64,
    },
    /// Tree barrier (zero-byte allreduce).
    Barrier {
        /// Communicator.
        comm: CommId,
    },
}

/// A rank's behaviour: a lazy stream of MPI operations.
///
/// Programs are constructed knowing their rank and job size (the apps crate
/// bakes these in), and are pulled one operation at a time so million-
/// iteration workloads never materialize their op list.
pub trait RankProgram: Send {
    /// The next operation, or `None` when the rank is finished.
    fn next_op(&mut self) -> Option<MpiOp>;
}

/// Blanket helper: any iterator of operations is a program (useful in
/// tests).
impl<I: Iterator<Item = MpiOp> + Send> RankProgram for I {
    fn next_op(&mut self) -> Option<MpiOp> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_tags_are_unique_per_comm_seq_phase() {
        let a = TagSpace::collective(CommId(0), 0, 0);
        let b = TagSpace::collective(CommId(0), 0, 1);
        let c = TagSpace::collective(CommId(0), 1, 0);
        let d = TagSpace::collective(CommId(1), 0, 0);
        let all = [a, b, c, d];
        for (i, x) in all.iter().enumerate() {
            assert!(*x >= TagSpace::COLLECTIVE_BASE);
            for (j, y) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y);
                }
            }
        }
    }

    #[test]
    fn iterators_are_programs() {
        let mut p = vec![MpiOp::Compute(10), MpiOp::WaitAll].into_iter();
        assert_eq!(p.next_op(), Some(MpiOp::Compute(10)));
        assert_eq!(p.next_op(), Some(MpiOp::WaitAll));
        assert_eq!(p.next_op(), None);
    }
}
