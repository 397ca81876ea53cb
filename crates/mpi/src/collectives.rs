//! SST's collective algorithms, expanded to point-to-point micro-operations.
//!
//! * **Alltoall** — multi-step ring exchange (paper §IV): in round `i` the
//!   communicator-relative rank `r` sends to `r+i` and receives from `r−i`,
//!   completing each round before the next, so only one message is in
//!   flight per process per round (peak ingress = one message).
//! * **Allreduce / Reduce / Bcast / Barrier** — binary tree: data is
//!   aggregated from the leaves to the root and then distributed back down
//!   (paper §IV); every tree node has at most two children, so allreduce
//!   peak ingress counts two messages.
//!
//! Expansion happens per rank: [`expand`] returns the micro-op sequence that
//! rank executes for the collective. The micro-ops use *world* ranks.

use crate::op::{CommId, MpiOp, TagSpace};
use crate::rank::MicroOp;

/// Phases within a collective's tag space.
const PHASE_RING: u8 = 0;
const PHASE_UP: u8 = 1;
const PHASE_DOWN: u8 = 2;

/// The collective operations [`expand`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Ring alltoall, `bytes` per pair.
    AllToAll {
        /// Bytes per rank pair.
        bytes: u64,
    },
    /// Tree allreduce of `bytes`.
    AllReduce {
        /// Buffer bytes.
        bytes: u64,
    },
    /// Tree reduce towards `root` (communicator-relative).
    Reduce {
        /// Communicator-relative root.
        root: u32,
        /// Buffer bytes.
        bytes: u64,
    },
    /// Tree broadcast from `root` (communicator-relative).
    Bcast {
        /// Communicator-relative root.
        root: u32,
        /// Buffer bytes.
        bytes: u64,
    },
    /// Tree barrier.
    Barrier,
}

impl Collective {
    /// Lift an [`MpiOp`] collective into a [`Collective`], with its
    /// communicator. Returns `None` for non-collective ops.
    pub fn from_op(op: &MpiOp) -> Option<(CommId, Collective)> {
        match *op {
            MpiOp::AllToAll { comm, bytes } => Some((comm, Collective::AllToAll { bytes })),
            MpiOp::AllReduce { comm, bytes } => Some((comm, Collective::AllReduce { bytes })),
            MpiOp::Reduce { comm, root, bytes } => Some((comm, Collective::Reduce { root, bytes })),
            MpiOp::Bcast { comm, root, bytes } => Some((comm, Collective::Bcast { root, bytes })),
            MpiOp::Barrier { comm } => Some((comm, Collective::Barrier)),
            _ => None,
        }
    }
}

/// Expand a collective into the micro-op sequence executed by the rank at
/// communicator-relative index `me` of a communicator whose world-rank
/// members are `members`. `seq` is the per-(rank, comm) collective sequence
/// number (all members call collectives on a communicator in the same
/// order, so tags agree).
pub fn expand(coll: Collective, comm: CommId, members: &[u32], me: u32, seq: u32) -> Vec<MicroOp> {
    let n = members.len() as u32;
    debug_assert!(me < n);
    if n <= 1 {
        return Vec::new();
    }
    match coll {
        Collective::AllToAll { bytes } => alltoall(comm, members, me, seq, bytes),
        Collective::AllReduce { bytes } => {
            // Reduce to relative root 0, then broadcast back down.
            let mut ops = tree_up(comm, members, me, seq, 0, bytes);
            ops.extend(tree_down(comm, members, me, seq, 0, bytes));
            ops
        }
        Collective::Reduce { root, bytes } => tree_up(comm, members, me, seq, root, bytes),
        Collective::Bcast { root, bytes } => tree_down(comm, members, me, seq, root, bytes),
        Collective::Barrier => {
            let mut ops = tree_up(comm, members, me, seq, 0, 0);
            ops.extend(tree_down(comm, members, me, seq, 0, 0));
            ops
        }
    }
}

/// Ring alltoall: N−1 rounds of one send + one receive, each round
/// completed before the next.
fn alltoall(comm: CommId, members: &[u32], me: u32, seq: u32, bytes: u64) -> Vec<MicroOp> {
    let n = members.len() as u32;
    let tag = TagSpace::collective(comm, seq, PHASE_RING);
    let mut ops = Vec::with_capacity(3 * (n as usize - 1));
    for i in 1..n {
        let dst = members[((me + i) % n) as usize];
        let src = members[((me + n - i) % n) as usize];
        ops.push(MicroOp::Irecv { src: Some(src), tag });
        ops.push(MicroOp::Isend { dst, bytes, tag });
        ops.push(MicroOp::WaitAll);
    }
    ops
}

/// Tree index of `me` relative to `root`: rotate so the root is node 0 of a
/// binary heap layout.
#[inline]
fn rel(me: u32, root: u32, n: u32) -> u32 {
    (me + n - root) % n
}

#[inline]
fn unrel(idx: u32, root: u32, n: u32) -> u32 {
    (idx + root) % n
}

/// Leaf-to-root aggregation (reduce phase).
fn tree_up(
    comm: CommId,
    members: &[u32],
    me: u32,
    seq: u32,
    root: u32,
    bytes: u64,
) -> Vec<MicroOp> {
    let n = members.len() as u32;
    let tag = TagSpace::collective(comm, seq, PHASE_UP);
    let idx = rel(me, root, n);
    let mut ops = Vec::new();
    // Receive partial results from both children (if they exist)…
    for child_idx in [2 * idx + 1, 2 * idx + 2] {
        if child_idx < n {
            let child = members[unrel(child_idx, root, n) as usize];
            ops.push(MicroOp::Irecv { src: Some(child), tag });
        }
    }
    if !ops.is_empty() {
        ops.push(MicroOp::WaitAll);
    }
    // …then forward the combined buffer to the parent.
    if idx != 0 {
        let parent = members[unrel((idx - 1) / 2, root, n) as usize];
        ops.push(MicroOp::Isend { dst: parent, bytes, tag });
        ops.push(MicroOp::WaitAll);
    }
    ops
}

/// Root-to-leaf distribution (broadcast phase).
fn tree_down(
    comm: CommId,
    members: &[u32],
    me: u32,
    seq: u32,
    root: u32,
    bytes: u64,
) -> Vec<MicroOp> {
    let n = members.len() as u32;
    let tag = TagSpace::collective(comm, seq, PHASE_DOWN);
    let idx = rel(me, root, n);
    let mut ops = Vec::new();
    if idx != 0 {
        let parent = members[unrel((idx - 1) / 2, root, n) as usize];
        ops.push(MicroOp::Irecv { src: Some(parent), tag });
        ops.push(MicroOp::WaitAll);
    }
    let mut sent = false;
    for child_idx in [2 * idx + 1, 2 * idx + 2] {
        if child_idx < n {
            let child = members[unrel(child_idx, root, n) as usize];
            ops.push(MicroOp::Isend { dst: child, bytes, tag });
            sent = true;
        }
    }
    if sent {
        ops.push(MicroOp::WaitAll);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extract (dst, src) pairs of an op list.
    fn sends_and_recvs(ops: &[MicroOp]) -> (Vec<u32>, Vec<Option<u32>>) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for op in ops {
            match op {
                MicroOp::Isend { dst, .. } => sends.push(*dst),
                MicroOp::Irecv { src, .. } => recvs.push(*src),
                _ => {}
            }
        }
        (sends, recvs)
    }

    #[test]
    fn alltoall_is_a_complete_exchange() {
        let members: Vec<u32> = (0..5).collect();
        // Union over all ranks: every ordered pair appears exactly once.
        let mut pair_count = std::collections::BTreeMap::new();
        for me in 0..5u32 {
            let ops = expand(Collective::AllToAll { bytes: 100 }, CommId(0), &members, me, 0);
            let (sends, recvs) = sends_and_recvs(&ops);
            assert_eq!(sends.len(), 4);
            assert_eq!(recvs.len(), 4);
            for dst in sends {
                *pair_count.entry((me, dst)).or_insert(0u32) += 1;
            }
        }
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    assert_eq!(pair_count.get(&(a, b)), Some(&1), "pair {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn alltoall_rounds_are_serialized() {
        let members: Vec<u32> = (0..4).collect();
        let ops = expand(Collective::AllToAll { bytes: 8 }, CommId(0), &members, 1, 3);
        // Pattern: (Irecv, Isend, WaitAll) × 3 rounds.
        assert_eq!(ops.len(), 9);
        for round in ops.chunks(3) {
            assert!(matches!(round[0], MicroOp::Irecv { .. }));
            assert!(matches!(round[1], MicroOp::Isend { .. }));
            assert!(matches!(round[2], MicroOp::WaitAll));
        }
    }

    #[test]
    fn allreduce_tree_sends_match_recvs_globally() {
        let members: Vec<u32> = (0..7).collect();
        let mut total_sends = 0;
        let mut total_recvs = 0;
        for me in 0..7u32 {
            let ops = expand(Collective::AllReduce { bytes: 64 }, CommId(0), &members, me, 0);
            let (s, r) = sends_and_recvs(&ops);
            total_sends += s.len();
            total_recvs += r.len();
        }
        assert_eq!(total_sends, total_recvs);
        // A 7-node binary tree has 6 edges; up + down = 12 messages.
        assert_eq!(total_sends, 12);
    }

    #[test]
    fn allreduce_peak_ingress_is_two_messages() {
        // The root (rel idx 0) receives from two children in one burst.
        let members: Vec<u32> = (0..7).collect();
        let ops = expand(Collective::AllReduce { bytes: 64 }, CommId(0), &members, 0, 0);
        let first_wait = ops.iter().position(|o| matches!(o, MicroOp::WaitAll)).unwrap();
        let recvs_before =
            ops[..first_wait].iter().filter(|o| matches!(o, MicroOp::Irecv { .. })).count();
        assert_eq!(recvs_before, 2);
    }

    #[test]
    fn bcast_from_nonzero_root_reaches_everyone() {
        let members: Vec<u32> = vec![10, 11, 12, 13, 14];
        let root = 2; // world rank 12
        let mut receives = 0;
        let mut root_recvs = 0;
        for me in 0..5u32 {
            let ops = expand(Collective::Bcast { root, bytes: 8 }, CommId(1), &members, me, 0);
            let (_, r) = sends_and_recvs(&ops);
            if me == root {
                root_recvs += r.len();
            } else {
                assert_eq!(r.len(), 1, "non-root rank {me} receives exactly once");
                receives += 1;
            }
        }
        assert_eq!(root_recvs, 0);
        assert_eq!(receives, 4);
    }

    #[test]
    fn single_member_collective_is_empty() {
        assert!(expand(Collective::AllReduce { bytes: 9 }, CommId(0), &[3], 0, 0).is_empty());
        assert!(expand(Collective::AllToAll { bytes: 9 }, CommId(0), &[3], 0, 0).is_empty());
    }

    #[test]
    fn barrier_moves_zero_byte_payloads() {
        let members: Vec<u32> = (0..3).collect();
        let ops = expand(Collective::Barrier, CommId(0), &members, 0, 0);
        for op in &ops {
            if let MicroOp::Isend { bytes, .. } = op {
                assert_eq!(*bytes, 0);
            }
        }
        assert!(!ops.is_empty());
    }

    #[test]
    fn from_op_lifts_collectives_only() {
        assert!(Collective::from_op(&MpiOp::Compute(5)).is_none());
        assert!(Collective::from_op(&MpiOp::WaitAll).is_none());
        let (c, coll) =
            Collective::from_op(&MpiOp::AllToAll { comm: CommId(2), bytes: 7 }).unwrap();
        assert_eq!(c, CommId(2));
        assert_eq!(coll, Collective::AllToAll { bytes: 7 });
    }
}
