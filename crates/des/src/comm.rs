//! Partition communicator: the boundary-exchange primitive for the
//! partitioned (conservatively synchronized) simulation core.
//!
//! The engine shards the network by dragonfly group across workers; at every
//! window barrier each partition hands the communicator one byte frame per
//! peer (boundary events that cross into that peer's groups, plus merge
//! metadata) and receives the frames addressed to it. The trait is modeled
//! on the MPI-ish `SimCommunicator` used by parallel traffic simulators:
//! `rank`/`size` identify the partition, `exchange` is an all-to-all
//! personalized exchange with an implicit barrier. A future MPI-backed
//! implementation only has to provide these three methods; everything above
//! (windowed advance, deterministic merge) is transport-agnostic.
//!
//! The communicator moves opaque bytes; what is inside a frame is written
//! with [`crate::wire`]'s `put_*` functions and read back with its checked
//! [`crate::wire::WireReader`], the one codec of the simulator.
//!
//! The provided [`LocalThreadCommunicator`] connects threads of one process
//! through per-pair channels. Because every barrier is a full exchange (all
//! ranks send to all ranks every round, empty frames included) and channels
//! are FIFO, no round tags are needed: the k-th frame received from a peer
//! belongs to the k-th barrier.

use std::sync::mpsc::{channel, Receiver, Sender};

/// All-to-all boundary exchange between simulation partitions.
///
/// `exchange` is a synchronization point: it returns only after the frames
/// of **all** peers for this round have arrived, which is what makes the
/// conservative window protocol safe — after the call, a partition has seen
/// every boundary event scheduled into its territory up to the barrier.
pub trait SimCommunicator {
    /// This partition's index in `0..size()`.
    fn rank(&self) -> usize;
    /// Total number of partitions.
    fn size(&self) -> usize;
    /// Send `to_each[p]` to partition `p` (including `p == rank()`, which
    /// is returned locally) and receive one frame from every partition.
    /// `to_each.len()` must equal `size()`. The result is indexed by
    /// sender rank.
    fn exchange(&mut self, to_each: Vec<Vec<u8>>) -> Vec<Vec<u8>>;

    /// Send the same frame to every partition and collect all frames,
    /// indexed by sender rank (this rank's own frame included).
    fn broadcast(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let n = self.size();
        let mut to_each = Vec::with_capacity(n);
        for _ in 0..n.saturating_sub(1) {
            to_each.push(frame.clone());
        }
        to_each.push(frame);
        self.exchange(to_each)
    }
}

/// In-process communicator connecting the threads of one simulation run
/// through per-pair FIFO channels. Construct one mesh per run with
/// [`local_mesh`] and hand one communicator to each worker thread.
pub struct LocalThreadCommunicator {
    rank: usize,
    /// `txs[p]` sends to partition `p`; `txs[rank]` is unused (loopback is
    /// short-circuited in `exchange`).
    txs: Vec<Sender<Vec<u8>>>,
    /// `rxs[p]` receives from partition `p`; `rxs[rank]` is unused.
    rxs: Vec<Receiver<Vec<u8>>>,
}

impl SimCommunicator for LocalThreadCommunicator {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.txs.len()
    }

    fn exchange(&mut self, mut to_each: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let n = self.size();
        assert_eq!(to_each.len(), n, "exchange needs one frame per partition");
        // Loopback first so the self-frame survives the send loop.
        let own = std::mem::take(&mut to_each[self.rank]);
        for (p, frame) in to_each.into_iter().enumerate() {
            if p == self.rank {
                continue;
            }
            // Channels are unbounded, so sends never block; a send only
            // fails if the peer already hung up, i.e. it panicked.
            #[expect(
                clippy::panic,
                reason = "a failed send means the peer partition already panicked; propagating that panic here is the correct (and only) escalation, there is no error channel back to the caller mid-window"
            )]
            self.txs[p]
                .send(frame)
                .unwrap_or_else(|_| panic!("partition {p} hung up (worker panicked?)"));
        }
        let mut out = Vec::with_capacity(n);
        for p in 0..n {
            if p == self.rank {
                out.push(Vec::new()); // replaced with `own` below
            } else {
                #[expect(
                    clippy::panic,
                    reason = "a failed recv means the peer partition already panicked; the exchange protocol has no error path, so joining that panic is the only sound behavior"
                )]
                out.push(
                    self.rxs[p]
                        .recv()
                        .unwrap_or_else(|_| panic!("partition {p} hung up (worker panicked?)")),
                );
            }
        }
        out[self.rank] = own;
        out
    }
}

/// Build a fully connected mesh of `n` in-process communicators, one per
/// partition, wired with a dedicated FIFO channel per ordered pair.
pub fn local_mesh(n: usize) -> Vec<LocalThreadCommunicator> {
    assert!(n > 0, "a mesh needs at least one partition");
    // `txs[from][to]` feeds `rxs[to][from]`; a rank's own pair is never used.
    let mut txs: Vec<Vec<Sender<Vec<u8>>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut rxs: Vec<Vec<Receiver<Vec<u8>>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for tx_row in &mut txs {
        for rx_row in &mut rxs {
            let (tx, rx) = channel();
            tx_row.push(tx);
            rx_row.push(rx);
        }
    }
    let ranks = txs.into_iter().zip(rxs).enumerate();
    ranks.map(|(rank, (txs, rxs))| LocalThreadCommunicator { rank, txs, rxs }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_partition_exchange_is_loopback() {
        let mut mesh = local_mesh(1);
        let got = mesh[0].exchange(vec![b"hello".to_vec()]);
        assert_eq!(got, vec![b"hello".to_vec()]);
        assert_eq!(mesh[0].rank(), 0);
        assert_eq!(mesh[0].size(), 1);
    }

    #[test]
    fn all_to_all_delivers_every_frame_to_the_right_rank() {
        let mesh = local_mesh(3);
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let me = comm.rank();
                    let frames =
                        (0..comm.size()).map(|p| vec![me as u8, p as u8]).collect::<Vec<_>>();
                    let got = comm.exchange(frames);
                    for (from, frame) in got.iter().enumerate() {
                        assert_eq!(frame, &vec![from as u8, me as u8]);
                    }
                    me
                })
            })
            .collect();
        let mut done: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2]);
    }

    #[test]
    fn broadcast_collects_every_rank_frame_in_rank_order() {
        let mesh = local_mesh(4);
        let handles: Vec<_> = mesh
            .into_iter()
            .map(|mut comm| {
                std::thread::spawn(move || {
                    let me = comm.rank() as u8;
                    // Two rounds back-to-back: FIFO channels keep rounds
                    // separated without explicit tags.
                    let r1 = comm.broadcast(vec![me, 1]);
                    let r2 = comm.broadcast(vec![me, 2]);
                    for (from, frame) in r1.iter().enumerate() {
                        assert_eq!(frame, &vec![from as u8, 1]);
                    }
                    for (from, frame) in r2.iter().enumerate() {
                        assert_eq!(frame, &vec![from as u8, 2]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
