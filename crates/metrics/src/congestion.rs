//! The congestion-index matrix of Fig 12.
//!
//! The paper adapts a "congestion index" — the ratio between average link
//! throughput and maximum link capacity — and plots a `g × g` heat map:
//! entry `(i, j)`, `i ≠ j`, is the index of the directed global link from
//! group `i` to group `j`; the diagonal `(i, i)` is the average over group
//! `i`'s directed local links.

use dfsim_des::Time;

/// Byte counters per group pair, convertible into congestion indices.
#[derive(Debug, Clone)]
pub struct CongestionMatrix {
    groups: usize,
    /// Directed global-link bytes, `bytes[i * groups + j]`.
    global_bytes: Vec<u64>,
    /// Local-link bytes accumulated per group.
    local_bytes: Vec<u64>,
    /// Number of directed local links per group (`a·(a−1)`).
    local_links_per_group: u64,
}

impl CongestionMatrix {
    /// Matrix for `groups` groups with `routers_per_group` routers each.
    pub fn new(groups: usize, routers_per_group: u64) -> Self {
        Self {
            groups,
            global_bytes: vec![0; groups * groups],
            local_bytes: vec![0; groups],
            local_links_per_group: routers_per_group * (routers_per_group - 1),
        }
    }

    /// Record traffic on the directed global link `src → dst`.
    #[inline]
    pub fn add_global(&mut self, src: usize, dst: usize, bytes: u64) {
        debug_assert_ne!(src, dst);
        self.global_bytes[src * self.groups + dst] += bytes;
    }

    /// Record traffic on any local link within `group`.
    #[inline]
    pub fn add_local(&mut self, group: usize, bytes: u64) {
        self.local_bytes[group] += bytes;
    }

    /// Bytes on the directed global link `src → dst`.
    pub fn global(&self, src: usize, dst: usize) -> u64 {
        self.global_bytes[src * self.groups + dst]
    }

    /// Local bytes in a group.
    pub fn local(&self, group: usize) -> u64 {
        self.local_bytes[group]
    }

    /// The full index matrix for a run of `elapsed` ps on links of
    /// `bandwidth_gbps`: entry `(i,j)` ∈ [0, 1] with the diagonal holding the
    /// per-group local-link average.
    pub fn index_matrix(&self, elapsed: Time, bandwidth_gbps: u64) -> Vec<Vec<f64>> {
        let cap = capacity_bytes(elapsed, bandwidth_gbps);
        (0..self.groups)
            .map(|i| {
                (0..self.groups)
                    .map(|j| {
                        if i == j {
                            let per_link = self.local_bytes[i] as f64
                                / self.local_links_per_group.max(1) as f64;
                            (per_link / cap).min(1.0)
                        } else {
                            (self.global(i, j) as f64 / cap).min(1.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Mean off-diagonal (global) congestion index. Each per-link index is
    /// clamped to 1 exactly as [`CongestionMatrix::index_matrix`] clamps its
    /// entries, so the scalar can never exceed every entry of the matrix it
    /// summarizes.
    pub fn mean_global_index(&self, elapsed: Time, bandwidth_gbps: u64) -> f64 {
        let cap = capacity_bytes(elapsed, bandwidth_gbps);
        let g = self.groups;
        if g < 2 {
            return 0.0;
        }
        let sum: f64 = (0..g)
            .flat_map(|i| (0..g).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| (self.global(i, j) as f64 / cap).min(1.0))
            .sum();
        sum / (g * (g - 1)) as f64
    }

    /// Population std-dev of the off-diagonal indices — the imbalance measure
    /// behind the paper's "hot spot" observation. Clamped per link like
    /// [`CongestionMatrix::index_matrix`].
    pub fn std_global_index(&self, elapsed: Time, bandwidth_gbps: u64) -> f64 {
        let cap = capacity_bytes(elapsed, bandwidth_gbps);
        let g = self.groups;
        if g < 2 {
            return 0.0;
        }
        let vals: Vec<f64> = (0..g)
            .flat_map(|i| (0..g).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| (self.global(i, j) as f64 / cap).min(1.0))
            .collect();
        crate::summary::Stats::of(&vals).std
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Elementwise sum of another matrix's byte counters (merging
    /// per-partition matrices of one sharded run).
    pub fn merge(&mut self, other: &CongestionMatrix) {
        assert_eq!(self.groups, other.groups, "congestion matrix size mismatch");
        for (a, b) in self.global_bytes.iter_mut().zip(other.global_bytes.iter()) {
            *a += *b;
        }
        for (a, b) in self.local_bytes.iter_mut().zip(other.local_bytes.iter()) {
            *a += *b;
        }
    }
}

/// Bytes a single link can move in `elapsed` ps.
fn capacity_bytes(elapsed: Time, bandwidth_gbps: u64) -> f64 {
    (bandwidth_gbps as f64 / 8.0) * (elapsed as f64 / 1000.0) // Gb/s → B/ns, ps → ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfsim_des::MILLISECOND;

    #[test]
    fn capacity_math() {
        // 200 Gb/s for 1 ms = 25 MB.
        assert!((capacity_bytes(MILLISECOND, 200) - 25_000_000.0).abs() < 1.0);
    }

    #[test]
    fn fully_loaded_link_has_index_one() {
        let mut m = CongestionMatrix::new(3, 4);
        m.add_global(0, 1, 25_000_000);
        let idx = m.index_matrix(MILLISECOND, 200);
        assert!((idx[0][1] - 1.0).abs() < 1e-9);
        assert_eq!(idx[1][0], 0.0);
    }

    #[test]
    fn diagonal_averages_local_links() {
        let mut m = CongestionMatrix::new(2, 4); // 12 directed local links
        m.add_local(0, 12 * 25_000_000); // each local link fully loaded for 1 ms
        let idx = m.index_matrix(MILLISECOND, 200);
        assert!((idx[0][0] - 1.0).abs() < 1e-9);
        assert_eq!(idx[1][1], 0.0);
    }

    #[test]
    fn index_is_clamped_to_one() {
        let mut m = CongestionMatrix::new(2, 2);
        m.add_global(0, 1, u64::MAX / 4);
        let idx = m.index_matrix(1, 200);
        assert_eq!(idx[0][1], 1.0);
    }

    #[test]
    fn mean_and_std_clamp_like_the_matrix() {
        // One link driven 10x past capacity: every per-link index feeding the
        // scalar mean/std must clamp at 1.0 exactly like the matrix entries,
        // so the mean can never exceed the largest reported matrix entry.
        let mut m = CongestionMatrix::new(2, 2);
        m.add_global(0, 1, 250_000_000); // 10x the 25 MB/ms capacity
        let idx = m.index_matrix(MILLISECOND, 200);
        assert_eq!(idx[0][1], 1.0);

        let mean = m.mean_global_index(MILLISECOND, 200);
        // 2 off-diagonal entries, one clamped to 1.0: mean = 0.5 (an
        // unclamped index would report 5.0 — larger than every entry).
        assert!((mean - 0.5).abs() < 1e-12, "mean {mean} must use clamped indices");
        let max_entry = idx.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        assert!(mean <= max_entry, "scalar mean {mean} exceeds every matrix entry {max_entry}");

        // std of {1.0, 0.0} is 0.5; unclamped it would be 2.5.
        let std = m.std_global_index(MILLISECOND, 200);
        assert!((std - 0.5).abs() < 1e-12, "std {std} must use clamped indices");
    }

    #[test]
    fn mean_and_std_of_balanced_traffic() {
        let mut m = CongestionMatrix::new(3, 2);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    m.add_global(i, j, 1_000_000);
                }
            }
        }
        let std = m.std_global_index(MILLISECOND, 200);
        assert!(std < 1e-12, "balanced traffic must have zero imbalance, got {std}");
        assert!(m.mean_global_index(MILLISECOND, 200) > 0.0);
    }
}
