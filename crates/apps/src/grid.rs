//! Multi-dimensional process grids for the stencil/sweep workloads.

/// Factor `n` into `dims` near-balanced factors (largest first): the prime
/// factors of `n` are distributed greedily onto the smallest current
/// dimension. E.g. 528 → 3 dims = [11, 8, 6], 243 → 5 dims = \[3,3,3,3,3\].
pub fn factorize(n: u32, dims: usize) -> Vec<u32> {
    assert!(n > 0 && dims > 0);
    let mut primes = prime_factors(n);
    primes.sort_unstable_by(|a, b| b.cmp(a)); // largest first
    let mut out = vec![1u32; dims];
    for p in primes {
        let (i, _) = out.iter().enumerate().min_by_key(|&(_, &v)| v).unwrap();
        out[i] *= p;
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

fn prime_factors(mut n: u32) -> Vec<u32> {
    let mut fs = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            fs.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        fs.push(n);
    }
    fs
}

/// A row-major process grid.
#[derive(Debug, Clone)]
pub struct Grid {
    dims: Vec<u32>,
}

impl Grid {
    /// Grid with explicit dimensions.
    pub fn new(dims: Vec<u32>) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0));
        Self { dims }
    }

    /// Near-balanced grid of `n` ranks across `ndims` dimensions.
    pub fn balanced(n: u32, ndims: usize) -> Self {
        Self::new(factorize(n, ndims))
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Total ranks.
    pub fn size(&self) -> u32 {
        self.dims.iter().product()
    }

    /// Coordinates of a rank (row-major; dim 0 is the slowest-varying).
    pub fn coords(&self, rank: u32) -> Vec<u32> {
        debug_assert!(rank < self.size());
        let mut rest = rank;
        let mut out = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            out[i] = rest % d;
            rest /= d;
        }
        out
    }

    /// Rank of coordinates.
    pub fn rank(&self, coords: &[u32]) -> u32 {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut r = 0;
        for (c, &d) in coords.iter().zip(self.dims.iter()) {
            debug_assert!(*c < d);
            r = r * d + c;
        }
        r
    }

    /// The neighbour of `rank` at `delta` (±1) along `dim`; `None` at a
    /// non-periodic boundary.
    pub fn neighbor(&self, rank: u32, dim: usize, delta: i32) -> Option<u32> {
        let mut c = self.coords(rank);
        let v = c[dim] as i64 + delta as i64;
        if v < 0 || v >= self.dims[dim] as i64 {
            return None;
        }
        c[dim] = v as u32;
        Some(self.rank(&c))
    }

    /// All face neighbours (±1 along each dimension, non-periodic).
    pub fn face_neighbors(&self, rank: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for dim in 0..self.dims.len() {
            for delta in [-1, 1] {
                if let Some(nb) = self.neighbor(rank, dim, delta) {
                    out.push(nb);
                }
            }
        }
        out
    }

    /// The offset-neighbour at `deltas` (one per dimension), `None` if any
    /// coordinate leaves the grid.
    pub fn offset_neighbor(&self, rank: u32, deltas: &[i32]) -> Option<u32> {
        debug_assert_eq!(deltas.len(), self.dims.len());
        let mut c = self.coords(rank);
        for (i, &d) in deltas.iter().enumerate() {
            let v = c[i] as i64 + d as i64;
            if v < 0 || v >= self.dims[i] as i64 {
                return None;
            }
            c[i] = v as u32;
        }
        Some(self.rank(&c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_known_cases() {
        assert_eq!(factorize(528, 3), vec![11, 8, 6]);
        assert_eq!(factorize(243, 5), vec![3, 3, 3, 3, 3]);
        assert_eq!(factorize(512, 3), vec![8, 8, 8]);
        assert_eq!(factorize(7, 2), vec![7, 1]);
        assert_eq!(factorize(1, 4), vec![1, 1, 1, 1]);
    }

    #[test]
    fn factorize_preserves_product() {
        for n in 1..600u32 {
            for d in 1..=5usize {
                let f = factorize(n, d);
                assert_eq!(f.iter().product::<u32>(), n, "n={n} d={d}");
                assert_eq!(f.len(), d);
            }
        }
    }

    #[test]
    fn coords_rank_round_trip() {
        let g = Grid::balanced(528, 3);
        for r in 0..g.size() {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
    }

    #[test]
    fn neighbors_respect_boundaries() {
        let g = Grid::new(vec![3, 3]);
        // Corner rank 0 = (0,0): only +1 neighbours.
        assert_eq!(g.neighbor(0, 0, -1), None);
        assert_eq!(g.neighbor(0, 1, -1), None);
        assert_eq!(g.neighbor(0, 0, 1), Some(3));
        assert_eq!(g.neighbor(0, 1, 1), Some(1));
        // Center rank 4 = (1,1): 4 neighbours.
        assert_eq!(g.face_neighbors(4), vec![1, 7, 3, 5]);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let g = Grid::balanced(360, 4);
        for r in 0..g.size() {
            for nb in g.face_neighbors(r) {
                assert!(g.face_neighbors(nb).contains(&r), "{r} <-> {nb}");
            }
        }
    }

    #[test]
    fn offset_neighbors_for_26_point_stencil() {
        let g = Grid::new(vec![3, 3, 3]);
        let center = g.rank(&[1, 1, 1]);
        let mut count = 0;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if (dx, dy, dz) == (0, 0, 0) {
                        continue;
                    }
                    if g.offset_neighbor(center, &[dx, dy, dz]).is_some() {
                        count += 1;
                    }
                }
            }
        }
        assert_eq!(count, 26);
        // A corner has only 7 offset neighbours.
        let corner = g.rank(&[0, 0, 0]);
        let mut c = 0;
        for dx in -1..=1i32 {
            for dy in -1..=1i32 {
                for dz in -1..=1i32 {
                    if (dx, dy, dz) != (0, 0, 0)
                        && g.offset_neighbor(corner, &[dx, dy, dz]).is_some()
                    {
                        c += 1;
                    }
                }
            }
        }
        assert_eq!(c, 7);
    }
}
