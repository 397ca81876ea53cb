//! LULESH — the hydrodynamics proxy app (paper §IV, "Hybrid").
//!
//! The communication pattern follows the characterization the paper cites
//! (Durango / automated pattern analysis \[39\], \[40\]): a 26-point 3-D
//! stencil (faces, edges and corners with geometrically shrinking message
//! sizes) followed by a sweep3d-style wavefront exchange, then compute.
//! LULESH requires a perfect process cube (512 ranks of the 528-node
//! partition; 16 nodes idle — paper §V).

use dfsim_mpi::MpiOp;

use crate::grid::Grid;
use crate::loopprog::LoopProgram;
use crate::spec::{div_bytes, div_time, scale_split, AppInstance};

/// Face message bytes (|Δ| = 1); 6 faces dominate the 1.95 MB peak ingress.
pub const FACE_BYTES: u64 = 327_680;
/// Edge message bytes (|Δ| = 2).
pub const EDGE_BYTES: u64 = 5_734;
/// Corner message bytes (|Δ| = 3).
pub const CORNER_BYTES: u64 = 448;
/// Sweep-phase message bytes (Table I second peak: 14.91 KB over 2).
pub const SWEEP_BYTES: u64 = 7_634;
/// Paper-scale iteration count.
pub const BASE_ITERS: u32 = 18;
/// Per-iteration compute, ps (calibrated: Table I exec 12.34 ms over 18
/// iterations, minus the ~280 µs network-limited exchange time).
pub const COMPUTE_PS: u64 = 400_000_000;

/// Build LULESH for `size` ranks (a perfect cube, as
/// [`crate::AppKind::check_size`] requires).
pub fn build(size: u32, scale: f64) -> AppInstance {
    let k = (size as f64).cbrt().round() as u32;
    debug_assert_eq!(k * k * k, size, "`AppKind::build` checks the size first");
    let s = scale_split(BASE_ITERS, 4, scale);
    let face = div_bytes(FACE_BYTES, s.byte_div);
    let edge = div_bytes(EDGE_BYTES, s.byte_div);
    let corner = div_bytes(CORNER_BYTES, s.byte_div);
    let sweep = div_bytes(SWEEP_BYTES, s.byte_div);
    let compute = div_time(COMPUTE_PS, s.byte_div);
    let grid = Grid::new(vec![k, k, k]);

    let programs = (0..size)
        .map(|rank| {
            // Precompute the 26-point neighbourhood with per-class sizes.
            let mut stencil: Vec<(u32, u64)> = Vec::with_capacity(26);
            for dx in -1..=1i32 {
                for dy in -1..=1i32 {
                    for dz in -1..=1i32 {
                        if (dx, dy, dz) == (0, 0, 0) {
                            continue;
                        }
                        if let Some(nb) = grid.offset_neighbor(rank, &[dx, dy, dz]) {
                            let class = (dx.abs() + dy.abs() + dz.abs()) as u32;
                            let bytes = match class {
                                1 => face,
                                2 => edge,
                                _ => corner,
                            };
                            stencil.push((nb, bytes));
                        }
                    }
                }
            }
            let sweep_up: Vec<u32> = (0..3).filter_map(|d| grid.neighbor(rank, d, -1)).collect();
            let sweep_down: Vec<u32> = (0..3).filter_map(|d| grid.neighbor(rank, d, 1)).collect();
            LoopProgram::boxed(s.iters, move |i, buf| {
                // Phase 1: 26-point halo exchange.
                let tag = (i as u64) << 2;
                for &(nb, _) in &stencil {
                    buf.push_back(MpiOp::Irecv { src: Some(nb), tag });
                }
                for &(nb, bytes) in &stencil {
                    buf.push_back(MpiOp::Isend { dst: nb, bytes, tag });
                }
                buf.push_back(MpiOp::WaitAll);
                // Phase 2: sweep3d wavefront.
                let tag = tag | 1;
                for &src in &sweep_up {
                    buf.push_back(MpiOp::Recv { src: Some(src), tag });
                }
                for &dst in &sweep_down {
                    buf.push_back(MpiOp::Isend { dst, bytes: sweep, tag });
                }
                buf.push_back(MpiOp::WaitAll);
                // Phase 3: hydrodynamics compute.
                buf.push_back(MpiOp::Compute(compute));
            })
        })
        .collect();
    AppInstance { programs, comms: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_rank_peak_ingress_matches_table1() {
        // 6 faces + 12 edges + 8 corners at paper scale ≈ 1.95 MB.
        let total = 6 * FACE_BYTES + 12 * EDGE_BYTES + 8 * CORNER_BYTES;
        let target = 1.95 * 1024.0 * 1024.0;
        assert!((total as f64 - target).abs() / target < 0.01, "got {total}");
        // Sweep peak: 2 × SWEEP_BYTES ≈ 14.91 KB.
        let sweep = 2 * SWEEP_BYTES;
        assert!((sweep as f64 - 14.91 * 1024.0).abs() / (14.91 * 1024.0) < 0.01);
    }

    #[test]
    fn center_rank_exchanges_with_26_neighbors() {
        let inst = build(27, 1000.0);
        let mut programs = inst.programs;
        let p = &mut programs[13]; // (1,1,1)
        let mut sends = 0;
        loop {
            match p.next_op().unwrap() {
                MpiOp::Isend { .. } => sends += 1,
                MpiOp::WaitAll => break,
                _ => {}
            }
        }
        assert_eq!(sends, 26);
    }

    #[test]
    fn sweep_phase_follows_stencil_phase() {
        let inst = build(8, 1000.0);
        let mut p = inst.programs.into_iter().next().unwrap();
        let mut ops = Vec::new();
        for _ in 0..64 {
            match p.next_op() {
                Some(op) => ops.push(op),
                None => break,
            }
        }
        // Expect two WaitAlls then a Compute within one iteration.
        let waits: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, o)| matches!(o, MpiOp::WaitAll).then_some(i))
            .collect();
        assert!(waits.len() >= 2);
        assert!(matches!(ops[waits[1] + 1], MpiOp::Compute(_)));
    }

    #[test]
    #[should_panic(expected = "perfect process cube")]
    fn rejects_non_cube_sizes() {
        let _ = crate::AppKind::LULESH.build(100, 1.0, 7);
    }
}
