//! The paper's experiment constants.
//!
//! * **Standalone** (§V, blue bars of Fig 4): one app on its half of the
//!   1,056-node system, the other half idle.
//! * **Pairwise** (§V, Figs 4–9): the system equally divided between a
//!   target and a background app; random placement; the target's process-
//!   to-node mapping identical with and without the background (same
//!   placement seed and partition order, idle padding when the target
//!   takes fewer than 528 nodes — LULESH's 512, paper §V).
//! * **Mixed** (§VI, Table II, Figs 10–13): six apps of different patterns
//!   filling all 1,056 nodes (140 + 138 + 140 + 139 + 256 + 243 = 1,056).
//!
//! The workloads themselves are [`crate::spec::Workload`] variants run
//! through [`crate::simulation::Simulation`]; this module holds the
//! paper's tables they are built from.

use dfsim_apps::AppKind;

use crate::runner::JobSpec;

/// Table II job sizes (paper §VI).
pub const MIXED_JOBS: [(AppKind, u32); 6] = [
    (AppKind::FFT3D, 140),
    (AppKind::CosmoFlow, 138),
    (AppKind::LU, 140),
    (AppKind::UR, 139),
    (AppKind::LQCD, 256),
    (AppKind::Stencil5D, 243),
];

/// Table II on a machine of `num_nodes` nodes: each job scaled by
/// `num_nodes / 1056`, rounded, at least 2 ranks. The sizes are Table II's
/// own on the paper system. Rounding and the 2-rank floor can add up to
/// more than the machine holds; the excess is taken back one node at a
/// time from the job rounded up the furthest, so the mix fits every
/// machine of 12 nodes or more.
pub fn mixed_jobs(num_nodes: u32) -> Vec<JobSpec> {
    let total: u32 = MIXED_JOBS.iter().map(|&(_, s)| s).sum();
    let factor = num_nodes as f64 / total as f64;
    let exact: Vec<f64> = MIXED_JOBS.iter().map(|&(_, s)| s as f64 * factor).collect();
    let mut sizes: Vec<u32> = exact.iter().map(|e| (e.round() as u32).max(2)).collect();
    let over = sizes.iter().sum::<u32>().saturating_sub(num_nodes);
    for _ in 0..over {
        let shave = (0..sizes.len())
            .filter(|&i| sizes[i] > 2)
            .max_by(|&a, &b| (sizes[a] as f64 - exact[a]).total_cmp(&(sizes[b] as f64 - exact[b])));
        match shave {
            Some(i) => sizes[i] -= 1,
            None => break, // under 12 nodes: `prepare` names the shortfall
        }
    }
    MIXED_JOBS.iter().zip(sizes).map(|(&(kind, _), s)| JobSpec::sized(kind, s)).collect()
}

/// The background set of Fig 4 (legend order).
pub const FIG4_BACKGROUNDS: [Option<AppKind>; 7] = [
    None,
    Some(AppKind::UR),
    Some(AppKind::LU),
    Some(AppKind::FFT3D),
    Some(AppKind::CosmoFlow),
    Some(AppKind::DL),
    Some(AppKind::Halo3D),
];

/// The target set of Fig 4 (subplot order).
pub const FIG4_TARGETS: [AppKind; 6] = [
    AppKind::FFT3D,
    AppKind::LU,
    AppKind::LQCD,
    AppKind::CosmoFlow,
    AppKind::Stencil5D,
    AppKind::LULESH,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(num_nodes: u32) -> Vec<u32> {
        mixed_jobs(num_nodes).iter().map(|j| j.size).collect()
    }

    #[test]
    fn mixed_jobs_fill_the_machine_exactly() {
        let total: u32 = MIXED_JOBS.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 1_056);
        assert_eq!(sizes(1_056), [140, 138, 140, 139, 256, 243], "Table II on the paper system");
        assert_eq!(sizes(72), [10, 9, 10, 9, 17, 17], "the 72-node test system");
    }

    /// Regression: plain rounding overshot 271 of these machine sizes
    /// (36 → 37, 120 → 121, …), so `workload mixed` was rejected on them.
    #[test]
    fn scaled_mix_fits_every_machine_size() {
        for n in 12..=1_056 {
            let s = sizes(n);
            assert!(s.iter().all(|&x| x >= 2), "{n} nodes: a job under 2 ranks in {s:?}");
            assert!(s.iter().sum::<u32>() <= n, "{n} nodes: {s:?} does not fit");
        }
    }

    #[test]
    fn fig4_sets_match_paper() {
        assert_eq!(FIG4_TARGETS.len(), 6);
        assert_eq!(FIG4_BACKGROUNDS.len(), 7);
        assert_eq!(FIG4_BACKGROUNDS[0], None);
    }
}
