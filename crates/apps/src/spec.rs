//! Application catalogue: the nine workloads, their paper-scale
//! characteristics (Table I) and the common scaling machinery.

use dfsim_mpi::RankProgram;

/// A built application instance ready for `MpiSim::add_app`.
pub struct AppInstance {
    /// One program per world rank.
    pub programs: Vec<Box<dyn RankProgram>>,
    /// Extra communicators (world is implicit).
    pub comms: Vec<Vec<u32>>,
}

/// Paper-scale characterization of an app (Table I), used by the Table I
/// harness to print paper-vs-measured rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Communication pattern label.
    pub pattern: &'static str,
    /// Total message volume, MB.
    pub total_msg_mb: f64,
    /// Execution time, ms.
    pub exec_ms: f64,
    /// Message injection rate, GB/s (system-wide).
    pub inj_rate_gbs: f64,
    /// Peak ingress volume (human-readable, as printed in Table I).
    pub peak_ingress: &'static str,
    /// Peak ingress volume in bytes (for ordering checks).
    pub peak_ingress_bytes: u64,
}

/// The nine workloads (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Uniform Random background traffic.
    UR,
    /// NAS LU Gauss–Seidel 2-D wavefront sweep.
    LU,
    /// 2-D-decomposed FFT with row/column alltoalls.
    FFT3D,
    /// 3-D halo exchange (6 neighbours).
    Halo3D,
    /// Lattice QCD 4-D halo exchange (8 neighbours).
    LQCD,
    /// Synthetic 5-D halo exchange (up to 10 neighbours).
    Stencil5D,
    /// Data-parallel deep-learning cosmology app (periodic allreduce).
    CosmoFlow,
    /// Heavier allreduce app (~4.7× CosmoFlow's injection rate).
    DL,
    /// 26-point stencil + sweep hybrid proxy app (512 ranks).
    LULESH,
}

impl AppKind {
    /// All nine workloads in Table I order.
    pub const ALL: [AppKind; 9] = [
        AppKind::UR,
        AppKind::LU,
        AppKind::FFT3D,
        AppKind::Halo3D,
        AppKind::LQCD,
        AppKind::Stencil5D,
        AppKind::CosmoFlow,
        AppKind::DL,
        AppKind::LULESH,
    ];

    /// Display name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::UR => "UR",
            AppKind::LU => "LU",
            AppKind::FFT3D => "FFT3D",
            AppKind::Halo3D => "Halo3D",
            AppKind::LQCD => "LQCD",
            AppKind::Stencil5D => "Stencil5D",
            AppKind::CosmoFlow => "CosmoFlow",
            AppKind::DL => "DL",
            AppKind::LULESH => "LULESH",
        }
    }

    /// Parse a display name.
    pub fn from_name(s: &str) -> Option<AppKind> {
        Self::ALL.iter().copied().find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Table I row (paper-scale characteristics on 528 nodes; LULESH 512).
    pub fn paper_row(&self) -> PaperRow {
        match self {
            AppKind::UR => PaperRow {
                pattern: "Random",
                total_msg_mb: 11_829.48,
                exec_ms: 13.31,
                inj_rate_gbs: 888.48,
                peak_ingress: "3.07KB",
                peak_ingress_bytes: 3_072,
            },
            AppKind::LU => PaperRow {
                pattern: "Sweep",
                total_msg_mb: 13_713.22,
                exec_ms: 13.71,
                inj_rate_gbs: 999.88,
                peak_ingress: "30.0KB",
                peak_ingress_bytes: 30_720,
            },
            AppKind::FFT3D => PaperRow {
                pattern: "Alltoall",
                total_msg_mb: 15_781.09,
                exec_ms: 12.53,
                inj_rate_gbs: 1_259.35,
                peak_ingress: "51.68KB",
                peak_ingress_bytes: 52_920,
            },
            AppKind::Halo3D => PaperRow {
                pattern: "Stencil",
                total_msg_mb: 47_769.10,
                exec_ms: 10.85,
                inj_rate_gbs: 4_403.81,
                peak_ingress: "1.15MB",
                peak_ingress_bytes: 1_205_862,
            },
            AppKind::LQCD => PaperRow {
                pattern: "Stencil",
                total_msg_mb: 11_924.31,
                exec_ms: 13.79,
                inj_rate_gbs: 864.70,
                peak_ingress: "4.60MB",
                peak_ingress_bytes: 4_823_449,
            },
            AppKind::Stencil5D => PaperRow {
                pattern: "Stencil",
                total_msg_mb: 9_833.95,
                exec_ms: 13.70,
                inj_rate_gbs: 717.87,
                peak_ingress: "14.0MB",
                peak_ingress_bytes: 14_680_064,
            },
            AppKind::CosmoFlow => PaperRow {
                pattern: "Allreduce",
                total_msg_mb: 2_373.84,
                exec_ms: 13.65,
                inj_rate_gbs: 173.86,
                peak_ingress: "2.25MB",
                peak_ingress_bytes: 2_359_296,
            },
            AppKind::DL => PaperRow {
                pattern: "Allreduce",
                total_msg_mb: 9_714.44,
                exec_ms: 11.86,
                inj_rate_gbs: 819.12,
                peak_ingress: "2.30MB",
                peak_ingress_bytes: 2_411_724,
            },
            AppKind::LULESH => PaperRow {
                pattern: "Stencil+Sweep",
                total_msg_mb: 17_900.12,
                exec_ms: 12.34,
                inj_rate_gbs: 1_450.78,
                peak_ingress: "1.95MB",
                peak_ingress_bytes: 2_044_723,
            },
        }
    }

    /// Job size this app wants given `available` nodes: LULESH insists on a
    /// perfect process cube (paper §V: 512 of 528, 16 idle); everything else
    /// uses all available nodes.
    pub fn preferred_size(&self, available: u32) -> u32 {
        match self {
            AppKind::LULESH => {
                let mut k = 1;
                while (k + 1) * (k + 1) * (k + 1) <= available {
                    k += 1;
                }
                k * k * k
            }
            _ => available,
        }
    }

    /// Check that one job of this app can have `size` ranks: every app
    /// needs at least one, and LULESH a perfect process cube.
    pub fn check_size(&self, size: u32) -> Result<(), String> {
        if size == 0 {
            return Err("empty job".to_string());
        }
        let side = (size as f64).cbrt().round() as u32;
        if *self == AppKind::LULESH && side * side * side != size {
            return Err(format!("LULESH needs a perfect process cube, got {size}"));
        }
        Ok(())
    }

    /// Build the per-rank programs (and sub-communicators) for a job of
    /// `size` ranks at scale divisor `scale`, seeded by `seed`. Panics when
    /// `size` fails [`Self::check_size`].
    pub fn build(&self, size: u32, scale: f64, seed: u64) -> AppInstance {
        if let Err(e) = self.check_size(size) {
            panic!("{e}");
        }
        let scale = scale.max(1.0);
        match self {
            AppKind::UR => crate::ur::build(size, scale, seed),
            AppKind::LU => crate::lu::build(size, scale),
            AppKind::FFT3D => crate::fft3d::build(size, scale),
            AppKind::Halo3D => crate::stencil::build_halo3d(size, scale),
            AppKind::LQCD => crate::stencil::build_lqcd(size, scale),
            AppKind::Stencil5D => crate::stencil::build_stencil5d(size, scale),
            AppKind::CosmoFlow => crate::allreduce::build_cosmoflow(size, scale),
            AppKind::DL => crate::allreduce::build_dl(size, scale),
            AppKind::LULESH => crate::lulesh::build(size, scale),
        }
    }
}

impl std::fmt::Display for AppKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---- scaling machinery ------------------------------------------------------

/// How a `scale` divisor splits between fewer iterations and smaller
/// messages: iterations shrink first (down to `min_iters`, preserving the
/// pattern), the residual factor shrinks bytes and compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scaled {
    /// Scaled iteration count.
    pub iters: u32,
    /// Residual divisor applied to bytes and compute times.
    pub byte_div: f64,
}

pub(crate) fn scale_split(base_iters: u32, min_iters: u32, scale: f64) -> Scaled {
    debug_assert!(min_iters >= 1 && base_iters >= min_iters);
    let max_iter_factor = base_iters as f64 / min_iters as f64;
    let iter_factor = scale.clamp(1.0, max_iter_factor);
    let iters = ((base_iters as f64 / iter_factor).round() as u32).max(min_iters);
    let byte_div = (scale / iter_factor).max(1.0);
    Scaled { iters, byte_div }
}

/// Divide a byte quantity, keeping at least one byte.
pub(crate) fn div_bytes(bytes: u64, div: f64) -> u64 {
    ((bytes as f64 / div).round() as u64).max(1)
}

/// Divide a time quantity (picoseconds).
pub(crate) fn div_time(ps: u64, div: f64) -> u64 {
    (ps as f64 / div).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_split_prefers_iterations() {
        // Plenty of iterations: the whole factor comes out of them.
        let s = scale_split(7200, 8, 64.0);
        assert_eq!(s.iters, 113);
        assert!((s.byte_div - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scale_split_spills_into_bytes() {
        // Few iterations: residual goes to bytes.
        let s = scale_split(8, 2, 64.0);
        assert_eq!(s.iters, 2);
        assert!((s.byte_div - 16.0).abs() < 1e-9);
    }

    #[test]
    fn scale_one_is_identity() {
        let s = scale_split(100, 4, 1.0);
        assert_eq!(s.iters, 100);
        assert_eq!(s.byte_div, 1.0);
    }

    #[test]
    fn peak_ingress_ordering_matches_paper() {
        // The analysis in §V depends on this ordering.
        let b = |k: AppKind| k.paper_row().peak_ingress_bytes;
        assert!(b(AppKind::UR) < b(AppKind::LU));
        assert!(b(AppKind::LU) < b(AppKind::FFT3D));
        assert!(b(AppKind::FFT3D) < b(AppKind::Halo3D));
        assert!(b(AppKind::Halo3D) < b(AppKind::LULESH));
        assert!(b(AppKind::LULESH) < b(AppKind::CosmoFlow));
        assert!(b(AppKind::CosmoFlow) < b(AppKind::DL));
        assert!(b(AppKind::DL) < b(AppKind::LQCD));
        assert!(b(AppKind::LQCD) < b(AppKind::Stencil5D));
    }

    #[test]
    fn injection_rate_extremes_match_paper() {
        let r = |k: AppKind| k.paper_row().inj_rate_gbs;
        // Halo3D is the highest-injection-rate app, CosmoFlow the lowest.
        for k in AppKind::ALL {
            assert!(r(k) <= r(AppKind::Halo3D));
            assert!(r(k) >= r(AppKind::CosmoFlow));
        }
        // DL ≈ 4.7× CosmoFlow (paper §IV).
        let ratio = r(AppKind::DL) / r(AppKind::CosmoFlow);
        assert!((ratio - 4.7).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn lulesh_insists_on_a_cube() {
        assert_eq!(AppKind::LULESH.preferred_size(528), 512);
        assert_eq!(AppKind::LULESH.preferred_size(512), 512);
        assert_eq!(AppKind::LULESH.preferred_size(511), 343);
        assert_eq!(AppKind::UR.preferred_size(528), 528);
    }

    #[test]
    fn check_size_names_the_rule() {
        for k in AppKind::ALL {
            assert_eq!(k.check_size(k.preferred_size(36)), Ok(()), "{k}");
            assert_eq!(k.check_size(0), Err("empty job".to_string()), "{k}");
        }
        assert_eq!(AppKind::UR.check_size(5), Ok(()));
        let err = AppKind::LULESH.check_size(5).unwrap_err();
        assert!(err.contains("perfect process cube, got 5"), "{err}");
    }

    #[test]
    fn names_round_trip() {
        for k in AppKind::ALL {
            assert_eq!(AppKind::from_name(k.name()), Some(k));
        }
        assert_eq!(AppKind::from_name("cosmoflow"), Some(AppKind::CosmoFlow));
        assert_eq!(AppKind::from_name("nope"), None);
    }

    #[test]
    fn every_app_builds_small_instances() {
        for k in AppKind::ALL {
            let size = k.preferred_size(36);
            let inst = k.build(size, 256.0, 7);
            assert_eq!(inst.programs.len(), size as usize, "{k}");
        }
    }
}
