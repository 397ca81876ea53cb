//! The nine workloads of the SC22 interference study (paper §IV, Table I).
//!
//! | Pattern   | App        | Communication behaviour                         |
//! |-----------|------------|--------------------------------------------------|
//! | Random    | UR         | each process sends to pseudo-random targets      |
//! | Sweep     | LU         | 2-D corner-to-corner wavefront                   |
//! | Alltoall  | FFT3D      | ring alltoalls along process rows and columns    |
//! | Stencil   | Halo3D     | 3-D halo exchange, 6 neighbours                  |
//! | Stencil   | LQCD       | 4-D halo exchange, 8 neighbours                  |
//! | Stencil   | Stencil5D  | 5-D halo exchange, up to 10 neighbours           |
//! | Allreduce | CosmoFlow  | periodic tree allreduce, long compute intervals  |
//! | Allreduce | DL         | same message size, ~4.7× higher injection rate   |
//! | Hybrid    | LULESH     | 26-point 3-D stencil + sweep3d, 512 ranks        |
//!
//! Every app is calibrated against Table I's paper-scale characteristics
//! (total message volume, execution time, injection rate, peak ingress
//! volume) and honours a `scale` divisor applied to message bytes and
//! compute times — which preserves injection *rates* and peak-ingress
//! *ordering* while shrinking simulated volume (`DESIGN.md` §5).

#![warn(missing_docs)]
// Library code: stdout belongs to the report/CSV emitters, so that
// `--csv > file` stays clean; diagnostics go to stderr.
#![deny(clippy::print_stdout)]

pub mod allreduce;
pub mod arrivals;
pub mod fft3d;
pub mod grid;
pub mod loopprog;
pub mod lu;
pub mod lulesh;
pub mod spec;
pub mod stencil;
pub mod ur;

pub use arrivals::{parse_arrival_list, poisson_arrivals, ArrivalSpec};
pub use loopprog::LoopProgram;
pub use spec::{AppInstance, AppKind, PaperRow};
