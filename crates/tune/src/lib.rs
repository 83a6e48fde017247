//! # autotune — exhaustive configuration tuning with optimum statistics
//!
//! The paper's thesis is that no a-priori knowledge can select the
//! optimal (work-items, registers) configuration of the dedispersion
//! kernel — it depends on the platform, the telescope, and even the
//! number of trial DMs — and that exhaustive auto-tuning is "the only
//! feasible way to properly configure the dedispersion algorithm"
//! (Section V-A). This crate is that tuner:
//!
//! * [`space`] — enumeration of candidate configurations (the paper's
//!   "every meaningful combination of the four parameters").
//! * [`tuner`] — the exhaustive search over any [`Executor`]: the
//!   analytic device model of `manycore-sim`, or a measured host kernel.
//! * [`stats`] — the statistics the paper uses to quantify tuning impact:
//!   the signal-to-noise ratio of the optimum (Figures 8–9), Chebyshev
//!   bounds on the probability of guessing a near-optimal configuration,
//!   and performance histograms (Figure 10).
//! * [`fixed`] — the best *fixed* configuration baseline of Figures
//!   13–14: the single configuration that, working on all input
//!   instances, maximizes the summed GFLOP/s.
//! * [`host`] — an executor that scores configurations by *measured*
//!   wall-clock on this machine's real kernels.
//! * [`db`] — the persistent per-(platform, setup, instance) optimum
//!   store that the paper's first experiment produces.
//! * [`report`] — serializable result tables for the figure harnesses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod db;
pub mod fixed;
pub mod host;
pub mod report;
pub mod space;
pub mod stats;
pub mod tuner;

pub use db::{DatabaseError, TunedEntry, TuningDatabase};
pub use fixed::{best_fixed_config, FixedComparison};
pub use host::{HostExecutor, HostKernel};
pub use report::{InstanceResult, SweepReport};
pub use space::ConfigSpace;
pub use stats::{chebyshev_upper_bound, OptimizationStats};
pub use tuner::{Executor, SimExecutor, Tuner, TuningResult};
