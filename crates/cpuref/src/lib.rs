//! # cpu-baseline — the paper's optimized CPU comparator
//!
//! The paper compares its tuned many-core dedispersion against "an
//! optimized CPU version ... parallelized using OpenMP, with different
//! threads computing different DM values and blocks of time samples.
//! Chunks of 8 time samples are computed at once using Intel's Advanced
//! Vector Extensions" on a Xeon E5-2620 (Section V-D, Figures 15–16).
//!
//! This crate provides both halves of that comparator:
//!
//! * [`kernel::OpenMpAvxKernel`] — the CPU code's decomposition: rayon
//!   threads over single trials and 512-sample time blocks, no DM
//!   tiling. It is `dedisp_core::ParallelKernel` under that
//!   configuration, so it sums through the same vectorized loop nest as
//!   the many-core kernels and runs for real.
//! * [`model::xeon_e5_2620`] — the E5-2620 expressed as a
//!   [`manycore_sim::DeviceDescriptor`], so the same analytic cost model
//!   that simulates the five accelerators also predicts the CPU baseline
//!   for the speedup figures.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernel;
pub mod model;

pub use kernel::OpenMpAvxKernel;
pub use model::{tuned_cpu_gflops, xeon_e5_2620};
