//! # dedisp-core — auto-tunable incoherent dedispersion
//!
//! This crate implements the primary contribution of *Sclocco et al.,
//! "Auto-Tuning Dedispersion for Many-Core Accelerators" (IPDPS 2014)*:
//! a dedispersion algorithm whose parallel decomposition is governed by
//! four user-controlled parameters, designed to be specialized at run time
//! and tuned automatically per platform and per observational setup.
//!
//! ## Background
//!
//! Radio signals from impulsive astrophysical sources (pulsars, fast radio
//! bursts) are *dispersed* by free electrons in the interstellar medium:
//! lower frequencies arrive progressively later. The delay of a frequency
//! component `f_i` relative to the highest observed frequency `f_h` is
//!
//! ```text
//! k ≈ 4150 × DM × (1/f_i² − 1/f_h²)   [seconds, f in MHz]      (Eq. 1)
//! ```
//!
//! where the *dispersion measure* (DM) is the integrated electron column
//! density along the line of sight. Dedispersion shifts each frequency
//! channel back by its delay and integrates over channels. When searching
//! for unknown sources the DM is unknown, so the input must be dedispersed
//! for thousands of trial DMs — a brute-force, data-intensive search.
//!
//! ## Crate layout
//!
//! * [`freq`] — frequency bands and channelization.
//! * [`dm`] — trial-DM grids.
//! * [`delay`] — Eq. 1 and precomputed per-(channel, DM) delay tables.
//! * [`config`] — [`KernelConfig`]: the four tunable parameters.
//! * [`buffer`] — channelized input and dedispersed output matrices.
//! * [`plan`] — [`DedispersionPlan`]: everything needed to execute.
//! * [`kernel`] — the sequential reference (Algorithm 1 of the paper), the
//!   configuration-specialized tiled kernel, and the rayon-parallel kernel.
//! * [`ai`] — arithmetic-intensity analysis (Eqs. 2 and 3) and roofline
//!   helpers, formalizing the paper's memory-boundedness argument.
//! * [`codegen`] — run-time generation of the OpenCL C source that the
//!   paper's implementation would emit for a given configuration.
//! * [`stream`] — the rolling input window for continuous observations.
//!
//! ## Quick example
//!
//! ```
//! use dedisp_core::prelude::*;
//!
//! // A small observational setup: 64 channels of 0.29 MHz above 1420 MHz,
//! // 1000 samples per second, 32 trial DMs spaced 0.25 pc/cm³.
//! let band = FrequencyBand::new(1420.0, 0.29, 64).unwrap();
//! let dms = DmGrid::new(0.0, 0.25, 32).unwrap();
//! let plan = DedispersionPlan::builder()
//!     .band(band)
//!     .sample_rate(1000)
//!     .dm_grid(dms)
//!     .build()
//!     .unwrap();
//!
//! let input = InputBuffer::constant(&plan, 1.0);
//! let mut output = OutputBuffer::for_plan(&plan);
//! let config = KernelConfig::new(8, 4, 2, 2).unwrap();
//! TiledKernel::new(config).dedisperse(&plan, &input, &mut output).unwrap();
//!
//! // Constant input of 1.0 dedisperses to the channel count in every bin.
//! assert!(output.as_slice().iter().all(|&v| (v - 64.0).abs() < 1e-3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ai;
pub mod buffer;
pub mod codegen;
pub mod config;
pub mod delay;
pub mod dm;
pub mod error;
pub mod freq;
pub mod kernel;
pub mod plan;
pub mod stream;

pub use ai::{ArithmeticIntensity, Roofline};
pub use buffer::{InputBuffer, OutputBuffer};
pub use config::KernelConfig;
pub use delay::{DelayTable, DISPERSION_CONSTANT};
pub use dm::DmGrid;
pub use error::{DedispError, Result};
pub use freq::FrequencyBand;
pub use kernel::{
    Dedisperser, NaiveKernel, ParallelKernel, SlabSink, SubbandConfig, SubbandKernel, TiledKernel,
};
pub use plan::{DedispersionPlan, PlanBuilder};
pub use stream::StreamWindow;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::ai::{ArithmeticIntensity, Roofline};
    pub use crate::buffer::{InputBuffer, OutputBuffer};
    pub use crate::config::KernelConfig;
    pub use crate::delay::{DelayTable, DISPERSION_CONSTANT};
    pub use crate::dm::DmGrid;
    pub use crate::error::{DedispError, Result};
    pub use crate::freq::FrequencyBand;
    pub use crate::kernel::{
        Dedisperser, NaiveKernel, ParallelKernel, SlabSink, SubbandConfig, SubbandKernel,
        TiledKernel,
    };
    pub use crate::plan::{DedispersionPlan, PlanBuilder};
    pub use crate::stream::StreamWindow;
}
