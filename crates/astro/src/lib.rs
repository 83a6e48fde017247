//! # radioastro — observational substrate for dedispersion experiments
//!
//! The paper evaluates dedispersion under two observational setups drawn
//! from telescopes operated by ASTRON: the **Apertif** system on the
//! Westerbork telescope and **LOFAR** (Section IV). This crate provides
//! those setups as first-class values, plus everything needed to exercise
//! the dedispersion code path end-to-end without telescope hardware:
//!
//! * [`setup`] — [`ObservationalSetup`]: band, time resolution, DM grid
//!   conventions; presets [`ObservationalSetup::apertif`] and
//!   [`ObservationalSetup::lofar`]; the paper's 2–4,096 input-instance
//!   sweep.
//! * [`signal`] — synthetic channelized time-series: Gaussian noise plus
//!   dispersed pulses injected with the exact Eq. 1 delays, so that
//!   dedispersing at the injected DM re-aligns the pulse.
//! * [`detect`] — per-trial detection statistics over dedispersed output;
//!   the S/N peak must sit at the injected DM.
//! * [`dmplan`] — DDplan-style trial-grid planning from smearing
//!   analysis (sampling, intra-channel, pulse width, step).
//! * [`realtime`] — the real-time constraint of Figures 6–7 and the
//!   survey sizing arithmetic of Section V-D.
//! * [`filterbank`] — a minimal channelized-data container format
//!   (header + packed samples), for moving synthetic observations around.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod detect;
pub mod dmplan;
pub mod filterbank;
pub mod realtime;
pub mod setup;
pub mod signal;

pub use detect::{detect_best_trial, Detection, TrialStat};
pub use dmplan::{DmPlan, DmPlanner, DmSegment};
pub use filterbank::Filterbank;
pub use realtime::{RealtimeCheck, SurveySizing};
pub use setup::{ObservationalSetup, PAPER_INSTANCES};
pub use signal::{PulseSpec, SignalGenerator};
