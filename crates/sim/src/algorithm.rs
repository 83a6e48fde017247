//! Dedispersion algorithm families and their arithmetic cost physics.
//!
//! The paper tunes one algorithm — brute-force direct dedispersion,
//! `d·s·c` flop for `d` trial DMs, `s` output samples, `c` channels.
//! Related work offers structurally different algorithms whose cost
//! scales differently in the DM count:
//!
//! * **Subband** (tree-style two-stage, Barsdell et al.,
//!   arXiv:1201.5380; implemented in `dedisp_core::SubbandKernel`):
//!   a coarse stage dedisperses every channel at `⌈d/factor⌉` coarse
//!   DMs, then a fine stage recombines the subband partials at all `d`
//!   trials — `⌈d/factor⌉·s·c + d·s·n_sub` flop for `n_sub` subbands.
//!   Cheaper than brute force once `factor` exceeds ~`1`, at a bounded
//!   smearing error (see `SubbandKernel::max_smear_samples`).
//!
//! Only families with a kernel in the tree are modeled, so every rate
//! the cost model prices can be checked against one that runs.
//!
//! [`Algorithm::flop`] is the per-algorithm arithmetic volume;
//! [`CostModel::evaluate_algorithm`](crate::CostModel::evaluate_algorithm)
//! turns it into predicted time and an *effective* science rate. The
//! brute-force case is exactly the classic model — downstream rate
//! tables that only ever declare `BruteForce` reproduce the historic
//! numbers bit-for-bit.

use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// The canonical subband count the cost model assumes: one subband per
/// channel up to 32, matching the `SubbandConfig` shapes the kernels
/// are tuned with.
pub const MAX_SUBBANDS: usize = 32;

/// A dedispersion algorithm family with its own cost asymptotics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Direct shift-and-sum over every (trial, sample, channel) —
    /// the paper's tuned kernel. Exact; `d·s·c` flop.
    #[default]
    BruteForce,
    /// Two-stage subband dedispersion: coarse stage every `factor`-th
    /// trial DM, fine recombination at all trials. Approximate within
    /// the documented smear bound; flop matches
    /// `dedisp_core::SubbandConfig::flop` at the canonical subband
    /// count.
    Subband {
        /// Coarse-stage DM stride (the `dm_stride` of the matching
        /// `SubbandConfig`). Must be ≥ 1; `1` degenerates to
        /// brute-force cost plus the recombination term.
        factor: u32,
    },
}

impl Algorithm {
    /// Every family label, in declaration order — the label vocabulary
    /// of the `fleet_algorithm_assignments` metric family.
    pub const LABELS: [&'static str; 2] = ["brute-force", "subband"];

    /// Stable lowercase label (parameter-free: every `Subband { .. }`
    /// maps to `"subband"`).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::BruteForce => Self::LABELS[0],
            Algorithm::Subband { .. } => Self::LABELS[1],
        }
    }

    /// Arithmetic volume of dedispersing `trials` DMs over `samples`
    /// output samples and `channels` channels with this algorithm.
    pub fn flop_for(&self, channels: usize, samples: usize, trials: usize) -> f64 {
        let c = channels as f64;
        let s = samples as f64;
        let d = trials as f64;
        match self {
            Algorithm::BruteForce => d * s * c,
            Algorithm::Subband { factor } => {
                let stride = (*factor).max(1) as usize;
                let coarse = trials.div_ceil(stride) as f64;
                let n_sub = channels.min(MAX_SUBBANDS) as f64;
                coarse * s * c + d * s * n_sub
            }
        }
    }

    /// Arithmetic volume for `workload`.
    pub fn flop(&self, workload: &Workload) -> f64 {
        self.flop_for(workload.channels, workload.out_samples, workload.trials)
    }

    /// This algorithm's arithmetic volume relative to brute force on
    /// the same workload (< 1 means less work). Brute force is exactly
    /// `1.0`.
    pub fn work_ratio(&self, workload: &Workload) -> f64 {
        match self {
            Algorithm::BruteForce => 1.0,
            _ => self.flop(workload) / Algorithm::BruteForce.flop(workload),
        }
    }

    /// Whether the algorithm computes the exact brute-force answer
    /// (subband trades bounded error for the cheaper bound).
    pub fn is_exact(&self) -> bool {
        matches!(self, Algorithm::BruteForce)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Subband { factor } => write!(f, "subband/{factor}"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand};

    fn apertif(trials: usize) -> Workload {
        Workload::analytic(
            "Apertif",
            &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            20_000,
        )
        .unwrap()
    }

    #[test]
    fn brute_force_flop_is_the_workload_useful_flop() {
        let w = apertif(2000);
        assert_eq!(Algorithm::BruteForce.flop(&w), w.useful_flop as f64);
        assert_eq!(Algorithm::BruteForce.work_ratio(&w), 1.0);
    }

    #[test]
    fn subband_flop_matches_the_core_kernel_accounting() {
        // The cost model's subband term must agree with the flop count
        // the real two-stage kernel reports for the same shape.
        let w = apertif(2000);
        let factor = 32u32;
        let cfg =
            dedisp_core::SubbandConfig::new(w.channels.min(MAX_SUBBANDS), factor as usize).unwrap();
        let model = Algorithm::Subband { factor }.flop(&w);
        let kernel = cfg.flop(w.channels, w.out_samples, w.trials) as f64;
        assert_eq!(model, kernel);
    }

    #[test]
    fn subband_undercuts_brute_force_at_survey_scale() {
        let w = apertif(2000);
        let sub = Algorithm::Subband { factor: 32 }.work_ratio(&w);
        assert!(sub < 0.2, "subband ratio {sub}");
    }

    #[test]
    fn labels_and_display_are_stable() {
        assert_eq!(Algorithm::BruteForce.label(), "brute-force");
        assert_eq!(Algorithm::Subband { factor: 16 }.label(), "subband");
        assert_eq!(Algorithm::Subband { factor: 16 }.to_string(), "subband/16");
        assert_eq!(Algorithm::default(), Algorithm::BruteForce);
    }

    #[test]
    fn serde_round_trip() {
        for alg in [Algorithm::BruteForce, Algorithm::Subband { factor: 32 }] {
            let json = serde_json::to_string(&alg).unwrap();
            let back: Algorithm = serde_json::from_str(&json).unwrap();
            assert_eq!(alg, back);
        }
    }
}
