//! Workload summaries: what the cost model needs to know about one
//! dedispersion problem instance.
//!
//! A workload is a *(setup, input instance)* pair reduced to the numbers
//! the model consumes: problem dimensions, useful flop, and — crucially —
//! the per-channel delay gradient (extra input samples a tile must span
//! per additional trial DM), which encodes the data-reuse available in
//! the observational setup.

use dedisp_core::delay::delay_seconds;
use dedisp_core::{DedispersionPlan, DmGrid, FrequencyBand, Result};
use serde::{Deserialize, Serialize};

/// A dedispersion problem instance as seen by the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Setup name, for reports.
    pub name: String,
    /// Frequency channels (`c`).
    pub channels: usize,
    /// Output samples per trial (`s`, one second of data).
    pub out_samples: usize,
    /// Trial DMs (`d`, the input instance).
    pub trials: usize,
    /// Per-channel delay gradient in samples per trial step. All zeros in
    /// the perfect-reuse (0-DM) scenario of Section IV-C.
    pub gradient: Vec<f64>,
    /// Useful flop of the instance (`d·s·c`).
    pub useful_flop: u64,
    /// Minimum sustained GFLOP/s for real-time operation.
    pub realtime_gflops: f64,
}

impl Workload {
    /// Derives a workload from a fully-built plan (exact, including the
    /// delay table's sample rounding).
    pub fn from_plan(name: impl Into<String>, plan: &DedispersionPlan) -> Self {
        Self {
            name: name.into(),
            channels: plan.channels(),
            out_samples: plan.out_samples(),
            trials: plan.trials(),
            gradient: plan.delays().gradient_samples_per_trial(),
            useful_flop: plan.flop(),
            realtime_gflops: plan.realtime_gflops(),
        }
    }

    /// Builds a workload analytically from band/grid/rate — no delay
    /// table allocation, so sweeping thousands of instances is free. The
    /// gradient of a linear DM grid is exact: Eq. 1 is linear in DM.
    ///
    /// # Errors
    ///
    /// Forwards parameter validation errors.
    pub fn analytic(
        name: impl Into<String>,
        band: &FrequencyBand,
        grid: &DmGrid,
        sample_rate: u32,
    ) -> Result<Self> {
        let f_ref = band.high_mhz();
        let gradient = band
            .channel_frequencies()
            .map(|f| delay_seconds(grid.step(), f, f_ref) * f64::from(sample_rate))
            .collect();
        let channels = band.channels();
        let out_samples = sample_rate as usize;
        let trials = grid.count();
        let useful_flop = trials as u64 * out_samples as u64 * channels as u64;
        Ok(Self {
            name: name.into(),
            channels,
            out_samples,
            trials,
            gradient,
            useful_flop,
            realtime_gflops: useful_flop as f64 / 1e9,
        })
    }

    /// The same instance with every delay gradient zeroed — the paper's
    /// third experiment: all trial DMs equal 0, exposing perfect reuse.
    pub fn zero_dm(&self) -> Self {
        Self {
            name: format!("{}-0dm", self.name),
            gradient: vec![0.0; self.channels],
            ..self.clone()
        }
    }

    /// Mean delay gradient across channels, a scalar summary of how
    /// hostile the setup is to data-reuse.
    pub fn mean_gradient(&self) -> f64 {
        if self.gradient.is_empty() {
            return 0.0;
        }
        self.gradient.iter().sum::<f64>() / self.gradient.len() as f64
    }

    /// Largest per-channel gradient (the lowest frequency channel).
    ///
    /// Costs one pass over the channels on every call — nothing is
    /// cached, `gradient` being a public field. A sweep that needs it per
    /// configuration builds a [`crate::Cell`], which folds it once.
    pub fn max_gradient(&self) -> f64 {
        self.gradient.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apertif_band() -> FrequencyBand {
        FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap()
    }

    fn lofar_band() -> FrequencyBand {
        FrequencyBand::new(138.0, 6.0 / 32.0, 32).unwrap()
    }

    #[test]
    fn analytic_matches_plan_gradient() {
        let band = FrequencyBand::new(140.0, 0.5, 32).unwrap();
        let grid = DmGrid::paper_grid(64).unwrap();
        let plan = DedispersionPlan::builder()
            .band(band)
            .dm_grid(grid)
            .sample_rate(10_000)
            .build()
            .unwrap();
        let exact = Workload::from_plan("w", &plan);
        let approx = Workload::analytic("w", &band, &grid, 10_000).unwrap();
        assert_eq!(exact.channels, approx.channels);
        assert_eq!(exact.trials, approx.trials);
        assert_eq!(exact.useful_flop, approx.useful_flop);
        for ch in 0..32 {
            let a = exact.gradient[ch];
            let b = approx.gradient[ch];
            // Table rounding can shift the gradient by at most one sample
            // over the 63-trial baseline.
            assert!((a - b).abs() < 0.05, "ch {ch}: {a} vs {b}");
        }
    }

    #[test]
    fn apertif_instance_shape() {
        let grid = DmGrid::paper_grid(4096).unwrap();
        let w = Workload::analytic("Apertif", &apertif_band(), &grid, 20_000).unwrap();
        assert_eq!(w.channels, 1024);
        assert_eq!(w.out_samples, 20_000);
        assert_eq!(w.trials, 4096);
        assert_eq!(w.useful_flop, 4096 * 20_000 * 1024);
        // Real-time line at 4,096 DMs ≈ 84 GFLOP/s.
        assert!((w.realtime_gflops - 83.9).abs() < 1.0);
        // Apertif per-trial spreads are a few samples at most.
        assert!(w.max_gradient() < 4.0, "max {}", w.max_gradient());
        assert!(w.mean_gradient() > 0.0);
    }

    #[test]
    fn lofar_gradient_is_hostile() {
        let grid = DmGrid::paper_grid(256).unwrap();
        let w = Workload::analytic("LOFAR", &lofar_band(), &grid, 200_000).unwrap();
        // Lowest channel: ≈ 900 samples of extra span per trial step.
        assert!(w.max_gradient() > 500.0, "max {}", w.max_gradient());
        // Highest channel is far milder: reuse exists at the band top.
        let min = w.gradient.iter().copied().fold(f64::MAX, f64::min);
        assert!(min < 50.0, "min {min}");
        // Gradient decreases monotonically with channel index.
        for pair in w.gradient.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn zero_dm_clears_gradient_only() {
        let grid = DmGrid::paper_grid(64).unwrap();
        let w = Workload::analytic("LOFAR", &lofar_band(), &grid, 200_000).unwrap();
        let z = w.zero_dm();
        assert!(z.gradient.iter().all(|&g| g == 0.0));
        assert_eq!(z.useful_flop, w.useful_flop);
        assert_eq!(z.trials, w.trials);
        assert!(z.name.contains("0dm"));
    }
}
