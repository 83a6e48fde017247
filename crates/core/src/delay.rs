//! Dispersion delays (Eq. 1 of the paper) and precomputed delay tables.
//!
//! The delay of a frequency component `f_i` relative to the highest
//! frequency `f_h`, for a given dispersion measure, is
//!
//! ```text
//! k ≈ 4150 × DM × (1/f_i² − 1/f_h²)    [s; f in MHz; DM in pc/cm³]
//! ```
//!
//! Delays can be computed in advance and therefore do not contribute to
//! the algorithm's complexity (paper, Section III-A). The [`DelayTable`]
//! stores the per-(trial, channel) delay in integer samples; it also
//! exposes the *delay spread* across a range of trials, which quantifies
//! the data-reuse available to a tiled kernel (Section III-B) and is the
//! key input to the accelerator cost model.

use serde::{Deserialize, Serialize};

use crate::dm::DmGrid;
use crate::error::{DedispError, Result};
use crate::freq::FrequencyBand;

/// The dispersion constant used by the paper, in s·MHz²·cm³/pc.
///
/// The physically precise value is ≈ 4148.808; the paper (Eq. 1) rounds it
/// to 4,150 and we follow the paper.
pub const DISPERSION_CONSTANT: f64 = 4150.0;

/// Dispersion delay in **seconds** of frequency `f_mhz` relative to the
/// reference (highest) frequency `f_ref_mhz`, for dispersion measure
/// `dm` (pc/cm³). This is Eq. 1 of the paper.
///
/// Frequencies must be positive; `f_mhz <= f_ref_mhz` yields a
/// non-negative delay.
#[inline]
pub fn delay_seconds(dm: f64, f_mhz: f64, f_ref_mhz: f64) -> f64 {
    DISPERSION_CONSTANT * dm * (1.0 / (f_mhz * f_mhz) - 1.0 / (f_ref_mhz * f_ref_mhz))
}

/// Dispersion delay in **samples** (rounded to nearest) at a given
/// sampling rate in samples/second.
#[inline]
pub fn delay_samples(dm: f64, f_mhz: f64, f_ref_mhz: f64, sample_rate: u32) -> usize {
    let k = delay_seconds(dm, f_mhz, f_ref_mhz);
    debug_assert!(k >= -0.5, "negative delay: f_mhz above reference?");
    (k * f64::from(sample_rate)).round().max(0.0) as usize
}

/// Precomputed delays, in samples, for every (trial DM, channel) pair.
///
/// Layout: row-major by trial (`delays[trial * channels + channel]`), so a
/// single trial's delays across channels are contiguous — matching the
/// access order of the inner loop of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayTable {
    channels: usize,
    trials: usize,
    sample_rate: u32,
    delays: Vec<u32>,
}

impl DelayTable {
    /// Builds a delay table from a band, a DM grid and a sampling rate.
    ///
    /// Delays are measured relative to the top edge of the band, using
    /// each channel's bottom edge as its representative frequency (the
    /// most conservative choice: it upper-bounds intra-channel smearing).
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::InvalidParameter`] if `sample_rate` is zero.
    pub fn build(band: &FrequencyBand, grid: &DmGrid, sample_rate: u32) -> Result<Self> {
        if sample_rate == 0 {
            return Err(DedispError::invalid("sample_rate", "must be non-zero"));
        }
        let channels = band.channels();
        let trials = grid.count();
        let f_ref = band.high_mhz();
        let mut delays = Vec::with_capacity(channels * trials);
        for dm in grid.values() {
            for ch in 0..channels {
                let d = delay_samples(dm, band.channel_mhz(ch), f_ref, sample_rate);
                delays.push(u32::try_from(d).map_err(|_| {
                    DedispError::invalid(
                        "delay",
                        format!("delay of {d} samples overflows u32 (dm={dm})"),
                    )
                })?);
            }
        }
        Ok(Self {
            channels,
            trials,
            sample_rate,
            delays,
        })
    }

    /// Builds an all-zero delay table with the same shape, used by the
    /// paper's third experiment (Section IV-C): every trial DM is treated
    /// as 0, exposing theoretically perfect data-reuse to the kernel.
    pub fn zeros(channels: usize, trials: usize, sample_rate: u32) -> Result<Self> {
        if channels == 0 {
            return Err(DedispError::invalid("channels", "must be non-zero"));
        }
        if trials == 0 {
            return Err(DedispError::invalid("trials", "must be non-zero"));
        }
        if sample_rate == 0 {
            return Err(DedispError::invalid("sample_rate", "must be non-zero"));
        }
        Ok(Self {
            channels,
            trials,
            sample_rate,
            delays: vec![0; channels * trials],
        })
    }

    /// Number of frequency channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of trial DMs.
    #[inline]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Sampling rate the delays were quantized at.
    #[inline]
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Delay in samples for `(trial, channel)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the indices are out of range.
    #[inline]
    pub fn delay(&self, trial: usize, channel: usize) -> usize {
        debug_assert!(trial < self.trials && channel < self.channels);
        self.delays[trial * self.channels + channel] as usize
    }

    /// The delays of one trial across all channels, lowest channel first.
    #[inline]
    pub fn trial_row(&self, trial: usize) -> &[u32] {
        &self.delays[trial * self.channels..(trial + 1) * self.channels]
    }

    /// Every trial's row, lowest trial first: `trial_row(t)` starts at
    /// `t × channels`.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.delays
    }

    /// The largest delay in the table — determines how many extra input
    /// samples (`t − s`) are needed to dedisperse one second of data.
    pub fn max_delay(&self) -> usize {
        self.delays.iter().copied().max().unwrap_or(0) as usize
    }

    /// Delay spread of `channel` across the trial range
    /// `[trial_lo, trial_hi]` (inclusive): the number of *extra* input
    /// samples a tile covering those trials must read for this channel,
    /// relative to a single-trial tile.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if indices are out of range or reversed.
    pub fn spread(&self, channel: usize, trial_lo: usize, trial_hi: usize) -> usize {
        debug_assert!(trial_lo <= trial_hi && trial_hi < self.trials);
        let lo = self.delay(trial_lo, channel);
        let hi = self.delay(trial_hi, channel);
        debug_assert!(hi >= lo, "delays must be monotone in DM");
        hi - lo
    }

    /// The per-trial delay gradient of each channel, in samples per trial
    /// step, measured between the first and last trial (exact for a linear
    /// DM grid, since Eq. 1 is linear in DM).
    ///
    /// This is the quantity the accelerator cost model consumes: a tile of
    /// `D` consecutive trials must read `≈ gradient × (D − 1)` extra
    /// samples per channel.
    pub fn gradient_samples_per_trial(&self) -> Vec<f64> {
        let mut grad = vec![0.0; self.channels];
        if self.trials < 2 {
            return grad;
        }
        let span = (self.trials - 1) as f64;
        for (ch, g) in grad.iter_mut().enumerate() {
            *g = (self.delay(self.trials - 1, ch) as f64 - self.delay(0, ch) as f64) / span;
        }
        grad
    }

    /// Returns `true` if every delay is zero (the perfect-reuse scenario).
    pub fn is_zero(&self) -> bool {
        self.delays.iter().all(|&d| d == 0)
    }

    /// Total size of the table in bytes (as stored on an accelerator).
    pub fn size_bytes(&self) -> usize {
        self.delays.len() * std::mem::size_of::<u32>()
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
    fn delay_seconds_matches_hand_computation() {
        // k = 4150 * 256 * (1/1420^2 - 1/1720^2) ≈ 0.1677 s
        let k = delay_seconds(256.0, 1420.0, 1720.0);
        assert!((k - 0.16768).abs() < 1e-3, "got {k}");
    }

    #[test]
    fn delay_zero_dm_is_zero() {
        assert_eq!(delay_seconds(0.0, 1420.0, 1720.0), 0.0);
        assert_eq!(delay_samples(0.0, 138.0, 144.0, 200_000), 0);
    }

    #[test]
    fn delay_at_reference_frequency_is_zero() {
        assert_eq!(delay_samples(100.0, 1720.0, 1720.0, 20_000), 0);
    }

    #[test]
    fn lofar_delays_much_larger_than_apertif() {
        // At equal DM, low-frequency observations smear far more.
        let ap = delay_seconds(10.0, 1420.0, 1720.0);
        let lo = delay_seconds(10.0, 138.0, 144.0);
        assert!(lo > 20.0 * ap, "lofar={lo}, apertif={ap}");
    }

    #[test]
    fn table_shape_and_monotonicity() {
        let band = apertif_band();
        let grid = DmGrid::paper_grid(64).unwrap();
        let table = DelayTable::build(&band, &grid, 20_000).unwrap();
        assert_eq!(table.channels(), 1024);
        assert_eq!(table.trials(), 64);
        // Monotone non-decreasing in DM for a fixed channel.
        for ch in [0, 100, 1023] {
            for t in 1..64 {
                assert!(table.delay(t, ch) >= table.delay(t - 1, ch));
            }
        }
        // Monotone non-increasing in channel (higher freq => smaller delay).
        for t in [1, 32, 63] {
            for ch in 1..1024 {
                assert!(table.delay(t, ch) <= table.delay(t, ch - 1));
            }
        }
        // Highest channel at trial 0 has zero delay.
        assert_eq!(table.delay(0, 1023), 0);
    }

    #[test]
    fn trial_row_is_contiguous_view() {
        let band = lofar_band();
        let grid = DmGrid::paper_grid(8).unwrap();
        let table = DelayTable::build(&band, &grid, 200_000).unwrap();
        let row = table.trial_row(5);
        assert_eq!(row.len(), 32);
        for (ch, &d) in row.iter().enumerate() {
            assert_eq!(d as usize, table.delay(5, ch));
        }
    }

    #[test]
    fn max_delay_is_lowest_channel_highest_dm() {
        let band = lofar_band();
        let grid = DmGrid::paper_grid(16).unwrap();
        let table = DelayTable::build(&band, &grid, 200_000).unwrap();
        assert_eq!(table.max_delay(), table.delay(15, 0));
        assert!(table.max_delay() > 0);
    }

    #[test]
    fn spread_and_gradient_agree() {
        let band = apertif_band();
        let grid = DmGrid::paper_grid(32).unwrap();
        let table = DelayTable::build(&band, &grid, 20_000).unwrap();
        let grad = table.gradient_samples_per_trial();
        for ch in [0usize, 512, 1023] {
            let s = table.spread(ch, 0, 31) as f64;
            let approx = grad[ch] * 31.0;
            assert!((s - approx).abs() < 1e-9, "ch={ch}: {s} vs {approx}");
        }
        // Gradient decreases with channel (higher frequency => less smear).
        assert!(grad[0] > grad[1023]);
    }

    #[test]
    fn zeros_table_reports_zero() {
        let table = DelayTable::zeros(32, 16, 1000).unwrap();
        assert!(table.is_zero());
        assert_eq!(table.max_delay(), 0);
        assert_eq!(table.spread(3, 0, 15), 0);
        assert!(table.gradient_samples_per_trial().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn real_table_is_not_zero() {
        let band = lofar_band();
        let grid = DmGrid::paper_grid(4).unwrap();
        let table = DelayTable::build(&band, &grid, 200_000).unwrap();
        assert!(!table.is_zero());
    }

    #[test]
    fn size_bytes() {
        let table = DelayTable::zeros(8, 4, 100).unwrap();
        assert_eq!(table.size_bytes(), 8 * 4 * 4);
    }

    #[test]
    fn rejects_zero_sample_rate() {
        let band = apertif_band();
        let grid = DmGrid::paper_grid(4).unwrap();
        assert!(DelayTable::build(&band, &grid, 0).is_err());
        assert!(DelayTable::zeros(8, 4, 0).is_err());
        assert!(DelayTable::zeros(0, 4, 100).is_err());
        assert!(DelayTable::zeros(8, 0, 100).is_err());
    }
}
