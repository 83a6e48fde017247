//! Two-stage subband dedispersion.
//!
//! The brute-force algorithm costs `O(d·s·c)`. Production pipelines
//! descended from this paper (e.g. AMBER) cut that with a two-stage
//! *subband* scheme:
//!
//! 1. the band is split into `n_sub` contiguous subbands, and each
//!    subband is dedispersed only for `d_sub ≪ d` coarse trial DMs
//!    (cost `d_sub·s·c`);
//! 2. every fine trial DM then combines the `n_sub` partial series of
//!    its nearest coarse DM, shifted by the *residual* delay of each
//!    subband's reference frequency (cost `d·s·n_sub`).
//!
//! Total: `O(d_sub·s·c + d·s·n_sub)` instead of `O(d·s·c)` — for the
//! Apertif-scale `c = 1024`, `n_sub = 32`, `d_sub = d/16` this is a
//! ~10× flop reduction. The price is approximation error: within a
//! subband, stage 1 uses one delay for channels whose true delays
//! differ by up to the subband's internal smear. [`SubbandKernel`]
//! exposes both the speedup and the error so the trade-off is
//! measurable (see `max_smear_samples`). Both stages are shifted sums
//! run by the tiled kernel's body, each adding in ascending order.

use std::ops::Range;

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::config::KernelConfig;
use crate::error::{DedispError, Result};
use crate::kernel::tiled::{dedisperse_band, Isa, Slabs, Tile};
use crate::kernel::Dedisperser;
use crate::plan::DedispersionPlan;

/// Configuration of the two-stage scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubbandConfig {
    /// Number of contiguous subbands the channels are split into. Must
    /// divide the channel count.
    pub subbands: usize,
    /// How many fine trials share one coarse trial (stage-1 DM stride).
    /// The coarse grid is the fine grid downsampled by this factor.
    pub dm_stride: usize,
}

impl SubbandConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if either field is zero.
    pub fn new(subbands: usize, dm_stride: usize) -> Result<Self> {
        if subbands == 0 {
            return Err(DedispError::invalid("subbands", "must be non-zero"));
        }
        if dm_stride == 0 {
            return Err(DedispError::invalid("dm_stride", "must be non-zero"));
        }
        Ok(Self {
            subbands,
            dm_stride,
        })
    }

    /// Flop of the two-stage scheme for a `(channels, samples, trials)`
    /// problem, for comparison against the brute-force `d·s·c`.
    pub fn flop(&self, channels: usize, samples: usize, trials: usize) -> u64 {
        let coarse = trials.div_ceil(self.dm_stride);
        (coarse * samples * channels) as u64 + (trials * samples * self.subbands) as u64
    }

    /// The flop reduction factor relative to brute force (> 1 is a win).
    pub fn speedup_factor(&self, channels: usize, samples: usize, trials: usize) -> f64 {
        let brute = (trials * samples * channels) as f64;
        brute / self.flop(channels, samples, trials) as f64
    }
}

/// The two-stage subband dedisperser.
///
/// Produces an *approximation* of the brute-force transform: per output
/// element, each channel's contribution is shifted by at most the
/// intra-subband residual-delay error of its coarse DM (bounded by
/// [`SubbandKernel::max_smear_samples`]).
#[derive(Debug, Clone, Copy)]
pub struct SubbandKernel {
    config: SubbandConfig,
}

impl SubbandKernel {
    /// Creates a kernel with the given subband configuration.
    pub fn new(config: SubbandConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> SubbandConfig {
        self.config
    }

    /// Validates the configuration against a plan.
    ///
    /// # Errors
    ///
    /// Returns an error if the subband count does not divide the
    /// channel count.
    pub fn validate(&self, plan: &DedispersionPlan) -> Result<()> {
        if !plan.channels().is_multiple_of(self.config.subbands) {
            return Err(DedispError::incompatible(format!(
                "{} subbands do not divide {} channels",
                self.config.subbands,
                plan.channels()
            )));
        }
        Ok(())
    }

    /// Worst-case approximation shift in samples: the largest difference
    /// between a channel's exact delay and the delay applied to it by
    /// the two-stage scheme, over all (trial, channel) pairs.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate).
    pub fn max_smear_samples(&self, plan: &DedispersionPlan) -> Result<usize> {
        self.validate(plan)?;
        let per_sub = plan.channels() / self.config.subbands;
        let delays = plan.delays();
        let shifts = self.stage1_shifts(plan);
        let coarse = (0..plan.trials()).step_by(self.config.dm_stride);
        let mut worst = 0usize;
        for (coarse, row) in coarse.zip(shifts.chunks_exact(plan.channels())) {
            for trial in self.fine_trials(coarse, plan.trials()) {
                for (ch, &shift) in row.iter().enumerate() {
                    let applied = shift as usize + delays.delay(trial, sub_ref(ch, per_sub));
                    worst = worst.max(applied.abs_diff(delays.delay(trial, ch)));
                }
            }
        }
        Ok(worst)
    }

    /// The fine trials that share coarse trial `coarse`: it and the
    /// `dm_stride − 1` after it. Stage 1 rounds every trial *down* to
    /// its coarse trial, which guarantees the applied delay never
    /// exceeds the exact one (delay spreads grow with DM), so no channel
    /// contribution is ever lost; it also makes the approximation error
    /// monotone in the stride.
    fn fine_trials(&self, coarse: usize, trials: usize) -> Range<usize> {
        coarse..(coarse + self.config.dm_stride).min(trials)
    }

    /// The intra-subband shift stage 1 applies to every channel, one row
    /// of `channels` per coarse trial: the channel's delay relative to
    /// its subband's reference, capped so that no fine trial sharing the
    /// coarse trial can read past the plan's input buffer (delay-table
    /// rounding can otherwise overshoot the exact worst-case delay by a
    /// sample).
    fn stage1_shifts(&self, plan: &DedispersionPlan) -> Vec<u32> {
        let delays = plan.delays();
        let max_delay = delays.max_delay();
        let per_sub = plan.channels() / self.config.subbands;
        let mut shifts = Vec::new();
        for coarse in (0..plan.trials()).step_by(self.config.dm_stride) {
            let trial_hi = self.fine_trials(coarse, plan.trials()).end - 1;
            shifts.extend((0..plan.channels()).map(|ch| {
                let sub_ref = sub_ref(ch, per_sub);
                let raw = delays.delay(coarse, ch) - delays.delay(coarse, sub_ref);
                raw.min(max_delay - delays.delay(trial_hi, sub_ref)) as u32
            }));
        }
        shifts
    }
}

/// Bytes of stage-1 partial sums held at once. Stage 1 fills a batch of
/// coarse trials subband by subband, so a subband's channels stay in the
/// L2 cache for all but the first coarse trial of a batch and the input
/// is streamed once per batch, not once per coarse trial; stage 2 reads
/// the batch back from the last-level cache. On a Xeon with 2 MB of L2
/// per core and a 300 MB L3, budgets of 1–2 MB run the benchmark shapes
/// barely faster than one coarse trial at a time, 8 and 32 MB equally
/// fast: 8 MB is the smallest on that plateau (EXPERIMENTS.md, "Subband
/// batch and tile").
const PARTIAL_BYTES: usize = 8 << 20;

/// The reference channel of `ch`'s subband: its top channel.
fn sub_ref(ch: usize, per_sub: usize) -> usize {
    ch / per_sub * per_sub + per_sub - 1
}

impl Dedisperser for SubbandKernel {
    fn name(&self) -> &'static str {
        "subband"
    }

    fn dedisperse(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) -> Result<()> {
        input.check_plan(plan)?;
        output.check_plan(plan)?;
        self.validate(plan)?;

        let (channels, trials) = (plan.channels(), plan.trials());
        let (in_samples, out_samples) = (plan.in_samples(), plan.out_samples());
        let (n_sub, stride) = (self.config.subbands, self.config.dm_stride);
        let per_sub = channels / n_sub;
        let delays = plan.delays();
        let shifts = self.stage1_shifts(plan);
        // Stage 2's delay rows: each trial's delay of every subband's
        // reference channel.
        let residuals: Vec<u32> = delays.as_slice()[per_sub - 1..]
            .iter()
            .step_by(per_sub)
            .copied()
            .collect();
        // Both stages: time tiles of 512 samples, DM strips of one
        // micro-tile, so stage 2 sums fine trials in pairs; a band clips
        // a tile at the end of its rows. Measured faster than strips of
        // one trial and than the benchmark's (25,4,4,2) (EXPERIMENTS.md).
        let config = KernelConfig::new(512, 1, 1, 2)?;
        let isa = Isa::detect();
        let n_coarse = trials.div_ceil(stride);
        let batch = (PARTIAL_BYTES / (n_sub * in_samples * size_of::<f32>())).max(1);
        let mut partial = vec![0.0f32; batch.min(n_coarse) * n_sub * in_samples];

        for k0 in (0..n_coarse).step_by(batch) {
            let batch = k0..(k0 + batch).min(n_coarse);
            // Stage 1: every subband's channels dedispersed relative to
            // its reference channel at each coarse DM. Stage 2 reads the
            // first `out_samples` of a row plus the largest residual
            // delay of a fine trial, and the shift cap keeps every
            // channel's read of those inside the input.
            for first in (0..channels).step_by(per_sub) {
                for k in batch.clone() {
                    let trial_hi = self.fine_trials(k * stride, trials).end - 1;
                    let len = out_samples + delays.delay(trial_hi, sub_ref(first, per_sub));
                    let tile = Tile {
                        data: &input.as_slice()[first * in_samples..],
                        in_samples,
                        delays: &shifts[k * channels + first..][..per_sub],
                        channels: per_sub,
                        out_samples: len,
                    };
                    let row = ((k - k0) * n_sub + first / per_sub) * in_samples;
                    let row = Slabs::InPlace(&mut partial[row..row + len]);
                    dedisperse_band(isa, tile, &config, 0..1, row);
                }
            }
            // Stage 2: every fine trial sums its coarse trial's subband
            // partials at the exact delay of each reference channel.
            for k in batch {
                let fine = self.fine_trials(k * stride, trials);
                let tile = Tile {
                    data: &partial[(k - k0) * n_sub * in_samples..],
                    in_samples,
                    delays: &residuals[fine.start * n_sub..],
                    channels: n_sub,
                    out_samples,
                };
                let rows =
                    &mut output.as_mut_slice()[fine.start * out_samples..fine.end * out_samples];
                dedisperse_band(isa, tile, &config, 0..fine.len(), Slabs::InPlace(rows));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::DmGrid;
    use crate::freq::FrequencyBand;
    use crate::kernel::testutil::hash_input;
    use crate::kernel::NaiveKernel;

    fn plan(channels: usize, trials: usize, rate: u32) -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.25, channels).unwrap())
            .dm_grid(DmGrid::new(0.0, 0.5, trials).unwrap())
            .sample_rate(rate)
            .build()
            .unwrap()
    }

    #[test]
    fn stride_one_full_subbands_is_exact() {
        // With one channel per subband and no DM decimation the scheme
        // degenerates to exact brute force.
        let p = plan(16, 8, 300);
        let input = hash_input(&p);
        let mut exact = OutputBuffer::for_plan(&p);
        NaiveKernel.dedisperse(&p, &input, &mut exact).unwrap();
        let kernel = SubbandKernel::new(SubbandConfig::new(16, 1).unwrap());
        assert_eq!(kernel.max_smear_samples(&p).unwrap(), 0);
        let mut out = OutputBuffer::for_plan(&p);
        kernel.dedisperse(&p, &input, &mut out).unwrap();
        assert!(out.bits_eq(&exact));
    }

    #[test]
    fn smear_grows_with_fewer_subbands_and_larger_stride() {
        let p = plan(32, 16, 2_000);
        let fine = SubbandKernel::new(SubbandConfig::new(32, 1).unwrap());
        let mid = SubbandKernel::new(SubbandConfig::new(8, 2).unwrap());
        let coarse = SubbandKernel::new(SubbandConfig::new(2, 8).unwrap());
        let a = fine.max_smear_samples(&p).unwrap();
        let b = mid.max_smear_samples(&p).unwrap();
        let c = coarse.max_smear_samples(&p).unwrap();
        assert!(a <= b && b <= c, "{a} {b} {c}");
        assert!(c > 0);
    }

    #[test]
    fn constant_input_still_sums_all_channels() {
        // Shifting never loses or duplicates contributions: a constant
        // input must dedisperse to the channel count in every bin even
        // through the two-stage path.
        let p = plan(24, 12, 500);
        let input = InputBuffer::constant(&p, 1.0);
        let kernel = SubbandKernel::new(SubbandConfig::new(6, 3).unwrap());
        let mut out = OutputBuffer::for_plan(&p);
        kernel.dedisperse(&p, &input, &mut out).unwrap();
        for &v in out.as_slice() {
            assert!((v - 24.0).abs() < 1e-3, "{v}");
        }
    }

    #[test]
    fn approximation_error_is_bounded_by_smear() {
        // An impulse dedispersed through the subband path lands within
        // max_smear_samples of where brute force puts it.
        let p = plan(32, 16, 2_000);
        let kernel = SubbandKernel::new(SubbandConfig::new(8, 4).unwrap());
        let smear = kernel.max_smear_samples(&p).unwrap();

        let trial = 13;
        let mut input = InputBuffer::for_plan(&p);
        // A dispersed impulse matching `trial` exactly.
        for ch in 0..p.channels() {
            let shift = p.delays().delay(trial, ch);
            input.channel_mut(ch)[200 + shift] = 1.0;
        }
        let mut out = OutputBuffer::for_plan(&p);
        kernel.dedisperse(&p, &input, &mut out).unwrap();
        // All 32 units of signal are within ±smear of bin 200.
        let lo = 200 - smear;
        let hi = 200 + smear;
        let captured: f32 = out.series(trial)[lo..=hi].iter().sum();
        assert!(
            (captured - 32.0).abs() < 1e-3,
            "captured {captured} within ±{smear}"
        );
    }

    #[test]
    fn flop_accounting_beats_brute_force_at_scale() {
        let cfg = SubbandConfig::new(32, 16).unwrap();
        // Apertif-scale: c=1024, s=20000, d=2048.
        let speedup = cfg.speedup_factor(1024, 20_000, 2048);
        assert!(speedup > 5.0, "speedup {speedup}");
        let exact_cost = cfg.flop(1024, 20_000, 2048);
        assert_eq!(
            exact_cost,
            (128u64 * 20_000 * 1024) + (2048u64 * 20_000 * 32)
        );
    }

    #[test]
    fn rejects_non_dividing_subbands() {
        let p = plan(30, 8, 300);
        let kernel = SubbandKernel::new(SubbandConfig::new(8, 2).unwrap());
        let input = hash_input(&p);
        let mut out = OutputBuffer::for_plan(&p);
        assert!(kernel.dedisperse(&p, &input, &mut out).is_err());
    }

    #[test]
    fn smear_rejects_what_dedisperse_rejects() {
        // 8 subbands of 31 channels: the last subband's reference would
        // be channel 31, past the band.
        let p = plan(31, 8, 300);
        let kernel = SubbandKernel::new(SubbandConfig::new(8, 2).unwrap());
        assert!(kernel.max_smear_samples(&p).is_err());
    }

    #[test]
    fn smear_rejects_more_subbands_than_channels() {
        // 64 subbands of 31 channels: zero channels per subband.
        let p = plan(31, 8, 300);
        let kernel = SubbandKernel::new(SubbandConfig::new(64, 2).unwrap());
        assert!(kernel.max_smear_samples(&p).is_err());
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(SubbandConfig::new(0, 1).is_err());
        assert!(SubbandConfig::new(4, 0).is_err());
    }

    #[test]
    fn name_and_accessors() {
        let cfg = SubbandConfig::new(4, 2).unwrap();
        let k = SubbandKernel::new(cfg);
        assert_eq!(k.name(), "subband");
        assert_eq!(k.config(), cfg);
    }
}
