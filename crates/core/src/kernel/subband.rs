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
//! measurable (see `max_smear_samples`).

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::error::{DedispError, Result};
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
    pub fn max_smear_samples(&self, plan: &DedispersionPlan) -> usize {
        let channels = plan.channels();
        let per_sub = channels / self.config.subbands;
        let delays = plan.delays();
        let max_delay = delays.max_delay();
        let mut worst = 0usize;
        for trial in 0..plan.trials() {
            let coarse = self.coarse_trial(trial, plan.trials());
            for ch in 0..channels {
                let sub = ch / per_sub;
                let sub_ref = sub * per_sub + per_sub - 1; // top channel of the subband
                let shift = self.stage1_shift(plan, max_delay, coarse, sub_ref, ch);
                let applied = shift + delays.delay(trial, sub_ref);
                let exact = delays.delay(trial, ch);
                worst = worst.max(applied.abs_diff(exact));
            }
        }
        worst
    }

    /// The intra-subband shift stage 1 applies for `ch` relative to its
    /// subband reference at the given coarse trial — capped so that no
    /// fine trial sharing this coarse trial can read past the plan's
    /// input buffer (delay-table rounding can otherwise overshoot the
    /// exact worst-case delay by a sample). `max_delay` is the plan's
    /// [`DelayTable::max_delay`](crate::DelayTable::max_delay), a scan of
    /// the whole table that callers do once, not per channel.
    fn stage1_shift(
        &self,
        plan: &DedispersionPlan,
        max_delay: usize,
        coarse: usize,
        sub_ref: usize,
        ch: usize,
    ) -> usize {
        let delays = plan.delays();
        let raw = delays.delay(coarse, ch) - delays.delay(coarse, sub_ref);
        let trial_hi = (coarse + self.config.dm_stride - 1).min(plan.trials() - 1);
        let cap = max_delay - delays.delay(trial_hi, sub_ref);
        raw.min(cap)
    }

    #[inline]
    fn coarse_trial(&self, trial: usize, _trials: usize) -> usize {
        // Round *down* to the stride grid. Downward rounding guarantees
        // the applied delay never exceeds the exact one (delay spreads
        // grow with DM), so every read stays inside the plan's input
        // buffer and no channel contribution is ever lost; it also makes
        // the approximation error monotone in the stride.
        (trial / self.config.dm_stride) * self.config.dm_stride
    }
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

        let channels = plan.channels();
        let trials = plan.trials();
        let out_samples = plan.out_samples();
        let in_samples = plan.in_samples();
        let n_sub = self.config.subbands;
        let per_sub = channels / n_sub;
        let delays = plan.delays();
        let max_delay = delays.max_delay();

        // Coarse trial indices actually needed by stage 2.
        let mut coarse_used = vec![false; trials];
        for trial in 0..trials {
            coarse_used[self.coarse_trial(trial, trials)] = true;
        }

        // Stage 1: per (coarse trial, subband), dedisperse the subband's
        // channels *relative to the subband's own top channel*, keeping
        // the full input length so stage 2 can still shift.
        //
        // Intermediate layout: partial[coarse][sub] is a Vec<f32> of
        // in_samples (only coarse trials in use are materialized).
        let mut partial: Vec<Vec<Vec<f32>>> = vec![Vec::new(); trials];
        for (coarse, used) in coarse_used.iter().enumerate() {
            if !used {
                continue;
            }
            let mut subs = Vec::with_capacity(n_sub);
            for sub in 0..n_sub {
                let sub_ref = sub * per_sub + per_sub - 1;
                let mut acc = vec![0.0f32; in_samples];
                for ch in sub * per_sub..(sub + 1) * per_sub {
                    // Intra-subband shift at the coarse DM, capped so no
                    // fine trial reads past the input buffer.
                    let shift = self.stage1_shift(plan, max_delay, coarse, sub_ref, ch);
                    let src = &input.channel(ch)[shift..];
                    let n = in_samples - shift;
                    for (a, s) in acc[..n].iter_mut().zip(&src[..n]) {
                        *a += *s;
                    }
                }
                subs.push(acc);
            }
            partial[coarse] = subs;
        }

        // Stage 2: per fine trial, combine the subband partials shifted
        // by the exact delay of each subband's reference channel.
        for trial in 0..trials {
            let coarse = self.coarse_trial(trial, trials);
            let subs = &partial[coarse];
            let series = output.series_mut(trial);
            series.fill(0.0);
            for (sub, acc) in subs.iter().enumerate() {
                let sub_ref = sub * per_sub + per_sub - 1;
                let shift = delays.delay(trial, sub_ref);
                let src = &acc[shift..shift + out_samples];
                for (o, s) in series.iter_mut().zip(src) {
                    *o += *s;
                }
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
        assert_eq!(kernel.max_smear_samples(&p), 0);
        let mut out = OutputBuffer::for_plan(&p);
        kernel.dedisperse(&p, &input, &mut out).unwrap();
        assert!(
            out.max_abs_diff(&exact) < 1e-3,
            "diff {}",
            out.max_abs_diff(&exact)
        );
    }

    #[test]
    fn smear_grows_with_fewer_subbands_and_larger_stride() {
        let p = plan(32, 16, 2_000);
        let fine = SubbandKernel::new(SubbandConfig::new(32, 1).unwrap());
        let mid = SubbandKernel::new(SubbandConfig::new(8, 2).unwrap());
        let coarse = SubbandKernel::new(SubbandConfig::new(2, 8).unwrap());
        let a = fine.max_smear_samples(&p);
        let b = mid.max_smear_samples(&p);
        let c = coarse.max_smear_samples(&p);
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
        let smear = kernel.max_smear_samples(&p);

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
