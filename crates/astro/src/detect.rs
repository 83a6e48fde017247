//! Detection statistics over dedispersed time-series.
//!
//! After brute-force dedispersion, each trial's time-series is scanned
//! for impulsive events. When the trial DM is only slightly off the true
//! DM, the pulse smears and its significance drops below the noise floor
//! (the reason the DM space cannot be pruned — paper, Section II), so the
//! per-trial significance peaks sharply at the true DM.
//!
//! [`trial_stat`] is the definition and the only code that computes
//! statistics; [`best_of_rows`] and [`detect_best_trial`] fold it over
//! rows. Its two `f64` sums, of the samples and of their squared
//! deviations from the mean, are each 64 interleaved partial sums: sample
//! `i` goes to partial `i % 64`, every partial adds its samples in
//! ascending order from [`Iterator::sum`]'s own starting value, and one
//! fixed pairwise tree combines the partials. Products and sums stay
//! separate operations (no fused multiply-add), and the peak is the last
//! of equal maxima under [`f32::total_cmp`], as [`Iterator::max_by`]
//! finds it. The body is safe code the compiler vectorises, compiled for
//! the build's baseline, for AVX2 and for AVX-512; vectorising never
//! reorders the additions within a partial, so every instantiation
//! yields the same bits.

use dedisp_core::OutputBuffer;
use serde::{Deserialize, Serialize};

/// Detection statistics for one trial's dedispersed series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialStat {
    /// Trial index.
    pub trial: usize,
    /// Mean of the series.
    pub mean: f32,
    /// Standard deviation of the series.
    pub sigma: f32,
    /// Index of the strongest sample.
    pub peak_sample: usize,
    /// Value of the strongest sample.
    pub peak_value: f32,
    /// Significance of the strongest sample: `(peak − mean) / σ`.
    pub snr: f32,
}

/// The outcome of scanning all trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Per-trial statistics, indexed by trial.
    pub trials: Vec<TrialStat>,
    /// Index of the trial with the highest S/N.
    pub best_trial: usize,
}

impl Detection {
    /// The statistics of the best trial.
    pub fn best(&self) -> &TrialStat {
        &self.trials[self.best_trial]
    }
}

/// Partial sums per sum, a constant of the definition: 64 fill eight
/// 512-bit registers, so a sweep is eight chains of adds instead of one.
const PARTIALS: usize = 64;

/// Samples per block of [`arg_max`], whose maximum key per block is an
/// order-free reduction the compiler vectorizes.
const PEAK_BLOCK: usize = 64;

/// Computes detection statistics for one series.
///
/// # Panics
///
/// Panics if `series` is empty.
pub fn trial_stat(trial: usize, series: &[f32]) -> TrialStat {
    Isa::detect().stat(trial, series)
}

/// The most significant series of `rows` (`n × samples`, trial-major, the
/// first being trial `first_trial`); of equals, the last. Its statistics
/// are [`trial_stat`]'s for that series.
///
/// # Panics
///
/// Panics if `samples` is zero, if `rows` is not a whole number of series,
/// or if it is empty.
pub fn best_of_rows(first_trial: usize, rows: &[f32], samples: usize) -> TrialStat {
    let isa = Isa::detect();
    series_of(rows, samples)
        .enumerate()
        .map(|(r, series)| isa.stat(first_trial + r, series))
        .reduce(more_significant)
        .expect("rows must contain a series")
}

/// The one of two trials' statistics that [`detect_best_trial`] prefers:
/// the higher S/N under [`f32::total_cmp`], of equals the later trial.
/// Folding trials with this in any order finds the same best.
pub fn more_significant(a: TrialStat, b: TrialStat) -> TrialStat {
    match a.snr.total_cmp(&b.snr).then(a.trial.cmp(&b.trial)) {
        std::cmp::Ordering::Greater => a,
        _ => b,
    }
}

/// Scans every trial of a dedispersed output and returns the per-trial
/// statistics ([`trial_stat`]'s) plus the most significant trial.
///
/// # Panics
///
/// Panics if the output has no trials or zero-length series.
pub fn detect_best_trial(output: &OutputBuffer) -> Detection {
    assert!(output.trials() > 0, "output must contain trials");
    let isa = Isa::detect();
    let trials: Vec<TrialStat> = series_of(output.as_slice(), output.samples())
        .enumerate()
        .map(|(trial, series)| isa.stat(trial, series))
        .collect();
    let best_trial = trials
        .iter()
        .max_by(|a, b| a.snr.total_cmp(&b.snr))
        .expect("non-empty")
        .trial;
    Detection { trials, best_trial }
}

/// The series of `rows`, `samples` values each.
fn series_of(rows: &[f32], samples: usize) -> std::slice::ChunksExact<'_, f32> {
    assert!(samples > 0, "series must be non-empty");
    assert_eq!(rows.len() % samples, 0, "rows must be whole series");
    rows.chunks_exact(samples)
}

/// The instruction sets [`stat_body`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The build's baseline target.
    Portable,
    /// 256-bit lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest instantiation this host can run.
    fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }

    /// [`trial_stat`] under this instruction set.
    fn stat(self, trial: usize, series: &[f32]) -> TrialStat {
        match self {
            Isa::Portable => stat_body(trial, series),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is only ever produced after
            // `is_x86_feature_detected!("avx2")`, by `Isa::detect` (and by
            // the tests' `host_isas`).
            Isa::Avx2 => unsafe { stat_avx2(trial, series) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx512` is only ever produced after
            // `is_x86_feature_detected!("avx512f")`, by `Isa::detect` (and by
            // the tests' `host_isas`).
            Isa::Avx512 => unsafe { stat_avx512(trial, series) },
        }
    }
}

/// [`stat_body`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn stat_avx2(trial: usize, series: &[f32]) -> TrialStat {
    stat_body(trial, series)
}

/// [`stat_body`] compiled with 512-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn stat_avx512(trial: usize, series: &[f32]) -> TrialStat {
    stat_body(trial, series)
}

/// The definition: three sweeps over `series`, for the sum, the squared
/// deviations and the peak.
#[inline(always)]
fn stat_body(trial: usize, series: &[f32]) -> TrialStat {
    assert!(!series.is_empty(), "series must be non-empty");
    let n = series.len() as f64;
    let mean = sum(series) / n;
    let sigma = (squared_deviations(series, mean) / n).sqrt();
    let peak_sample = arg_max(series);
    let peak_value = series[peak_sample];
    let snr = if sigma > 0.0 {
        ((peak_value as f64 - mean) / sigma) as f32
    } else {
        0.0
    };
    TrialStat {
        trial,
        mean: mean as f32,
        sigma: sigma as f32,
        peak_sample,
        peak_value,
        snr,
    }
}

/// What `Iterator::sum::<f64>()` starts from (`-0.0` or `0.0`, depending
/// on the toolchain), and so what every partial starts from: a series of
/// `-0.0` must have the mean `-0.0` that a plain sum gives it.
fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The sum of `series`: partial `i % PARTIALS` adds sample `i`, in
/// ascending order, and [`tree`] combines the partials.
#[inline(always)]
fn sum(series: &[f32]) -> f64 {
    let mut partials = [sum_identity(); PARTIALS];
    let (body, tail) = series.as_chunks::<PARTIALS>();
    for chunk in body {
        for (partial, &v) in partials.iter_mut().zip(chunk) {
            *partial += f64::from(v);
        }
    }
    for (partial, &v) in partials.iter_mut().zip(tail) {
        *partial += f64::from(v);
    }
    tree(partials)
}

/// [`sum`] of the squared deviations from `mean`, each a subtract, then a
/// multiply, then an add. A second plain loop rather than [`sum`] taking
/// the term as a closure: one inside a `#[target_feature]` function is
/// not inlined into it, which measured as losing most of the speed.
#[inline(always)]
fn squared_deviations(series: &[f32], mean: f64) -> f64 {
    let mut partials = [sum_identity(); PARTIALS];
    let (body, tail) = series.as_chunks::<PARTIALS>();
    for chunk in body {
        for (partial, &v) in partials.iter_mut().zip(chunk) {
            let d = f64::from(v) - mean;
            *partial += d * d;
        }
    }
    for (partial, &v) in partials.iter_mut().zip(tail) {
        let d = f64::from(v) - mean;
        *partial += d * d;
    }
    tree(partials)
}

/// The fixed pairwise tree: the upper half of the partials is added lane
/// by lane to the lower half until one partial is left.
#[inline(always)]
fn tree(mut partials: [f64; PARTIALS]) -> f64 {
    let mut width = PARTIALS;
    while width > 1 {
        width /= 2;
        let (low, high) = partials.split_at_mut(width);
        for (low, high) in low.iter_mut().zip(&high[..width]) {
            *low += *high;
        }
    }
    partials[0]
}

/// The integer [`f32::total_cmp`] compares for `v`.
#[inline(always)]
fn total_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The position of the last greatest sample, as `max_by(total_cmp)` finds
/// it: the last block whose maximum key is not below the best so far
/// wins, and only it is searched, from its end.
#[inline(always)]
fn arg_max(series: &[f32]) -> usize {
    let mut top = (i32::MIN, 0);
    for (b, block) in series.chunks(PEAK_BLOCK).enumerate() {
        let max = block.iter().map(|&v| total_key(v)).fold(i32::MIN, i32::max);
        if max >= top.0 {
            top = (max, b);
        }
    }
    let (max, b) = top;
    let block = &series[b * PEAK_BLOCK..series.len().min((b + 1) * PEAK_BLOCK)];
    let at = block.iter().rposition(|&v| total_key(v) == max);
    b * PEAK_BLOCK + at.expect("the block holds its maximum")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{PulseSpec, SignalGenerator};
    use dedisp_core::prelude::*;

    #[test]
    fn stat_of_flat_series_has_zero_snr() {
        let s = trial_stat(0, &[2.0; 64]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.sigma, 0.0);
        assert_eq!(s.snr, 0.0);
    }

    #[test]
    fn stat_finds_peak() {
        let mut series = vec![0.0f32; 100];
        series[37] = 10.0;
        let s = trial_stat(3, &series);
        assert_eq!(s.trial, 3);
        assert_eq!(s.peak_sample, 37);
        assert_eq!(s.peak_value, 10.0);
        assert!(s.snr > 9.0);
    }

    #[test]
    fn pipeline_recovers_injected_dm_in_noise() {
        // Full end-to-end check: noise + dispersed pulse → dedisperse →
        // the most significant trial is the injected DM.
        let plan = DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 1.0, 16).unwrap())
            .sample_rate(500)
            .build()
            .unwrap();
        let true_dm = 7.0;
        let input = SignalGenerator::new(123)
            .noise_sigma(1.0)
            .pulse(PulseSpec::impulse(true_dm, 200, 3.0))
            .generate(&plan);
        let out = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let det = detect_best_trial(&out);
        assert_eq!(det.best_trial, plan.dm_grid().nearest_trial(true_dm));
        assert_eq!(det.best().peak_sample, 200);
        assert!(det.best().snr > 8.0, "snr {}", det.best().snr);
    }

    #[test]
    fn smeared_trials_are_less_significant() {
        let plan = DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 1.0, 16).unwrap())
            .sample_rate(500)
            .build()
            .unwrap();
        let input = SignalGenerator::new(5)
            .noise_sigma(1.0)
            .pulse(PulseSpec::impulse(8.0, 100, 3.0))
            .generate(&plan);
        let out = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let det = detect_best_trial(&out);
        let best_snr = det.best().snr;
        // Trials at least 4 steps away have visibly lower significance.
        for t in &det.trials {
            if (t.trial as i64 - det.best_trial as i64).unsigned_abs() >= 4 {
                assert!(t.snr < 0.8 * best_snr, "trial {}: snr {}", t.trial, t.snr);
            }
        }
    }

    /// The definition as plain scalar loops, sharing no code with the
    /// module: partial `i % 64` adds sample `i`, then the upper half of
    /// the partials is added to the lower until one is left.
    fn reference(trial: usize, series: &[f32]) -> TrialStat {
        let n = series.len() as f64;
        let tree = |mut p: [f64; 64]| {
            let mut width = 64;
            while width > 1 {
                width /= 2;
                for k in 0..width {
                    p[k] += p[k + width];
                }
            }
            p[0]
        };
        let mut p = [std::iter::empty::<f64>().sum::<f64>(); 64];
        for (i, &v) in series.iter().enumerate() {
            p[i % 64] += v as f64;
        }
        let mean = tree(p) / n;
        let mut p = [std::iter::empty::<f64>().sum::<f64>(); 64];
        for (i, &v) in series.iter().enumerate() {
            let d = v as f64 - mean;
            p[i % 64] += d * d;
        }
        let sigma = (tree(p) / n).sqrt();
        let (peak_sample, &peak_value) = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty series");
        let snr = if sigma > 0.0 {
            ((peak_value as f64 - mean) / sigma) as f32
        } else {
            0.0
        };
        TrialStat {
            trial,
            mean: mean as f32,
            sigma: sigma as f32,
            peak_sample,
            peak_value,
            snr,
        }
    }

    /// Nine series of `samples` values, one kind each: equal maxima
    /// either side of a 64-sample edge, equal maxima in the last partial
    /// round, a constant, `-0.0` throughout, `+∞` twice with a `-∞`, NaNs
    /// of both signs, noise with its maximum planted twice, signed zeros,
    /// and `+2^53`/`-2^53` pairs among noise, whose mean moves with any
    /// change to which partial a sample joins or to the order the
    /// partials combine in.
    fn kinds_of(samples: usize) -> Vec<Vec<f32>> {
        let hash = |r: usize, i: usize| {
            ((r * samples + i) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
        };
        let last = samples - 1;
        let tail = samples - samples % 64;
        (0..9)
            .map(|r| {
                let noise = (0..samples).map(|i| hash(r, i) as f32 / (1u64 << 24) as f32 - 0.5);
                let mut series: Vec<f32> = noise.collect();
                let mut plant = |at: &[usize], v: f32| {
                    for &at in at.iter().filter(|&&at| at < samples) {
                        series[at] = v;
                    }
                };
                match r {
                    0 => plant(&[63, 64, 127, 128], 1.0),
                    1 => plant(&[0, tail.saturating_sub(1), tail, last], 1.0),
                    2 => series.fill(2.5),
                    3 => series.fill(-0.0),
                    4 => {
                        plant(&[samples / 3, last], f32::INFINITY);
                        plant(&[samples / 2], f32::NEG_INFINITY);
                    }
                    5 => {
                        plant(&[samples / 4], f32::NAN);
                        plant(&[samples / 5], -f32::NAN);
                    }
                    6 => plant(&[7 % samples, (13 + samples / 2) % samples], 1.0),
                    7 => {
                        // Pairs that cancel, so the noise they absorbed
                        // decides the sum.
                        let big = 2f32.powi(53);
                        for (j, pair) in series.chunks_exact_mut(2).enumerate() {
                            match hash(r, j) % 6 {
                                0 => pair.copy_from_slice(&[big, -big]),
                                3 => pair.copy_from_slice(&[-big, big]),
                                _ => {}
                            }
                        }
                    }
                    _ => {
                        for (i, v) in series.iter_mut().enumerate() {
                            *v = if hash(r, i) % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
                series
            })
            .collect()
    }

    /// Every instantiation this host runs.
    fn host_isas() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    #[test]
    fn detect_picks_the_widest_host_isa() {
        assert_eq!(host_isas().last(), Some(&Isa::detect()));
    }

    #[test]
    fn every_host_isa_equals_the_reference_bit_for_bit() {
        // Bits, except that a NaN equals any NaN: which one an operation
        // on NaNs yields is not specified.
        let bits = |s: &TrialStat| {
            let f = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
            (s.peak_sample, [s.mean, s.sigma, s.peak_value, s.snr].map(f))
        };
        // Every tail of the partials' round and of the peak block.
        for samples in (1..=200).chain([20_000]) {
            for (r, series) in kinds_of(samples).iter().enumerate() {
                let want = bits(&reference(r, series));
                for isa in host_isas() {
                    let got = bits(&isa.stat(r, series));
                    assert_eq!(got, want, "{isa:?}, kind {r}, {samples} samples");
                }
            }
        }
    }

    #[test]
    fn of_identical_trials_the_later_is_best() {
        let mut series = vec![0.0f32; 50];
        series[20] = 4.0;
        let mut output = OutputBuffer::zeroed(10, 50);
        for trial in 0..output.trials() {
            output.series_mut(trial).copy_from_slice(&series);
        }
        assert_eq!(detect_best_trial(&output).best_trial, 9);
        assert_eq!(best_of_rows(0, output.as_slice(), 50).trial, 9);
        // In whatever order slabs are folded.
        let (a, b) = (trial_stat(3, &series), trial_stat(8, &series));
        assert_eq!(more_significant(a, b).trial, 8);
        assert_eq!(more_significant(b, a).trial, 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_series_panics() {
        let _ = trial_stat(0, &[]);
    }
}
