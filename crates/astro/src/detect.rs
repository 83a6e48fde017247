//! Detection statistics over dedispersed time-series.
//!
//! After brute-force dedispersion, each trial's time-series is scanned
//! for impulsive events. When the trial DM is only slightly off the true
//! DM, the pulse smears and its significance drops below the noise floor
//! (the reason the DM space cannot be pruned — paper, Section II), so the
//! per-trial significance peaks sharply at the true DM.
//!
//! [`trial_stat`] is the definition: one series, `f64` sums in ascending
//! sample order, the last of equal maxima. [`scan_rows`] computes the
//! same statistics — the same bits — for [`LANES`] series at once. A
//! single series' sum is one chain of dependent additions and cannot be
//! reordered without moving bits, but the chains of *different* series
//! are independent, so the lanes of the multi-row fold are trials, each
//! still adding its own samples in ascending order; products and sums
//! stay separate operations (no fused multiply-add); and the arg-max is
//! an order-free maximum over [`f32::total_cmp`] keys that keeps
//! [`Iterator::max_by`]'s tie rule, the last maximum.

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

/// Computes detection statistics for one series.
pub fn trial_stat(trial: usize, series: &[f32]) -> TrialStat {
    assert!(!series.is_empty(), "series must be non-empty");
    let n = series.len() as f64;
    let mean = series.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = series
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let sigma = var.sqrt();
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

/// Series [`scan_rows`] advances together: one 512-bit register of
/// `f64` lanes where the host has AVX-512, two 256-bit ones where it has
/// AVX2.
pub const LANES: usize = 8;

/// Samples per block of the arg-max: the maximum *key* of a block is an
/// order-free reduction the compiler vectorizes, and only the winning
/// block is searched for the position.
const PEAK_BLOCK: usize = 64;

/// Calls `each` with the statistics of every series in `rows`
/// (`n × samples`, trial-major, the first being trial `first_trial`), in
/// ascending trial order. Each [`TrialStat`] equals [`trial_stat`]'s for
/// that series bit for bit.
///
/// # Panics
///
/// Panics if `samples` is zero or `rows` is not a whole number of series.
pub fn scan_rows(
    first_trial: usize,
    rows: &[f32],
    samples: usize,
    mut each: impl FnMut(TrialStat),
) {
    assert!(samples > 0, "series must be non-empty");
    assert_eq!(rows.len() % samples, 0, "rows must be whole series");
    for (b, block) in rows.chunks(LANES * samples).enumerate() {
        let held = block.len() / samples;
        // A short last block repeats its last series in the idle lanes.
        let lanes: [&[f32]; LANES] =
            std::array::from_fn(|r| &block[r.min(held - 1) * samples..][..samples]);
        let (means, vars, peaks) = block_stats(&lanes);
        for r in 0..held {
            let trial = first_trial + b * LANES + r;
            each(finish(trial, lanes[r], means[r], vars[r], peaks[r]));
        }
    }
}

/// The most significant series of `rows` (as in [`scan_rows`]); of equals,
/// the last.
///
/// # Panics
///
/// As [`scan_rows`], and if `rows` is empty.
pub fn best_of_rows(first_trial: usize, rows: &[f32], samples: usize) -> TrialStat {
    let mut best = None;
    scan_rows(first_trial, rows, samples, |stat| {
        best = Some(best.map_or(stat, |best| more_significant(best, stat)));
    });
    best.expect("rows must contain a series")
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

/// Mean, variance and peak position of each lane.
type BlockStats = ([f64; LANES], [f64; LANES], [usize; LANES]);

fn block_stats(lanes: &[&[f32]; LANES]) -> BlockStats {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F was detected on the line above.
        return unsafe { block_stats_avx512(lanes) };
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the line above.
        return unsafe { block_stats_avx2(lanes) };
    }
    block_stats_portable(lanes)
}

fn block_stats_portable(lanes: &[&[f32]; LANES]) -> BlockStats {
    block_body(lanes, |centre| {
        fold_rows(lanes, centre, 0, [sum_identity(); LANES])
    })
}

/// [`block_body`] compiled with 256-bit lanes around [`fold_transposed`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_stats_avx2(lanes: &[&[f32]; LANES]) -> BlockStats {
    block_body(lanes, |centre| fold_transposed(lanes, centre))
}

/// The two sweeps [`trial_stat`] makes, for every lane at once: `fold`
/// sums the samples themselves when given no centre and their squared
/// deviations from `centre` otherwise.
#[inline(always)]
fn block_body(
    lanes: &[&[f32]; LANES],
    fold: impl Fn(Option<&[f64; LANES]>) -> [f64; LANES],
) -> BlockStats {
    let n = lanes[0].len() as f64;
    let means = fold(None).map(|sum| sum / n);
    let vars = fold(Some(&means)).map(|sum| sum / n);
    (means, vars, lanes.map(arg_max))
}

/// What `Iterator::sum::<f64>()` starts from (`-0.0` or `0.0`, depending
/// on the toolchain): a series of `-0.0` must sum to what it sums to in
/// [`trial_stat`].
fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The interleaved fold: adds samples `from..` of every lane to `acc`,
/// each lane in ascending sample order. Samples are the outer loop so
/// that consecutive additions belong to different lanes' chains.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn fold_rows(
    lanes: &[&[f32]; LANES],
    centre: Option<&[f64; LANES]>,
    from: usize,
    mut acc: [f64; LANES],
) -> [f64; LANES] {
    let n = lanes[0].len();
    let lanes = lanes.map(|series| &series[..n]);
    for i in from..n {
        for r in 0..LANES {
            let v = f64::from(lanes[r][i]);
            acc[r] += match centre {
                Some(centre) => {
                    let d = v - centre[r];
                    d * d
                }
                None => v,
            };
        }
    }
    acc
}

/// [`fold_rows`] from sample 0, four samples of four lanes at a time: a
/// 4 × 4 transpose turns four series' quads into four vectors holding
/// one sample of each series, so every vector add advances four series'
/// chains by one sample. The order of additions within a series, and so
/// every bit, is that of [`fold_rows`], which also finishes the tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn fold_transposed(lanes: &[&[f32]; LANES], centre: Option<&[f64; LANES]>) -> [f64; LANES] {
    use std::arch::x86_64::*;

    let n = lanes[0].len();
    let body = n - n % 4;
    let series = lanes.map(|series| &series[..n]);
    let mid = centre.copied().unwrap_or([0.0; LANES]);
    let mid: [__m256d; LANES / 4] = std::array::from_fn(|g| {
        _mm256_setr_pd(mid[4 * g], mid[4 * g + 1], mid[4 * g + 2], mid[4 * g + 3])
    });
    let mut acc = [_mm256_set1_pd(sum_identity()); LANES / 4];
    for i in (0..body).step_by(4) {
        for (g, acc) in acc.iter_mut().enumerate() {
            let quad = |r: usize| {
                let q = &series[4 * g + r][i..i + 4];
                _mm_setr_ps(q[0], q[1], q[2], q[3])
            };
            let (r0, r1, r2, r3) = (quad(0), quad(1), quad(2), quad(3));
            let (lo01, lo23) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
            let (hi01, hi23) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
            for sample in [
                _mm_movelh_ps(lo01, lo23),
                _mm_movehl_ps(lo23, lo01),
                _mm_movelh_ps(hi01, hi23),
                _mm_movehl_ps(hi23, hi01),
            ] {
                let v = _mm256_cvtps_pd(sample);
                let term = if centre.is_some() {
                    let d = _mm256_sub_pd(v, mid[g]);
                    _mm256_mul_pd(d, d)
                } else {
                    v
                };
                *acc = _mm256_add_pd(*acc, term);
            }
        }
    }
    let mut sums = [0.0; LANES];
    for (g, acc) in acc.iter().enumerate() {
        let quad: &mut [f64; 4] = (&mut sums[4 * g..][..4])
            .try_into()
            .expect("a slice of four");
        // SAFETY: `quad` is four writable `f64`s, and the store is the
        // unaligned one.
        unsafe { _mm256_storeu_pd(quad.as_mut_ptr(), *acc) };
    }
    fold_rows(lanes, centre, body, sums)
}

/// Both sweeps with all eight lanes in one 512-bit register, the first
/// also finding every lane's peak ([`fold_512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn block_stats_avx512(lanes: &[&[f32]; LANES]) -> BlockStats {
    let n = lanes[0].len() as f64;
    let mut peaks = [0; LANES];
    let means = fold_512(lanes, None, Some(&mut peaks)).map(|sum| sum / n);
    let vars = fold_512(lanes, Some(&means), None).map(|sum| sum / n);
    (means, vars, peaks)
}

/// [`fold_rows`] from sample 0, eight samples of all eight lanes at a
/// time: an 8 × 8 transpose turns the lanes' octets into eight vectors
/// holding one sample of every lane, and each, widened to `f64`, is one
/// add to the one register of sums, in ascending sample order.
/// [`fold_rows`] finishes the tail.
///
/// Given `peaks`, the sweep also takes the [`total_key`] of every
/// transposed vector and keeps each lane's greatest per [`PEAK_BLOCK`]
/// samples, the tail's keys counting to the last block: what
/// [`arg_max`] computes block by block, with the same rule that the
/// later of equal block maxima wins. Only the winning block is then
/// searched for the position.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn fold_512(
    lanes: &[&[f32]; LANES],
    centre: Option<&[f64; LANES]>,
    peaks: Option<&mut [usize; LANES]>,
) -> [f64; LANES] {
    use std::arch::x86_64::*;

    let n = lanes[0].len();
    let body = n - n % 8;
    let series = lanes.map(|series| &series[..n]);
    let mid = centre.copied().unwrap_or([0.0; LANES]);
    let mid = _mm512_setr_pd(
        mid[0], mid[1], mid[2], mid[3], mid[4], mid[5], mid[6], mid[7],
    );
    let mut acc = _mm512_set1_pd(sum_identity());
    // Each lane's greatest block maximum so far, and its block.
    let mut top = [(i32::MIN, 0); LANES];
    let mut fold_block = |max: [i32; LANES], b: usize| {
        for (top, max) in top.iter_mut().zip(max) {
            if max >= top.0 {
                *top = (max, b);
            }
        }
    };
    let min_key = _mm256_set1_epi32(i32::MIN);
    let mut block_max = min_key;
    for i in (0..body).step_by(8) {
        let mut octets = [_mm256_setzero_ps(); LANES];
        for (octet, row) in octets.iter_mut().zip(series) {
            let row = &row[i..i + 8];
            // SAFETY: `row` is eight readable `f32`s, and the load is the
            // unaligned one.
            *octet = unsafe { _mm256_loadu_ps(row.as_ptr()) };
        }
        let [r0, r1, r2, r3, r4, r5, r6, r7] = octets;
        let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
        let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
        let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
        let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
        // Samples (0, 4), (1, 5), (2, 6), (3, 7) of lanes 0–3, then 4–7.
        let low = [
            _mm256_shuffle_ps::<0x44>(t0, t2),
            _mm256_shuffle_ps::<0xEE>(t0, t2),
            _mm256_shuffle_ps::<0x44>(t1, t3),
            _mm256_shuffle_ps::<0xEE>(t1, t3),
        ];
        let high = [
            _mm256_shuffle_ps::<0x44>(t4, t6),
            _mm256_shuffle_ps::<0xEE>(t4, t6),
            _mm256_shuffle_ps::<0x44>(t5, t7),
            _mm256_shuffle_ps::<0xEE>(t5, t7),
        ];
        let samples = [
            _mm256_permute2f128_ps::<0x20>(low[0], high[0]),
            _mm256_permute2f128_ps::<0x20>(low[1], high[1]),
            _mm256_permute2f128_ps::<0x20>(low[2], high[2]),
            _mm256_permute2f128_ps::<0x20>(low[3], high[3]),
            _mm256_permute2f128_ps::<0x31>(low[0], high[0]),
            _mm256_permute2f128_ps::<0x31>(low[1], high[1]),
            _mm256_permute2f128_ps::<0x31>(low[2], high[2]),
            _mm256_permute2f128_ps::<0x31>(low[3], high[3]),
        ];
        for sample in samples {
            let v = _mm512_cvtps_pd(sample);
            let term = if centre.is_some() {
                let d = _mm512_sub_pd(v, mid);
                _mm512_mul_pd(d, d)
            } else {
                v
            };
            acc = _mm512_add_pd(acc, term);
            if peaks.is_some() {
                let bits = _mm256_castps_si256(sample);
                let flip = _mm256_srli_epi32::<1>(_mm256_srai_epi32::<31>(bits));
                block_max = _mm256_max_epi32(block_max, _mm256_xor_si256(bits, flip));
            }
        }
        if peaks.is_some() && (i + 8) % PEAK_BLOCK == 0 && i + 8 < n {
            let mut max = [0; LANES];
            // SAFETY: `max` is eight writable `i32`s, and the store is the
            // unaligned one.
            unsafe { _mm256_storeu_si256(max.as_mut_ptr().cast(), block_max) };
            fold_block(max, i / PEAK_BLOCK);
            block_max = min_key;
        }
    }
    if let Some(peaks) = peaks {
        let mut max = [0; LANES];
        // SAFETY: as above.
        unsafe { _mm256_storeu_si256(max.as_mut_ptr().cast(), block_max) };
        for (r, max) in max.iter_mut().enumerate() {
            *max = series[r][body..]
                .iter()
                .map(|&v| total_key(v))
                .fold(*max, i32::max);
        }
        let last = (n - 1) / PEAK_BLOCK;
        fold_block(max, last);
        *peaks = std::array::from_fn(|r| last_max_in(series[r], top[r].1, top[r].0));
    }
    let mut sums = [0.0; LANES];
    // SAFETY: `sums` is eight writable `f64`s, and the store is the
    // unaligned one.
    unsafe { _mm512_storeu_pd(sums.as_mut_ptr(), acc) };
    fold_rows(lanes, centre, body, sums)
}

/// The integer [`f32::total_cmp`] compares for `v`.
#[inline(always)]
fn total_key(v: f32) -> i32 {
    let bits = v.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The position of the last sample of [`PEAK_BLOCK`] `b` of `series`
/// whose key is `max`.
#[inline(always)]
fn last_max_in(series: &[f32], b: usize, max: i32) -> usize {
    let block = series
        .chunks(PEAK_BLOCK)
        .nth(b)
        .expect("a block of the series");
    let at = block.iter().rposition(|&v| total_key(v) == max);
    b * PEAK_BLOCK + at.expect("the block holds its maximum")
}

/// The position `series.iter().enumerate().max_by(|a, b|
/// a.1.total_cmp(b.1))` returns: that of the last greatest sample.
#[inline(always)]
fn arg_max(series: &[f32]) -> usize {
    let mut top = (i32::MIN, 0);
    for (b, block) in series.chunks(PEAK_BLOCK).enumerate() {
        let max = block.iter().map(|&v| total_key(v)).fold(i32::MIN, i32::max);
        if max >= top.0 {
            top = (max, b);
        }
    }
    last_max_in(series, top.1, top.0)
}

/// [`trial_stat`] from the mean and variance on.
fn finish(trial: usize, series: &[f32], mean: f64, var: f64, peak_sample: usize) -> TrialStat {
    let sigma = var.sqrt();
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

/// Scans every trial of a dedispersed output and returns the per-trial
/// statistics plus the most significant trial.
///
/// # Panics
///
/// Panics if the output has no trials or zero-length series.
pub fn detect_best_trial(output: &OutputBuffer) -> Detection {
    assert!(output.trials() > 0, "output must contain trials");
    let mut trials = Vec::with_capacity(output.trials());
    scan_rows(0, output.as_slice(), output.samples(), |stat| {
        trials.push(stat)
    });
    let best_trial = trials
        .iter()
        .max_by(|a, b| a.snr.total_cmp(&b.snr))
        .expect("non-empty")
        .trial;
    Detection { trials, best_trial }
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

    /// `LANES` series of `samples` values, one kind per lane: equal
    /// maxima either side of a peak-block edge, equal maxima in the tail
    /// of the eight-sample step, a constant, `-0.0` throughout, `+∞`
    /// twice with a `-∞`, NaNs of both signs, noise with its maximum
    /// planted twice, and signed zeros.
    fn lanes_of(samples: usize) -> Vec<Vec<f32>> {
        let hash = |r: usize, i: usize| {
            ((r * samples + i) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
        };
        let last = samples - 1;
        let tail = samples - samples % 8;
        (0..LANES)
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

    type Path = fn(&[&[f32]; LANES]) -> BlockStats;

    /// Every instantiation this host runs, and the dispatcher.
    fn host_paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![
            ("portable", block_stats_portable),
            ("block_stats", block_stats),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected on the line above.
                paths.push(("avx2", |lanes| unsafe { block_stats_avx2(lanes) }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was detected on the line above.
                paths.push(("avx512", |lanes| unsafe { block_stats_avx512(lanes) }));
            }
        }
        paths
    }

    #[test]
    fn every_host_path_equals_trial_stat_bit_for_bit() {
        // Bits, except that a NaN equals any NaN: which one an operation
        // on NaNs yields is not specified.
        let bits = |s: &TrialStat| {
            let f = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
            (s.peak_sample, [s.mean, s.sigma, s.peak_value, s.snr].map(f))
        };
        // Every tail of the eight-sample step and of the peak block.
        for samples in (1..=200).chain([20_000]) {
            let series = lanes_of(samples);
            let lanes: [&[f32]; LANES] = std::array::from_fn(|r| &series[r][..]);
            for (name, path) in host_paths() {
                let (means, vars, peaks) = path(&lanes);
                for r in 0..LANES {
                    let got = finish(r, lanes[r], means[r], vars[r], peaks[r]);
                    let want = trial_stat(r, lanes[r]);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{name}, lane {r}, {samples} samples"
                    );
                }
            }
        }
    }

    #[test]
    fn of_identical_trials_the_later_is_best() {
        let mut series = vec![0.0f32; 50];
        series[20] = 4.0;
        let mut output = OutputBuffer::zeroed(LANES + 2, 50);
        for trial in 0..output.trials() {
            output.series_mut(trial).copy_from_slice(&series);
        }
        assert_eq!(detect_best_trial(&output).best_trial, LANES + 1);
        assert_eq!(best_of_rows(0, output.as_slice(), 50).trial, LANES + 1);
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
