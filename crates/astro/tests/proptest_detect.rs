//! Bit-exactness of the detection statistics: whatever `trial_stat`,
//! `best_of_rows` and `detect_best_trial` report for a series is what a
//! test-local copy of the definition, written as plain scalar loops,
//! reports for it — field by field, bit for bit.

use dedisp_core::OutputBuffer;
use proptest::prelude::*;
use radioastro::detect::{best_of_rows, trial_stat};
use radioastro::{detect_best_trial, TrialStat};

/// Bit equality, except that any NaN equals any NaN: which payload and
/// sign an operation on two NaNs (or `inf - inf`) yields is outside what
/// IEEE 754 and Rust specify, so it cannot be held to the oracle's.
fn same_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same(a: &TrialStat, b: &TrialStat) -> bool {
    a.trial == b.trial
        && a.peak_sample == b.peak_sample
        && same_f32(a.mean, b.mean)
        && same_f32(a.sigma, b.sigma)
        && same_f32(a.peak_value, b.peak_value)
        && same_f32(a.snr, b.snr)
}

/// What a series is made of.
#[derive(Debug, Clone, Copy)]
enum Flavour {
    /// Values in [-0.5, 0.5): sums cancel, every rounding matters.
    Noise,
    /// A few magnitudes, so maxima repeat and the last must win, with
    /// signed zeros among them.
    Repeats,
    /// One value throughout: `sigma == 0`, `snr == 0`, the peak is the
    /// last sample. `-0.0` exposes the sum's starting value.
    Constant(f32),
    /// Infinities and NaNs of both signs among noise.
    NonFinite,
    /// Noise with one maximum repeated on samples either side of the
    /// 64-sample blocks' edges and in the last eight, so equal block
    /// maxima and equal maxima in the tail decide the peak.
    EdgeRepeats,
    /// Adjacent `+2^53`/`-2^53` pairs among noise: a partial sum holding
    /// one absorbs the noise added to it and one at zero keeps it, so the
    /// mean depends on which partial each sample joins and on the order
    /// the partials combine in — a sum order that moves no bit of the
    /// other flavours shows here.
    Cancelling,
}

const FLAVOURS: [Flavour; 9] = [
    Flavour::Noise,
    Flavour::Repeats,
    Flavour::Constant(2.5),
    Flavour::Constant(0.0),
    Flavour::Constant(-0.0),
    Flavour::Constant(f32::INFINITY),
    Flavour::NonFinite,
    Flavour::EdgeRepeats,
    Flavour::Cancelling,
];

fn hash(seed: u64, i: usize) -> u64 {
    let x = (seed ^ i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29);
    x.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

fn noise(x: u64) -> f32 {
    (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// `trials × samples` values of `flavour`, trial-major.
fn rows(seed: u64, trials: usize, samples: usize, flavour: Flavour) -> Vec<f32> {
    (0..trials * samples)
        .map(|i| {
            let x = hash(seed, i);
            let at = i % samples;
            match flavour {
                Flavour::Noise => noise(x),
                Flavour::Repeats => [-1.0, -0.0, 0.0, 0.5, 3.0][(x % 5) as usize],
                Flavour::Constant(v) => v,
                Flavour::NonFinite => match x % 23 {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    2 => f32::NAN,
                    3 => -f32::NAN,
                    _ => noise(x),
                },
                Flavour::Cancelling => {
                    // Samples 2j and 2j + 1 are a pair: both noise, or
                    // +2^53 and -2^53, so the large values cancel in
                    // every sum and the noise they absorbed decides it.
                    let pair = hash(seed, i - at % 2);
                    if pair.is_multiple_of(3) && at | 1 < samples {
                        let sign = if at.is_multiple_of(2) == (pair & 8 == 0) {
                            1.0
                        } else {
                            -1.0
                        };
                        sign * 2f32.powi(53)
                    } else {
                        noise(x)
                    }
                }
                Flavour::EdgeRepeats => {
                    let edge = matches!(at % 64, 0 | 63) || at + 8 >= samples;
                    if edge && !x.is_multiple_of(3) {
                        2.0
                    } else {
                        noise(x)
                    }
                }
            }
        })
        .collect()
}

/// The definition as plain scalar loops: partial `i % 64` adds sample
/// `i` (from the value `Iterator::sum` starts at), then the upper half of
/// the partials is added to the lower until one is left; the peak is
/// `max_by`'s, the last of equal maxima under `total_cmp`.
fn reference(trial: usize, series: &[f32]) -> TrialStat {
    let n = series.len() as f64;
    let start = std::iter::empty::<f64>().sum::<f64>();
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
    let mut p = [start; 64];
    for (i, &v) in series.iter().enumerate() {
        p[i % 64] += v as f64;
    }
    let mean = tree(p) / n;
    let mut p = [start; 64];
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

/// Checks every public route through the statistics against
/// [`reference`] on `rows`.
fn check(first_trial: usize, rows: &[f32], samples: usize) -> Result<(), String> {
    let oracle: Vec<TrialStat> = rows
        .chunks(samples)
        .enumerate()
        .map(|(r, series)| reference(first_trial + r, series))
        .collect();
    // `Iterator::max_by` keeps the last maximum: the rule to reproduce.
    let best = *oracle
        .iter()
        .max_by(|a, b| a.snr.total_cmp(&b.snr))
        .expect("at least one trial");

    for (series, want) in rows.chunks(samples).zip(&oracle) {
        let got = trial_stat(want.trial, series);
        if !same(&got, want) {
            return Err(format!("trial_stat {got:?} != {want:?}"));
        }
    }
    let folded = best_of_rows(first_trial, rows, samples);
    if !same(&folded, &best) {
        return Err(format!("best_of_rows {folded:?} != {best:?}"));
    }

    let mut output = OutputBuffer::zeroed(oracle.len(), samples);
    output.as_mut_slice().copy_from_slice(rows);
    let detection = detect_best_trial(&output);
    if detection.trials.len() != oracle.len() {
        return Err(format!(
            "{} stats for {} trials",
            detection.trials.len(),
            oracle.len()
        ));
    }
    for (got, want) in detection.trials.iter().zip(&oracle) {
        let want = TrialStat {
            trial: want.trial - first_trial,
            ..*want
        };
        if !same(got, &want) {
            return Err(format!("detect_best_trial {got:?} != {want:?}"));
        }
    }
    if detection.best_trial + first_trial != best.trial {
        return Err(format!(
            "detect_best_trial picked {}, not {}",
            detection.best_trial,
            best.trial - first_trial
        ));
    }
    Ok(())
}

#[test]
fn every_tail_of_the_partials_and_of_the_peak_block() {
    // Lengths 1..=200 leave every tail of the 64 partials' round and of
    // the 64-sample peak block, some twice; one less, one more and
    // exactly a multiple of 64 up to a LOFAR second cover the partials'
    // rounds whole and torn; up to three trials exercise the folds.
    let multiples = [1, 2, 3, 4, 7, 16, 100, 313].map(|m| 64 * m);
    let lengths = (1..=200).chain(multiples.into_iter().flat_map(|n| [n - 1, n, n + 1]));
    for samples in lengths {
        for trials in 1..=3 {
            for flavour in FLAVOURS {
                let seed = (samples * 131 + trials) as u64;
                let rows = rows(seed, trials, samples, flavour);
                check(trials, &rows, samples)
                    .unwrap_or_else(|e| panic!("{samples} x {trials} {flavour:?}: {e}"));
            }
        }
    }
}

#[test]
fn a_lofar_second_of_every_flavour() {
    for (i, flavour) in FLAVOURS.into_iter().enumerate() {
        let rows = rows(i as u64, 3, 20_000, flavour);
        check(0, &rows, 20_000).unwrap_or_else(|e| panic!("{flavour:?}: {e}"));
    }
}

#[test]
fn of_equal_maxima_the_last_wins() {
    // The same maximum in the first block, in the winning block twice,
    // and as the very last sample.
    let mut series = vec![0.0f32; 200];
    for at in [3, 130, 140, 199] {
        series[at] = 7.0;
        let stat = best_of_rows(0, &series, 200);
        assert_eq!(stat.peak_sample, at);
        assert_eq!(stat, reference(0, &series));
    }
    // And of equal trials, the last: three copies of one series.
    let rows = [&series[..], &series[..], &series[..]].concat();
    assert_eq!(best_of_rows(5, &rows, 200).trial, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn statistics_equal_the_reference(
        seed in any::<u64>(),
        samples in 1usize..=300,
        trials in 1usize..=8,
        flavour in 0usize..FLAVOURS.len(),
        first_trial in 0usize..4_096,
    ) {
        let rows = rows(seed, trials, samples, FLAVOURS[flavour]);
        let outcome = check(first_trial, &rows, samples);
        prop_assert!(outcome.is_ok(), "{:?}: {}", FLAVOURS[flavour], outcome.unwrap_err());
    }

    #[test]
    fn long_series_equal_the_reference(
        seed in any::<u64>(),
        samples in 19_990usize..=20_010,
        trials in 1usize..=3,
    ) {
        for flavour in [
            Flavour::Noise,
            Flavour::NonFinite,
            Flavour::EdgeRepeats,
            Flavour::Cancelling,
        ] {
            let rows = rows(seed, trials, samples, flavour);
            let outcome = check(0, &rows, samples);
            prop_assert!(outcome.is_ok(), "{:?}: {}", flavour, outcome.unwrap_err());
        }
    }
}
