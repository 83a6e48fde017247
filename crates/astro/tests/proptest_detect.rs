//! Bit-exactness of the multi-row detection statistics: whatever
//! `scan_rows` reports for a series is what `trial_stat`, the scalar
//! definition, reports for it — field by field, bit for bit.

use dedisp_core::OutputBuffer;
use proptest::prelude::*;
use radioastro::detect::{best_of_rows, scan_rows, trial_stat, LANES};
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
}

const FLAVOURS: [Flavour; 8] = [
    Flavour::Noise,
    Flavour::Repeats,
    Flavour::Constant(2.5),
    Flavour::Constant(0.0),
    Flavour::Constant(-0.0),
    Flavour::Constant(f32::INFINITY),
    Flavour::NonFinite,
    Flavour::EdgeRepeats,
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

/// Checks every public route through the multi-row statistics against
/// `trial_stat` on `rows`.
fn check(first_trial: usize, rows: &[f32], samples: usize) -> Result<(), String> {
    let oracle: Vec<TrialStat> = rows
        .chunks(samples)
        .enumerate()
        .map(|(r, series)| trial_stat(first_trial + r, series))
        .collect();
    // `Iterator::max_by` keeps the last maximum: the rule to reproduce.
    let best = *oracle
        .iter()
        .max_by(|a, b| a.snr.total_cmp(&b.snr))
        .expect("at least one trial");

    let mut got = Vec::new();
    scan_rows(first_trial, rows, samples, |stat| got.push(stat));
    if got.len() != oracle.len() {
        return Err(format!("{} stats for {} trials", got.len(), oracle.len()));
    }
    for (got, want) in got.iter().zip(&oracle) {
        if !same(got, want) {
            return Err(format!("{got:?} != {want:?}"));
        }
    }
    let folded = best_of_rows(first_trial, rows, samples);
    if !same(&folded, &best) {
        return Err(format!("best_of_rows {folded:?} != {best:?}"));
    }

    let mut output = OutputBuffer::zeroed(oracle.len(), samples);
    output.as_mut_slice().copy_from_slice(rows);
    let detection = detect_best_trial(&output);
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
fn every_tail_width_and_every_partial_block() {
    // Lengths 1..=70 leave every tail of the four- and eight-sample
    // steps and of the 64-sample peak block; trial counts 1..=2·LANES+1 leave every
    // number of idle lanes.
    for samples in 1..=70 {
        for trials in 1..=2 * LANES + 1 {
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
        let rows = rows(i as u64, LANES + 3, 20_000, flavour);
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
        assert_eq!(stat, trial_stat(0, &series));
    }
    // And of equal trials, the last: three copies of one series.
    let rows = [&series[..], &series[..], &series[..]].concat();
    assert_eq!(best_of_rows(5, &rows, 200).trial, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multi_row_statistics_equal_trial_stat(
        seed in any::<u64>(),
        samples in 1usize..=300,
        trials in 1usize..=3 * LANES,
        flavour in 0usize..FLAVOURS.len(),
        first_trial in 0usize..4_096,
    ) {
        let rows = rows(seed, trials, samples, FLAVOURS[flavour]);
        let outcome = check(first_trial, &rows, samples);
        prop_assert!(outcome.is_ok(), "{:?}: {}", FLAVOURS[flavour], outcome.unwrap_err());
    }

    #[test]
    fn long_series_equal_trial_stat(
        seed in any::<u64>(),
        samples in 19_990usize..=20_010,
        trials in 1usize..=LANES + 1,
    ) {
        for flavour in [Flavour::Noise, Flavour::NonFinite, Flavour::EdgeRepeats] {
            let rows = rows(seed, trials, samples, flavour);
            let outcome = check(0, &rows, samples);
            prop_assert!(outcome.is_ok(), "{:?}: {}", flavour, outcome.unwrap_err());
        }
    }
}
