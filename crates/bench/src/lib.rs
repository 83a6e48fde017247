//! Timing helpers shared by the self-gating fleet benches.

use std::hint::black_box;
use std::time::Instant;

/// With `--check`, the most a gated number may exceed the committed
/// baseline's by: the baseline ratchets down with the code, a bench's
/// own ceiling does not.
pub const BASELINE_DRIFT: f64 = 2.0;

/// Min-of-reps wall time for `f`, seconds.
pub fn time_min(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(time_once(&mut f));
    }
    best
}

/// What [`time_paired`] measured, seconds: the median run of each side
/// and the median of the per-pair differences `with - base`.
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median run of the reference side.
    pub base_secs: f64,
    /// Median run of the side carrying the cost under test.
    pub with_secs: f64,
    /// Median of `with - base` over the pairs.
    pub delta_secs: f64,
}

/// Times `base` and `with` alternately, `reps` times each.
///
/// The gated quantities are differences of two runs that are each a
/// millisecond or so, on a machine that slows by a quarter for minutes
/// at a time and stalls for milliseconds at a time. Alternating puts
/// both sides of a pair in the same phase and the median drops the
/// stalls, which is steadier than a difference of two minima taken one
/// after the other.
pub fn time_paired(
    reps: usize,
    mut base: impl FnMut() -> usize,
    mut with: impl FnMut() -> usize,
) -> Paired {
    let mut base_secs = Vec::with_capacity(reps);
    let mut with_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        base_secs.push(time_once(&mut base));
        with_secs.push(time_once(&mut with));
    }
    let mut deltas: Vec<f64> = with_secs
        .iter()
        .zip(&base_secs)
        .map(|(w, b)| w - b)
        .collect();
    Paired {
        base_secs: median(&mut base_secs),
        with_secs: median(&mut with_secs),
        delta_secs: median(&mut deltas),
    }
}

fn time_once(f: &mut impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_ignore_a_stalled_run() {
        let mut values = [3.0, 1.0, 100.0, 2.0, 1.5];
        assert_eq!(median(&mut values), 2.0);
        // A side that does work is slower than one that does none, by
        // about what the pairs differ by.
        let paired = time_paired(9, || 0, || (0..200_000).map(black_box).sum());
        assert!(paired.with_secs > paired.base_secs);
        assert!(paired.delta_secs > 0.0 && paired.delta_secs <= paired.with_secs);
    }
}
