//! The run shape shared by every workload.
//!
//! A run is closed-loop from one generator thread: a warm-up round that
//! is discarded, then equal rounds of fixed work until `--seconds` of
//! round time have been measured. The whole set-up sequence is repeated
//! on fresh objects in five slots — one before the first round, the
//! rest spread evenly between rounds, so one multi-second interference
//! episode cannot own them all. Every timing reported is a median over
//! rounds, results or set-ups; nothing is single-shot and nothing is a
//! tail percentile.
//!
//! # Calibrated seconds
//!
//! Pinning removes the scheduler's noise but not the host's: this
//! shared VM as a whole runs up to a quarter slower for minutes at a
//! time, and every workload slows with it. So the harness times a fixed
//! calibration loop of its own immediately before and after everything
//! it times, and reports durations in *calibrated* seconds: wall time ×
//! ([`CALIBRATION_QUIET_MS`] ÷ what the loop took just then). On a quiet
//! machine a calibrated second is a second; on a disturbed one it is
//! the second the work would have taken undisturbed. The wall-clock
//! figures and the machine speed are printed beside the calibrated
//! ones. The constant only fixes the unit and cancels in every
//! comparison of two runs.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// What one round of a workload produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Work units completed (the unit is the workload's).
    pub units: f64,
    /// Latency of each result delivered in the round, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose result was missing or wrong.
    pub failed: u64,
}

/// A workload after set-up: fresh objects, first result already out.
pub trait Live {
    /// Runs one round of fixed work, verifying every result.
    fn round(&mut self) -> Round;
}

/// A workload just set up, with the operations its set-up performed
/// (first results out, and whatever reference check came with them).
pub struct SetUp<'w> {
    /// The workload, ready to run rounds.
    pub live: Box<dyn Live + 'w>,
    /// Operations the set-up attempted.
    pub attempted: u64,
    /// Operations of the set-up whose result was missing or wrong.
    pub failed: u64,
}

/// One per-layer metric from the traced run.
pub type LayerMetric = (&'static str, f64);

/// What the traced, staged replay of a workload found.
#[derive(Debug, Default)]
pub struct Staged {
    /// Per-layer metrics, by the names in `BENCHMARK.json`.
    pub layers: Vec<LayerMetric>,
    /// Staged operations attempted.
    pub attempted: u64,
    /// Staged operations whose output was wrong.
    pub failed: u64,
}

/// One benchmark workload. Its inputs are fixed by the seed it was
/// built from; the program only ever sees the generated inputs.
pub trait Workload {
    /// The work unit `work_per_s` counts.
    fn work_unit(&self) -> &'static str;

    /// What one `result_p50_ms` sample times.
    fn result(&self) -> &'static str;

    /// The whole set-up sequence on fresh objects, through the first
    /// result out. Timed as `setup_s`.
    fn set_up(&self) -> SetUp<'_>;

    /// Replays the workload stage by stage on the calling thread, a
    /// span around each call into a layer, for about `seconds`; the
    /// root span of one staged request is named [`Workload::root`].
    fn staged(&self, tracer: &mut Tracer, seconds: f64) -> Staged;

    /// Name of the staged replay's per-request root span.
    fn root(&self) -> &'static str;
}

/// The end-to-end numbers of one untraced run. Durations are in
/// calibrated seconds unless the name says `wall`.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// The same on the wall clock — information only.
    pub setup_wall_s: f64,
    /// Set-up repetitions behind `setup_s`.
    pub setups: usize,
    /// Median over rounds of work units per second of round time.
    pub work_per_s: f64,
    /// The same per wall-clock second — information only.
    pub work_per_wall_s: f64,
    /// Timed rounds.
    pub rounds: usize,
    /// Median result latency, milliseconds.
    pub result_p50_ms: f64,
    /// The same on the wall clock — information only.
    pub result_wall_p50_ms: f64,
    /// 95th-percentile result latency — information only.
    pub result_p95_ms: f64,
    /// Results behind the latency figures.
    pub results: usize,
    /// Median over rounds of the machine's speed: 1 when the
    /// calibration loop takes [`CALIBRATION_QUIET_MS`], less when the
    /// machine is disturbed.
    pub machine_speed: f64,
    /// Operations attempted, warm-up and set-up included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Set-up slots per run.
const SETUP_SLOTS: usize = 5;

/// A slot repeats a set-up cheaper than this until the slot has lasted
/// this long, so a millisecond-scale set-up is a median of many.
const SETUP_SLOT_MIN_S: f64 = 0.2;

/// What [`calibration_ms`] reads on the machine this benchmark was
/// written on when nothing disturbs it.
pub const CALIBRATION_QUIET_MS: f64 = 2.15;

/// Times the calibration loop, milliseconds: a multiply-add sweep over
/// 1 MiB (cache and memory) and a dependent square-root chain (core
/// clock), fixed work that belongs to the benchmark and to no layer.
fn calibration_ms() -> f64 {
    let mut buffer = vec![1.0f32; 1 << 18];
    let start = Instant::now();
    let mut sum = 0.0f32;
    for pass in 0..4 {
        let k = 1.0 + pass as f32 * 1e-3;
        for v in &mut buffer {
            *v = *v * k + 0.5;
            sum += *v;
        }
    }
    let mut x = f64::from(black_box(sum));
    for i in 0..200_000u32 {
        x = (x * 1.000_000_1 + f64::from(i)).sqrt();
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` between two calibrations. Returns its result, the wall
/// seconds it took, and the machine's speed meanwhile.
pub fn calibrated<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = calibration_ms();
    let start = Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = calibration_ms();
    (
        result,
        wall_s,
        CALIBRATION_QUIET_MS / ((before + after) / 2.0),
    )
}

/// What a run has counted so far.
#[derive(Default)]
struct Tally {
    /// Per set-up: (wall seconds, machine speed).
    setups: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
}

/// Tears `live` down (untimed), then fills one set-up slot: times whole
/// set-ups on fresh objects and returns the last one to run rounds on.
fn setup_slot<'w>(
    workload: &'w dyn Workload,
    live: Option<Box<dyn Live + 'w>>,
    tally: &mut Tally,
    slot_min_s: f64,
) -> Box<dyn Live + 'w> {
    drop(live);
    let slot = Instant::now();
    loop {
        let (fresh, wall_s, speed) = calibrated(|| workload.set_up());
        tally.setups.push((wall_s, speed));
        tally.attempted += fresh.attempted;
        tally.failed += fresh.failed;
        if slot.elapsed().as_secs_f64() >= slot_min_s {
            return fresh.live;
        }
        drop(fresh);
    }
}

/// Measures `workload` for `seconds` of round time. `quick` runs one
/// set-up and one round only: a smoke test of the harness, not a
/// measurement.
pub fn measure(workload: &dyn Workload, seconds: f64, quick: bool) -> EndToEnd {
    let mut tally = Tally::default();
    // Per round: (work units per wall second, machine speed).
    let mut rounds = Vec::new();
    // Per result: (wall milliseconds, machine speed of its round).
    let mut results = Vec::new();

    let slot_min_s = if quick { 0.0 } else { SETUP_SLOT_MIN_S };
    let mut live = setup_slot(workload, None, &mut tally, slot_min_s);
    if !quick {
        let warm_up = live.round();
        tally.attempted += warm_up.attempted;
        tally.failed += warm_up.failed;
    }
    let slot_every = seconds / SETUP_SLOTS as f64;
    let mut next_slot = slot_every;
    let mut timed = 0.0;
    loop {
        let (round, wall_s, speed) = calibrated(|| live.round());
        timed += wall_s;
        rounds.push((round.units / wall_s, speed));
        results.extend(round.latencies_ms.iter().map(|&ms| (ms, speed)));
        tally.attempted += round.attempted;
        tally.failed += round.failed;
        if quick || timed >= seconds {
            break;
        }
        while timed >= next_slot {
            live = setup_slot(workload, Some(live), &mut tally, slot_min_s);
            next_slot += slot_every;
        }
    }
    drop(live);

    // A duration shrinks with the machine's speed, a rate grows.
    let durations =
        |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(d, speed)| d * speed).collect() };
    let walls = |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(wall, _)| *wall).collect() };
    let rates: Vec<f64> = rounds.iter().map(|(rate, speed)| rate / speed).collect();
    let speeds: Vec<f64> = rounds.iter().map(|(_, speed)| *speed).collect();
    EndToEnd {
        setup_s: median(&durations(&tally.setups)),
        setup_wall_s: median(&walls(&tally.setups)),
        setups: tally.setups.len(),
        work_per_s: median(&rates),
        work_per_wall_s: median(&walls(&rounds)),
        rounds: rounds.len(),
        result_p50_ms: median(&durations(&results)),
        result_wall_p50_ms: median(&walls(&results)),
        result_p95_ms: percentile(&durations(&results), 95.0),
        results: results.len(),
        machine_speed: median(&speeds),
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// Times `f`, returning its result and the milliseconds it took.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// SplitMix64: the harness's only randomness, so inputs depend on
/// `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A workload that counts what the harness asks of it.
    #[derive(Default)]
    struct Counting {
        setups: Cell<usize>,
        rounds: Cell<usize>,
    }

    struct CountingLive<'w>(&'w Counting);

    impl Live for CountingLive<'_> {
        fn round(&mut self) -> Round {
            self.0.rounds.set(self.0.rounds.get() + 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            Round {
                units: 10.0,
                latencies_ms: vec![1.0, 3.0],
                attempted: 2,
                failed: 0,
            }
        }
    }

    impl Workload for Counting {
        fn work_unit(&self) -> &'static str {
            "unit"
        }
        fn result(&self) -> &'static str {
            "result"
        }
        fn set_up(&self) -> SetUp<'_> {
            self.setups.set(self.setups.get() + 1);
            // Longer than a slot's minimum, so each slot is one set-up.
            std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_SLOT_MIN_S + 0.001));
            SetUp {
                live: Box::new(CountingLive(self)),
                attempted: 1,
                failed: 0,
            }
        }
        fn staged(&self, _: &mut Tracer, _: f64) -> Staged {
            Staged::default()
        }
        fn root(&self) -> &'static str {
            "round"
        }
    }

    #[test]
    fn quick_is_one_setup_and_one_round() {
        let w = Counting::default();
        let e = measure(&w, 60.0, true);
        assert_eq!((w.setups.get(), w.rounds.get()), (1, 1));
        assert_eq!((e.setups, e.rounds, e.results), (1, 1, 2));
        // One operation in the set-up, two in the round.
        assert_eq!((e.attempted, e.failed), (3, 0));
        assert_eq!(e.result_wall_p50_ms, 2.0);
        // One round, so one machine speed scales every figure.
        assert!(e.machine_speed > 0.0);
        assert!((e.result_p50_ms - 2.0 * e.machine_speed).abs() < 1e-9);
        assert!((e.work_per_s * e.machine_speed - e.work_per_wall_s).abs() < 1e-6);
    }

    #[test]
    fn a_run_fills_five_setup_slots_between_rounds() {
        let w = Counting::default();
        let e = measure(&w, 0.1, false);
        assert_eq!(e.setups, SETUP_SLOTS);
        assert_eq!(w.setups.get(), SETUP_SLOTS);
        // The warm-up round is run but not timed.
        assert_eq!(w.rounds.get(), e.rounds + 1);
        assert!(e.rounds >= SETUP_SLOTS);
        assert!(e.work_per_wall_s > 0.0 && e.work_per_wall_s < 10.0 / 0.002);
        assert_eq!(e.attempted, (SETUP_SLOTS + 2 * w.rounds.get()) as u64);
    }

    #[test]
    fn splitmix_is_reproducible_and_stays_in_range() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix(43).next_u64(), SplitMix(42).next_u64());
        assert!((0..100).all(|_| (3..7).contains(&a.range(3, 7))));
    }
}
