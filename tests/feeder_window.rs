//! The feeder against its oracle: whatever `BeamFeeder` emits for a beam
//! is what a rolling `StreamWindow` holds after the same pushes — every
//! sample's bits, the zero-filled cold start included — tagged with the
//! same beam and the window's second, and nothing while the window is
//! still warming up.

use std::sync::Arc;

use dedisp_repro::dedisp_core::{DedispersionPlan, DmGrid, FrequencyBand, StreamWindow};
use dedisp_repro::feeder::BeamFeeder;
use proptest::prelude::*;

/// How a plan's overlap (its `max_delay`) compares with its second.
#[derive(Debug, Clone, Copy)]
enum Overlap {
    /// A zero-DM plan: every chunk is the pushed second alone.
    Zero,
    /// Shorter than a second.
    Below,
    /// Exactly one second.
    Equal,
    /// About this many seconds.
    Seconds(usize),
}

/// A plan of `channels` channels whose overlap relates to its second as
/// `overlap` says, or `None` if the delays are too short for that.
fn plan(
    channels: usize,
    trials: usize,
    step: f64,
    extra: usize,
    overlap: Overlap,
) -> Option<DedispersionPlan> {
    let builder = || {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, channels).unwrap())
            .dm_grid(DmGrid::new(0.0, step, trials).unwrap())
            .sample_rate(200)
    };
    let delay = builder().build().unwrap().delays().max_delay();
    let (zero_dm, s) = match overlap {
        Overlap::Zero => (true, 1 + extra),
        Overlap::Below => (false, delay + 1 + extra),
        Overlap::Equal => (false, delay),
        Overlap::Seconds(k) => (false, delay / k),
    };
    let plan = builder().zero_dm(zero_dm).out_samples(s).build().ok()?;
    let held = plan.in_samples() - plan.out_samples();
    let fits = match overlap {
        Overlap::Zero => held == 0,
        Overlap::Below => held < s,
        Overlap::Equal => held == s,
        Overlap::Seconds(_) => held > s,
    };
    fits.then_some(plan)
}

/// Raw second `push` of `beam`: arbitrary bits, NaN payloads included,
/// so a sample copied from the wrong place cannot pass.
fn second(plan: &DedispersionPlan, seed: u64, beam: usize, push: usize) -> Vec<Vec<f32>> {
    (0..plan.channels())
        .map(|ch| {
            (0..plan.out_samples())
                .map(|i| {
                    let x = (seed ^ ((beam * 1_000 + push) * 100 + ch) as u64 ^ (i as u64) << 40)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(29)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    f32::from_bits((x >> 32) as u32)
                })
                .collect()
        })
        .collect()
}

/// Feeds `schedule` (beams, in push order) to a feeder and to one window
/// per beam and checks every push's outcome against the window's.
fn check(
    plan: &DedispersionPlan,
    beams: usize,
    seed: u64,
    schedule: &[usize],
) -> Result<(), String> {
    let s = plan.out_samples();
    let warm_up = (plan.in_samples() - s).div_ceil(s).max(1) as u64;
    let mut feeder = BeamFeeder::new(Arc::new(plan.clone()), beams);
    let mut windows = vec![StreamWindow::for_plan(plan); beams];
    let mut pushes = vec![0; beams];
    let mut emitted = vec![0u64; beams];
    for &beam in schedule {
        let raw = second(plan, seed, beam, pushes[beam]);
        pushes[beam] += 1;
        let raw: Vec<&[f32]> = raw.iter().map(Vec::as_slice).collect();
        let window = &mut windows[beam];
        window.push_second(&raw).map_err(|e| e.to_string())?;
        let chunk = feeder.push_second(beam, &raw).map_err(|e| e.to_string())?;
        let at = format!("beam {beam}, push {}", pushes[beam]);
        match (chunk, window.warmed_up()) {
            (None, false) => {}
            (Some(chunk), true) => {
                let second = window.seconds_pushed() - warm_up;
                if (chunk.beam, chunk.second) != (beam, second) {
                    return Err(format!("{at}: chunk {} {}", chunk.beam, chunk.second));
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(chunk.data.as_slice()) != bits(window.window().as_slice()) {
                    return Err(format!("{at}: the chunk is not the window"));
                }
                if chunk.data.channels() != plan.channels()
                    || chunk.data.samples() != plan.in_samples()
                {
                    return Err(format!("{at}: chunk shape"));
                }
                emitted[beam] += 1;
            }
            (chunk, warm) => {
                return Err(format!(
                    "{at}: chunk {} but window warm {warm}",
                    chunk.is_some()
                ));
            }
        }
    }
    // Every beam got past its cold-start chunk.
    if emitted.iter().any(|&n| n < 2) {
        return Err(format!("too few chunks: {emitted:?}"));
    }
    Ok(())
}

/// A drawn interleaving of `beams`, then enough round-robin pushes for
/// every beam to emit its cold-start chunk and two more.
fn schedule(beams: usize, plan: &DedispersionPlan, drawn: &[usize]) -> Vec<usize> {
    let s = plan.out_samples();
    let warm_up = (plan.in_samples() - s).div_ceil(s).max(1);
    let tail = (0..beams * (warm_up + 2)).map(|i| i % beams);
    drawn.iter().map(|&b| b % beams).chain(tail).collect()
}

#[test]
fn each_overlap_regime_on_a_fixed_plan() {
    for overlap in [
        Overlap::Zero,
        Overlap::Below,
        Overlap::Equal,
        Overlap::Seconds(2),
        Overlap::Seconds(5),
    ] {
        let plan = plan(5, 6, 2.0, 3, overlap).expect("these delays fit every regime");
        for beams in [1, 2, 3] {
            let schedule = schedule(beams, &plan, &[1, 1, 0, 2, 0, 1]);
            check(&plan, beams, 7, &schedule).unwrap_or_else(|e| panic!("{overlap:?}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunks_equal_the_window_after_the_same_pushes(
        regime in 0usize..5,
        channels in 1usize..=6,
        trials in 2usize..=8,
        step in prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),
        extra in 0usize..=20,
        beams in 2usize..=3,
        seed in any::<u64>(),
        drawn in prop::collection::vec(0usize..3, 0..12usize),
    ) {
        let overlap = match regime {
            0 => Overlap::Zero,
            1 => Overlap::Below,
            2 => Overlap::Equal,
            _ => Overlap::Seconds(2 + extra % 4),
        };
        let plan = plan(channels, trials, step, extra, overlap);
        prop_assume!(plan.is_some());
        let plan = plan.unwrap();
        let schedule = schedule(beams, &plan, &drawn);
        let outcome = check(&plan, beams, seed, &schedule);
        prop_assert!(outcome.is_ok(), "{:?}, {} beams: {}", overlap, beams, outcome.unwrap_err());
    }
}
