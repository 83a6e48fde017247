//! Property-based invariants for the batched telemetry encoding.
//!
//! The batch seam is the only seam, so its contract is that batch
//! boundaries are *invisible* to every fold: delivering a stream as
//! [`TickBatch`] blocks — at any boundaries whatsoever, down to one
//! event per batch — produces exactly the same artifacts. With one row
//! per column no intra-batch ordering can hide, so the singleton
//! chunking is the sequential reference. These properties pin that
//! down on real scheduler runs under arbitrary mixed fault schedules
//! and on real capture ingests under arbitrary arrival processes:
//!
//! 1. **Encode/decode identity** — a run's [`EventLog`] decodes to the
//!    same flat sequence however it is re-chunked, and re-encoding
//!    that sequence at arbitrary boundaries compares equal.
//! 2. **Fold invariance (scheduler)** — folding the batch stream
//!    through [`StatusSnapshot`], [`FlightRecorder`] (bounded ring,
//!    so eviction is exercised) and [`BurnRate`] gives the same result
//!    per tick, at arbitrary chunking, and one event per batch; the
//!    snapshot equals the run's own [`FleetRun::status`] and agrees
//!    with the [`FleetReport`] ledger.
//! 3. **Fold invariance (capture)** — the same proposition for the
//!    capture front-end's event stream, on arbitrary fault + capture
//!    schedules, including the ledger counters the conservation check
//!    trusts.
//!
//! [`FleetReport`]: dedisp_fleet::FleetReport

use dedisp_fleet::capture::{
    Arrival, ArrivalTrace, BackpressurePolicy, BlockFormat, CaptureConfig, CaptureSession,
};
use dedisp_fleet::obs::{BurnRate, FlightRecorder, RecordedEvent, SloConfig, SloSnapshot};
use dedisp_fleet::{
    Algorithm, AlgorithmLadder, EventLog, FaultEvent, FaultPlan, FleetRun, ResolvedFleet,
    Scheduler, StatusSnapshot, SurveyLoad, TickBatch,
};
use proptest::prelude::*;

/// Runs the scheduler over a synthetic fleet.
fn run(spb: &[f64], trials: usize, beams: usize, ticks: usize, faults: &FaultPlan) -> FleetRun {
    let fleet = ResolvedFleet::synthetic(trials, spb);
    let load = SurveyLoad::custom(trials, beams, ticks);
    Scheduler::session(&fleet)
        .load(&load)
        .faults(faults)
        .run()
        .expect("valid inputs")
}

/// Raw material for one generated fault event: `(kind, device, onset,
/// duration, factor, count)`.
type RawEvent = (u8, usize, f64, f64, f64, usize);

/// Folds generated raw events into a valid mixed-kind fault plan.
fn mixed_plan(events: &[RawEvent], devices: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &(kind, dev, t0, dur, factor, count) in events {
        plan = plan.with_event(
            dev % devices,
            match kind % 4 {
                0 => FaultEvent::Kill { at: t0 },
                1 => FaultEvent::Flap {
                    down_at: t0,
                    up_at: t0 + dur,
                },
                2 => FaultEvent::Slowdown {
                    from: t0,
                    until: t0 + dur,
                    factor,
                },
                _ => FaultEvent::Transient { at: t0, count },
            },
        );
    }
    plan
}

/// Re-chunks a log's flat event sequence into batches whose sizes
/// cycle through `sizes` — arbitrary boundaries, same content.
fn rechunk(log: &EventLog, sizes: &[usize]) -> EventLog {
    let mut out = EventLog::new();
    let mut batch = TickBatch::new();
    let mut cursor = 0usize;
    let mut target = sizes.first().copied().unwrap_or(1).max(1);
    for event in log.iter() {
        batch.push(&event);
        if batch.len() >= target {
            out.push_batch(std::mem::take(&mut batch));
            cursor = (cursor + 1) % sizes.len().max(1);
            target = sizes.get(cursor).copied().unwrap_or(1).max(1);
        }
    }
    out.push_batch(batch);
    out
}

/// Folds a log into a snapshot, batch by batch.
fn fold_batched(devices: usize, log: &EventLog) -> StatusSnapshot {
    let mut snapshot = StatusSnapshot::new(devices);
    log.replay(&mut snapshot);
    snapshot
}

/// Ring capacity for [`record`]: smaller than most tick batches, so
/// the recorder's skip-what-would-be-evicted path is exercised.
const RING: usize = 7;

/// Records a log into a bounded flight recorder; returns what the ring
/// kept plus the recorded total.
fn record(log: &EventLog) -> (Vec<RecordedEvent>, u64) {
    let mut recorder = FlightRecorder::new(RING);
    log.replay(&mut recorder);
    (recorder.tail(usize::MAX), recorder.recorded())
}

/// Folds a log through the SLO burn-rate fold.
fn burn(log: &EventLog) -> SloSnapshot {
    let mut slo = BurnRate::new(SloConfig::default());
    log.replay(&mut slo);
    slo.snapshot()
}

/// A capture arrival stream from raw `(beam, gap)` material.
fn arrivals(raw: &[(usize, f64)], beams: usize) -> Vec<Arrival> {
    let mut at = 0.0;
    let mut seqs = vec![0u64; beams];
    raw.iter()
        .map(|&(beam, gap)| {
            let beam = beam % beams;
            at += gap;
            let seq = seqs[beam];
            seqs[beam] += 1;
            Arrival { at, beam, seq }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Properties 1 + 2 on scheduler runs: re-chunked logs compare
    /// equal, and every fold agrees across per-tick, arbitrary, and
    /// singleton boundaries — with the run's own fold and the report.
    #[test]
    fn folds_are_invariant_under_batch_boundaries_on_scheduler_runs(
        spb in prop::collection::vec(0.05f64..1.5, 1..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..4,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..8,
        ),
        sizes in prop::collection::vec(1usize..17, 1..5),
    ) {
        let faults = mixed_plan(&events, spb.len());
        let run = run(&spb, trials, beams, ticks, &faults);
        let devices = run.report.devices.len();

        // Encode/decode identity across arbitrary batch boundaries.
        let rechunked = rechunk(&run.log, &sizes);
        prop_assert_eq!(&rechunked, &run.log);
        prop_assert_eq!(rechunked.len(), run.log.len());

        // Fold invariance: per-tick, arbitrary, and singleton
        // boundaries all give the same snapshot, ring, and burn.
        let singletons = rechunk(&run.log, &[1]);
        prop_assert_eq!(singletons.batches().count(), run.log.len());
        let batched = fold_batched(devices, &run.log);
        prop_assert_eq!(&fold_batched(devices, &rechunked), &batched);
        prop_assert_eq!(&fold_batched(devices, &singletons), &batched);
        prop_assert_eq!(&batched, &run.status());
        let recorded = record(&run.log);
        prop_assert_eq!(recorded.1 as usize, run.log.len());
        prop_assert_eq!(&record(&rechunked), &recorded);
        prop_assert_eq!(&record(&singletons), &recorded);
        let burned = burn(&run.log);
        prop_assert_eq!(&burn(&rechunked), &burned);
        prop_assert_eq!(&burn(&singletons), &burned);

        // The fold agrees with the report ledger on the shared fields.
        let r = &run.report;
        prop_assert_eq!(batched.completed, r.completed);
        prop_assert_eq!(batched.degraded, r.degraded);
        prop_assert_eq!(batched.deadline_misses, r.deadline_misses);
        prop_assert_eq!(batched.shed_whole, r.shed_whole);
        prop_assert_eq!(batched.total_shed_trials, r.total_shed_trials);
        prop_assert_eq!(batched.bounced, r.bounced);
        prop_assert_eq!(batched.retries, r.retries);
        prop_assert_eq!(batched.probes, r.probes);
        prop_assert_eq!(batched.canaries, r.canaries);
        prop_assert_eq!(batched.recoveries, r.recoveries);
    }

    /// Property 2 extended to the algorithm plane: runs under the
    /// [`AlgorithmLadder`] on multi-algorithm fleets emit
    /// `AlgorithmSwitch` events, and the switch column folds the same
    /// at every chunking — counters, the per-device algorithm
    /// assignment, and the clock all agree across arbitrary
    /// re-chunking boundaries, down to one event per batch.
    #[test]
    fn folds_are_invariant_under_batch_boundaries_on_algorithm_ladder_runs(
        devices in 1usize..4,
        beams in 1usize..24,
        ticks in 1usize..4,
        brute_spb in 0.1f64..0.6,
        ratio in 0.25f64..0.95,
        sizes in prop::collection::vec(1usize..17, 1..5),
    ) {
        let table = [
            (Algorithm::BruteForce, brute_spb),
            (Algorithm::Subband { factor: 32 }, brute_spb * ratio),
        ];
        let tables: Vec<&[(Algorithm, f64)]> = (0..devices).map(|_| &table[..]).collect();
        let fleet = ResolvedFleet::synthetic_with_algorithms(1000, &tables);
        let load = SurveyLoad::custom(1000, beams, ticks);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&AlgorithmLadder)
            .run()
            .expect("valid inputs");

        let rechunked = rechunk(&run.log, &sizes);
        prop_assert_eq!(&rechunked, &run.log);

        let batched = fold_batched(devices, &run.log);
        prop_assert_eq!(&fold_batched(devices, &rechunked), &batched);
        prop_assert_eq!(&fold_batched(devices, &rechunk(&run.log, &[1])), &batched);
        prop_assert_eq!(&batched, &run.status());

        // When the ladder switched, the fold saw it — count and final
        // per-device assignment both come off the switch column.
        let switch_count = run
            .log
            .iter()
            .filter(|e| matches!(e, dedisp_fleet::TelemetryEvent::AlgorithmSwitch { .. }))
            .count();
        prop_assert_eq!(batched.algorithm_switches, switch_count);
    }

    /// Property 3 on capture ingests: the drain-window batch stream
    /// folds to the same snapshot at every chunking, and tells the
    /// ledger's story.
    #[test]
    fn folds_are_invariant_under_batch_boundaries_on_capture_ingests(
        beams in 1usize..5,
        capacity_blocks in 1usize..6,
        watermark in 0.2f64..1.0,
        drain_max in 1usize..5,
        kind in 0u8..3,
        raw in prop::collection::vec((0usize..8, 0.0f64..0.9), 1..80),
        sizes in prop::collection::vec(1usize..9, 1..4),
    ) {
        let cfg = CaptureConfig {
            capacity_blocks,
            high_watermark: watermark,
            policy: match kind % 3 {
                0 => BackpressurePolicy::DropOldest,
                1 => BackpressurePolicy::Downsample2x,
                _ => BackpressurePolicy::NarrowDmPlan { tiers: 2 },
            },
            drain_max_blocks: drain_max,
            ..CaptureConfig::new(beams, BlockFormat::new(4, 16), 800)
        };
        let log = arrivals(&raw, beams);
        let run = CaptureSession::new(cfg)
            .expect("valid config")
            .ingest(ArrivalTrace::new(&log))
            .expect("contract-clean source");

        let rechunked = rechunk(&run.log, &sizes);
        prop_assert_eq!(&rechunked, &run.log);

        let batched = fold_batched(0, &run.log);
        prop_assert_eq!(&fold_batched(0, &rechunked), &batched);
        prop_assert_eq!(&fold_batched(0, &rechunk(&run.log, &[1])), &batched);

        // The fold carries the ledger's counters.
        prop_assert_eq!(batched.capture_arrivals, run.ledger.arrivals);
        prop_assert_eq!(batched.capture_drops, run.ledger.dropped);
        prop_assert_eq!(batched.capture_degraded, run.ledger.degrade_events);
        prop_assert_eq!(batched.capture_batches, run.ledger.batches);
        prop_assert_eq!(batched.events_folded, run.log.len());
    }
}
