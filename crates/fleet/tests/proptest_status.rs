//! Property-based invariants for the operator plane's status fold.
//!
//! The live `/status` endpoint and the flight-recorder replay both
//! trust the same proposition: folding the telemetry stream through
//! [`StatusSnapshot`] reproduces the ledger the scheduler writes. These
//! properties pin that down under arbitrary fleets, loads, and mixed
//! fault schedules:
//!
//! 1. **Agreement** — the [`FleetReport`] and the snapshot folded from a
//!    *complete* run stream each equal an independent reference count
//!    of that stream (one plain `match` per event, [`tally`]):
//!    completed, degraded, misses, shed (whole and trial DMs), the
//!    whole recovery ledger, and per-device bounces and final health.
//! 2. **Prefix monotonicity** — a snapshot is a valid partial view at
//!    every prefix of the stream: all counters are monotone
//!    non-decreasing, the clock never runs backwards, and terminal
//!    outcomes never outrun placements plus sheds.
//! 3. **Round-trip** — any prefix snapshot survives its own JSON
//!    encoding unchanged, so what `/status` serves mid-run is exactly
//!    what the fold held.

use dedisp_fleet::{
    BeamOutcome, FaultEvent, FaultPlan, FleetRun, HealthState, ResolvedFleet, Scheduler,
    StatusSnapshot, SurveyLoad, TelemetryEvent,
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

/// The ten outcome and recovery counters plus the per-device facts
/// the report publishes and the snapshot serves.
#[derive(Debug, Clone, PartialEq)]
struct Tally {
    counters: [usize; 10],
    bounces: Vec<usize>,
    health: Vec<HealthState>,
}

/// The reference count: one plain `match` per decoded event, sharing
/// no code with the crate's columnar fold.
fn tally(devices: usize, events: &[TelemetryEvent]) -> Tally {
    let (mut completed, mut degraded, mut misses, mut shed_whole) = (0, 0, 0, 0);
    let (mut shed_trials, mut bounced, mut retries, mut probes) = (0, 0, 0, 0);
    let (mut canaries, mut recoveries) = (0, 0);
    let mut bounces = vec![0; devices];
    let mut health = vec![HealthState::Healthy; devices];
    for event in events {
        match event {
            TelemetryEvent::Beam(r) => match r.outcome {
                BeamOutcome::Completed { .. } => completed += 1,
                BeamOutcome::Degraded { .. } => degraded += 1,
                BeamOutcome::Missed { .. } => misses += 1,
                BeamOutcome::ShedWhole { .. } => shed_whole += 1,
            },
            TelemetryEvent::Shed(s) => shed_trials += s.shed_trials,
            TelemetryEvent::Bounce { device, .. } => {
                bounced += 1;
                bounces[*device] += 1;
            }
            TelemetryEvent::Retry { .. } => retries += 1,
            TelemetryEvent::Probe { .. } => probes += 1,
            TelemetryEvent::Placed { canary: true, .. } => canaries += 1,
            TelemetryEvent::Health(h) => {
                if h.to == HealthState::Healthy {
                    recoveries += 1;
                }
                health[h.device] = h.to;
            }
            _ => {}
        }
    }
    Tally {
        counters: [
            completed,
            degraded,
            misses,
            shed_whole,
            shed_trials,
            bounced,
            retries,
            probes,
            canaries,
            recoveries,
        ],
        bounces,
        health,
    }
}

/// Raw material for one generated fault event, shared with the
/// scheduler proptest suite: `(kind, device, onset, duration, factor,
/// count)`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: the report and the complete-stream snapshot each
    /// equal the reference count — the operator view *is* the ledger.
    #[test]
    fn complete_stream_snapshot_agrees_with_the_report(
        spb in prop::collection::vec(0.05f64..1.5, 1..8),
        trials in 8usize..2048,
        beams in 1usize..24,
        ticks in 1usize..5,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..8,
        ),
    ) {
        let faults = mixed_plan(&events, spb.len());
        let run = run(&spb, trials, beams, ticks, &faults);
        let r = &run.report;
        let snapshot = run.status();
        let reference = tally(spb.len(), &run.log.to_events());

        let from_report = Tally {
            counters: [
                r.completed, r.degraded, r.deadline_misses, r.shed_whole, r.total_shed_trials,
                r.bounced, r.retries, r.probes, r.canaries, r.recoveries,
            ],
            bounces: r.devices.iter().map(|d| d.bounces).collect(),
            health: r.devices.iter().map(|d| d.final_health).collect(),
        };
        let s = &snapshot;
        let from_snapshot = Tally {
            counters: [
                s.completed, s.degraded, s.deadline_misses, s.shed_whole, s.total_shed_trials,
                s.bounced, s.retries, s.probes, s.canaries, s.recoveries,
            ],
            bounces: s.devices.iter().map(|d| d.bounces).collect(),
            health: s.devices.iter().map(|d| d.health).collect(),
        };
        prop_assert_eq!(&from_report, &reference);
        prop_assert_eq!(&from_snapshot, &reference);
        prop_assert_eq!(snapshot.events_folded, run.log.len());
        // Every admitted beam was placed (possibly more than once,
        // counting retries) or shed whole before placement.
        prop_assert!(snapshot.placed >= r.completed + r.degraded + r.deadline_misses);
        prop_assert_eq!(
            snapshot.placed,
            r.completed + r.degraded + r.deadline_misses + r.bounced
        );
        // Every queue drains by the end of the run.
        for live in &snapshot.devices {
            prop_assert_eq!(live.queue_depth, 0, "device {} never drained", live.device);
        }
    }

    /// Property 2: every prefix fold is a coherent partial view — all
    /// counters monotone, clock non-decreasing, outcomes never ahead of
    /// placements plus sheds. This is what makes polling `/status`
    /// mid-run meaningful.
    #[test]
    fn prefix_folds_are_monotone_and_coherent(
        spb in prop::collection::vec(0.05f64..1.2, 1..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..4,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..4.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..6,
        ),
    ) {
        let faults = mixed_plan(&events, spb.len());
        let run = run(&spb, trials, beams, ticks, &faults);
        let devices = run.report.devices.len();

        let counters = |s: &StatusSnapshot| {
            [
                s.placed, s.completed, s.degraded, s.deadline_misses, s.shed_whole,
                s.total_shed_trials, s.bounced, s.retries, s.probes, s.canaries,
                s.recoveries,
            ]
        };
        let mut prev = StatusSnapshot::new(devices);
        let events = run.log.to_events();
        for n in 1..=events.len() {
            let snapshot = StatusSnapshot::from_events(devices, &events[..n]);
            prop_assert_eq!(snapshot.events_folded, n);
            prop_assert!(snapshot.at >= prev.at, "clock ran backwards at event {n}");
            for (now, before) in counters(&snapshot).iter().zip(counters(&prev)) {
                prop_assert!(*now >= before, "counter regressed at event {n}");
            }
            prop_assert!(
                snapshot.completed
                    + snapshot.degraded
                    + snapshot.deadline_misses
                    <= snapshot.placed,
                "outcomes outran placements at event {n}"
            );
            prop_assert!(
                snapshot.shed_whole + snapshot.placed >= snapshot.completed,
                "terminal outcomes appeared from nowhere at event {n}"
            );
            // Queue depths are bounded by outstanding placements.
            let outstanding = snapshot.placed
                - snapshot.completed
                - snapshot.degraded
                - snapshot.deadline_misses
                - snapshot.bounced;
            prop_assert_eq!(
                snapshot.devices.iter().map(|d| d.queue_depth).sum::<usize>(),
                outstanding,
                "queue depths disagree with outstanding work at event {n}"
            );
            prev = snapshot;
        }
    }

    /// Property 3: any prefix snapshot round-trips through its JSON
    /// encoding — mid-run `/status` bodies are lossless.
    #[test]
    fn prefix_snapshots_round_trip_through_json(
        spb in prop::collection::vec(0.05f64..1.2, 1..5),
        beams in 1usize..12,
        prefix_frac in 0.0f64..1.0,
        events in prop::collection::vec(
            (0u8..4, 0usize..16, 0.0f64..3.0, 0.1f64..1.5, 1.2f64..3.5, 1usize..4),
            0..5,
        ),
    ) {
        let faults = mixed_plan(&events, spb.len());
        let run = run(&spb, 256, beams, 3, &faults);
        let devices = run.report.devices.len();
        let events = run.log.to_events();
        let n = ((events.len() as f64) * prefix_frac) as usize;
        let snapshot = StatusSnapshot::from_events(devices, &events[..n]);
        let back = StatusSnapshot::from_json(&snapshot.to_json()).expect("round-trip parses");
        prop_assert_eq!(back, snapshot);
    }
}
