//! The fleet's one telemetry seam, seen from the tier-1 gate.
//!
//! `cargo test -q` runs only the root package, so the fleet crate's own
//! suites are invisible to it. These two tests drive the batch-only
//! observer seam end to end — a §V-D-shaped scheduler session under the
//! full serial sink stack, and a two-shard grid under the shared one —
//! and hold it to the invariants everything downstream trusts:
//! conservation, observation that never perturbs the report, a live
//! fold equal to the post-run fold, a recorder that saw every event,
//! and report counters equal to the dispatcher's own beam ledger, which
//! the stream fold never touches.

use dedisp_fleet::obs::{
    Fanout, FlightRecorder, GridFanout, GridRegistry, LiveGrid, LiveStatus, MetricsRegistry,
    RegistryObserver,
};
use dedisp_fleet::{
    BeamOutcome, FaultPlan, Grid, GridFaultPlan, GridObserver, ResolvedFleet, Scheduler,
    SurveyLoad, TelemetryEvent,
};

/// Trial DMs per beam: the Apertif survey's.
const TRIALS: usize = 2_000;

/// Terminal outcomes counted off a beam ledger: completed, degraded,
/// deadline misses, shed whole.
fn outcomes(ledger: impl IntoIterator<Item = BeamOutcome>) -> [usize; 4] {
    let mut counts = [0; 4];
    for outcome in ledger {
        counts[match outcome {
            BeamOutcome::Completed { .. } => 0,
            BeamOutcome::Degraded { .. } => 1,
            BeamOutcome::Missed { .. } => 2,
            BeamOutcome::ShedWhole { .. } => 3,
        }] += 1;
    }
    counts
}

#[test]
fn a_session_under_the_full_sink_stack_conserves_and_is_unperturbed() {
    // §V-D's shape: a fleet at 90 % of its real-time capacity loses a
    // tenth of its devices mid-survey.
    let fleet = ResolvedFleet::synthetic(TRIALS, &[0.1; 20]);
    let load = SurveyLoad::custom(TRIALS, fleet.beams_capacity() * 9 / 10, 4);
    let faults = FaultPlan::kill_fraction(fleet.len(), 0.10, 1.5);
    let session = || Scheduler::session(&fleet).load(&load).faults(&faults);

    let registry = MetricsRegistry::new();
    let mut metrics = RegistryObserver::new(&registry, fleet.len());
    let mut recorder = FlightRecorder::new(1 << 16);
    let mut live = LiveStatus::new(fleet.len());
    let mut stack = Fanout::new()
        .with(&mut metrics)
        .with(&mut recorder)
        .with(&mut live);
    let observed = session().run_with(&mut stack).expect("observed run");
    let plain = session().run().expect("unobserved run");

    assert!(observed.report.conservation_ok());
    assert!(observed.report.bounced > 0, "the kill must be felt");
    assert_eq!(observed.report, plain.report);
    assert_eq!(observed.log, plain.log);
    let r = &observed.report;
    assert_eq!(
        outcomes(observed.records.iter().map(|b| b.outcome)),
        [r.completed, r.degraded, r.deadline_misses, r.shed_whole]
    );
    assert_eq!(live.snapshot(), observed.status());
    assert_eq!(recorder.recorded() as usize, observed.log.len());
    assert_eq!(recorder.dropped(), 0);
    let beams = format!("fleet_events_total{{kind=\"beam\"}} {}", load.total_beams());
    assert!(registry.render_prometheus().contains(&beams));
}

#[test]
fn a_grid_under_the_shared_sink_stack_conserves_and_is_unperturbed() {
    let shards = vec![
        ResolvedFleet::synthetic(TRIALS, &[0.1; 6]),
        ResolvedFleet::synthetic(TRIALS, &[0.1; 6]),
    ];
    let capacity: usize = shards.iter().map(ResolvedFleet::beams_capacity).sum();
    let load = SurveyLoad::custom(TRIALS, capacity * 9 / 10, 4);
    // A whole-shard flap forces re-homing, so the shard-less rebalance
    // prelude is part of the stream.
    let faults = GridFaultPlan::none().with_shard_flap(0, 0.25, 1.9);
    let session = || Grid::session(&shards).load(&load).faults(&faults);

    let registry = MetricsRegistry::new();
    let metrics = GridRegistry::new(&registry, &[6, 6]);
    let recorder = FlightRecorder::new(1 << 16);
    let live = LiveGrid::new(&[6, 6]);
    let sinks: [&dyn GridObserver; 3] = [&metrics, &recorder, &live];
    let observed = session()
        .run_with(&GridFanout::new(&sinks))
        .expect("observed grid run");
    let plain = session().run().expect("unobserved grid run");

    assert!(observed.report.conservation_ok());
    assert!(observed.report.rehomed > 0, "the flap must re-home beams");
    assert_eq!(observed.report, plain.report);
    assert_eq!(observed.events, plain.events);
    let r = &observed.report;
    assert_eq!(
        outcomes(observed.records.iter().map(|b| b.outcome)),
        [r.completed, r.degraded, r.deadline_misses, r.shed_whole]
    );
    assert_eq!(recorder.recorded() as usize, observed.events.len());
    assert_eq!(recorder.dropped(), 0);
    for (s, post) in observed.status_snapshots().iter().enumerate() {
        assert_eq!(live.shard_snapshot(s).as_ref(), Some(post));
    }
    let rebalances = observed
        .events
        .iter()
        .filter(|e| matches!(e.event, TelemetryEvent::Rebalance { .. }))
        .count();
    assert_eq!(rebalances, observed.report.rehomed);
    assert_eq!(live.snapshot().rebalances, rebalances);
    let counted = format!("fleet_grid_rebalances_total {rebalances}");
    assert!(registry.render_prometheus().contains(&counted));
}
