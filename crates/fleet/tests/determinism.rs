//! Run-to-run determinism and legacy (kill-only) equivalence.
//!
//! The dispatcher is the only thread of a session: each device is a
//! value it calls, and it handles a verdict before it places the next
//! beam. The *report* is therefore a pure function of
//! `(fleet, load, plan, config)`, and these tests pin that contract: a
//! faulted report repeats field for field, with nothing normalized
//! away.
//!
//! Historical note: the pre-health-machine scheduler drained its event
//! channel opportunistically (`try_recv` racing per-device worker
//! threads), and was *not* deterministic — repeated runs of the §V-D
//! experiment binaries moved headline counts by ±1 beam and shuffled
//! per-device `beams_done`/`busy_s` between near-tied devices. Lockstep
//! observation removed that jitter and reproduces that scheduler's
//! *modal* ledger (aggregates, itemized sheds, makespan) for kill-only
//! plans; it also left the threads nothing to do concurrently, which is
//! why they are gone (DESIGN.md §21).

use dedisp_fleet::{
    FaultPlan, FleetRun, HealthState, ResolvedFleet, Scheduler, ShedReason, SurveyLoad,
};

fn faulted_run() -> FleetRun {
    // Every fault kind at once, over a fleet small enough to stress
    // re-placement: kill, flap, slowdown, and a transient glitch.
    let fleet = ResolvedFleet::synthetic(512, &[0.08, 0.1, 0.12, 0.1, 0.09]);
    let load = SurveyLoad::custom(512, 12, 6);
    let faults = FaultPlan::none()
        .with_kill(0, 1.2)
        .with_flap(1, 0.4, 1.7)
        .with_slowdown(2, 0.0, 2.5, 2.5)
        .with_transient(3, 0.3, 2)
        .with_transient(3, 2.3, 1);
    Scheduler::session(&fleet)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs")
}

/// Every field of a faulted report — aggregates, recovery ledger,
/// health transitions, itemized sheds, per-device stats, makespan — and
/// the full beam ledger are identical across repeated runs.
#[test]
fn a_faulted_report_repeats_field_for_field() {
    let first = faulted_run();
    for attempt in 0..4 {
        let next = faulted_run();
        assert_eq!(
            next.report, first.report,
            "faulted report diverged on repeat run {attempt}"
        );
        assert_eq!(
            next.records, first.records,
            "beam ledger diverged on repeat run {attempt}"
        );
    }
}

/// With an all-`Kill` plan the new machinery reproduces the old
/// kill-only scheduler's contract exactly: no probation/canary cycle
/// ever engages (kills are permanent, probes never succeed), no retry
/// budget is exhausted for kill chains shorter than the budget, every
/// whole-beam shed is a loud `NoAliveDevices`, and `died_at` mirrors
/// the plan. This is the guard that the richer fault taxonomy did not
/// change behavior for the plans that existed before it.
#[test]
fn all_kill_plans_reproduce_the_legacy_contract() {
    let fleet = ResolvedFleet::synthetic(512, &[0.1; 6]);
    let load = SurveyLoad::custom(512, 20, 5);
    let faults = FaultPlan::none()
        .with_kill(0, 0.5)
        .with_kill(2, 1.5)
        .with_kill(5, 2.25);
    let run = Scheduler::session(&fleet)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs");
    let r = &run.report;

    assert!(r.conservation_ok());
    // Kills never recover: no canaries, no probation, no transitions
    // back to Healthy.
    assert_eq!(r.canaries, 0);
    assert_eq!(r.recoveries, 0);
    assert!(r
        .health_events
        .iter()
        .all(|e| !matches!(e.to, HealthState::Probation | HealthState::Healthy)));
    // A 3-victim chain sits far under the retry budget, so every
    // whole-beam shed is the legacy loud "no alive devices" — never a
    // quiet budget exhaustion.
    assert_eq!(r.retry_exhausted, 0);
    assert!(r
        .sheds
        .iter()
        .filter(|s| s.kept_trials == 0)
        .all(|s| s.reason == ShedReason::NoAliveDevices));
    // died_at mirrors the plan, per device.
    for d in &r.devices {
        assert_eq!(d.died_at, faults.kill_time(d.id));
    }
    // Killed devices end distrusted; untouched survivors stay Healthy.
    for d in &r.devices {
        if faults.kill_time(d.id).is_some() {
            assert_ne!(d.final_health, HealthState::Healthy, "device {}", d.id);
        } else {
            assert_eq!(d.final_health, HealthState::Healthy, "device {}", d.id);
        }
    }
    // And the run is still deterministic, records and all.
    let again = Scheduler::session(&fleet)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs");
    assert_eq!(&again.report, r);
    assert_eq!(again.records, run.records);
}
