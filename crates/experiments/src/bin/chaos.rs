//! Chaos harness: sweeps fault intensity against the §V-D Apertif
//! fleet and prints the degradation curve.
//!
//! The paper sizes Apertif at ≈50 HD7970s (0.106 s to dedisperse one
//! beam-second of 2,000 trial DMs). This binary runs that fleet at
//! exactly its real-time operating point and injects deterministic
//! fault schedules of growing intensity — killing, flapping, slowing
//! down, and glitching a rising fraction of the devices — then reports
//! how completions degrade into shed tiers, retries, and misses. A
//! final flap-only run demonstrates full recovery: once the outage
//! window closes, probes and canaries re-trust every device and the
//! fleet returns to zero misses.

use dedisp_fleet::{FaultPlan, FleetRun, HealthState, ResolvedFleet, Scheduler, SurveyLoad};
use experiments::scaffold::{headline, MEASURED_SECONDS_PER_BEAM};
use radioastro::SurveySizing;

/// Seconds of observation each scenario simulates.
const TICKS: usize = 6;

/// When the chaos window opens (mid-survey, after steady state).
const ONSET: f64 = 1.5;

/// Builds the intensity-`k` chaos plan: the first `k` devices are
/// impacted, cycling through the four fault kinds so every intensity
/// step mixes permanent, transient, and performance faults. Victim
/// sets are nested (step k+1 faults a superset of step k), so the
/// degradation curve is meaningfully monotone.
fn chaos_plan(victims: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for d in 0..victims {
        plan = match d % 4 {
            0 => plan.with_kill(d, ONSET),
            1 => plan.with_flap(d, ONSET, ONSET + 1.5),
            2 => plan.with_slowdown(d, ONSET, ONSET + 2.0, 2.0),
            _ => plan.with_transient(d, ONSET, 3),
        };
    }
    plan
}

fn run(fleet: &ResolvedFleet, load: &SurveyLoad, faults: &FaultPlan) -> FleetRun {
    Scheduler::session(fleet)
        .load(load)
        .faults(faults)
        .run()
        .expect("chaos run completes")
}

fn main() {
    let sizing = SurveySizing::apertif_survey();
    let load = SurveyLoad::from_sizing(&sizing, TICKS);
    let devices = sizing
        .beams
        .div_ceil((1.0 / MEASURED_SECONDS_PER_BEAM).floor() as usize);
    let fleet = ResolvedFleet::synthetic(sizing.trials, &vec![MEASURED_SECONDS_PER_BEAM; devices]);

    headline(&format!(
        "degradation sweep: {} beams/s on {devices} HD7970s, faults open at t={ONSET} s",
        sizing.beams
    ));
    println!(
        "{:>9} {:>8} {:>9} {:>8} {:>6} {:>8} {:>8} {:>8} {:>10}",
        "intensity",
        "victims",
        "completed",
        "degraded",
        "missed",
        "shed",
        "bounced",
        "retries",
        "recoveries"
    );

    let mut last_impact = 0usize;
    for step in 0..=5 {
        let frac = step as f64 / 10.0;
        let victims = (devices as f64 * frac).round() as usize;
        let faults = chaos_plan(victims);
        let run = run(&fleet, &load, &faults);
        let r = &run.report;
        assert!(r.conservation_ok(), "chaos run lost a beam at {frac}");
        println!(
            "{:>8.0}% {:>8} {:>9} {:>8} {:>6} {:>8} {:>8} {:>8} {:>10}",
            100.0 * frac,
            victims,
            r.completed,
            r.degraded,
            r.deadline_misses,
            r.shed_whole,
            r.bounced,
            r.retries,
            r.recoveries
        );
        // Impact = admitted beams that did not complete clean. Victim
        // sets are nested, so impact must not shrink as intensity
        // grows.
        let impact = r.admitted - r.completed;
        assert!(
            impact >= last_impact,
            "degradation curve regressed: {last_impact} -> {impact} at {frac}"
        );
        last_impact = impact;
        if step == 0 {
            assert_eq!(r.completed, r.admitted, "zero intensity must run clean");
            assert_eq!(r.bounced, 0);
        }
    }
    assert!(last_impact > 0, "the sweep must actually bite at 50%");

    // --- recovery: flap 40% of the fleet, then watch it heal ---------
    let flapped = (devices as f64 * 0.4).round() as usize;
    let up_at = ONSET + 1.5;
    let mut faults = FaultPlan::none();
    for d in 0..flapped {
        faults = faults.with_flap(d, ONSET, up_at);
    }
    headline(&format!(
        "recovery run: flapping {flapped} of {devices} devices over [{ONSET}, {up_at}) s"
    ));
    let run = run(&fleet, &load, &faults);
    let r = &run.report;
    assert!(r.conservation_ok());
    println!(
        "bounced {} | retries {} | probes {} | canaries {} | recoveries {}",
        r.bounced, r.retries, r.probes, r.canaries, r.recoveries
    );

    // Per-tick outcome summary shows the dip and the climb back.
    for tick in 0..TICKS {
        let (mut done, mut deg, mut miss, mut shed) = (0, 0, 0, 0);
        for rec in run.records.iter().filter(|rec| rec.tick == tick) {
            match rec.outcome {
                dedisp_fleet::BeamOutcome::Completed { .. } => done += 1,
                dedisp_fleet::BeamOutcome::Degraded { .. } => deg += 1,
                dedisp_fleet::BeamOutcome::Missed { .. } => miss += 1,
                dedisp_fleet::BeamOutcome::ShedWhole { .. } => shed += 1,
            }
        }
        println!(
            "tick {tick}: completed {done:>3} | degraded {deg:>3} | missed {miss:>3} | shed {shed:>3}"
        );
    }

    // Full recovery: the last tick releases after every flap window
    // has closed and every flapped device has been canaried back, so
    // the fleet is at its §V-D operating point again — zero misses,
    // zero sheds, everything Healthy.
    let last = TICKS - 1;
    let last_records: Vec<_> = run.records.iter().filter(|rec| rec.tick == last).collect();
    assert!(last_records
        .iter()
        .all(|rec| matches!(rec.outcome, dedisp_fleet::BeamOutcome::Completed { .. })));
    assert!(
        r.devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy),
        "every flapped device must be re-trusted by the end"
    );
    assert!(r.recoveries >= flapped, "each flapped device recovers");
    assert!(r.devices.iter().all(|d| d.died_at.is_none()));
    println!(
        "recovered: tick {last} completed {}/{} with all {devices} devices Healthy",
        last_records.len(),
        sizing.beams
    );

    // --- determinism fingerprint -------------------------------------
    // Every field of the report is a function of the inputs alone, so
    // the whole report is printed as JSON and CI runs this binary twice
    // and diffs the two outputs byte-for-byte. (The heading still says
    // "normalized" because stdout is pinned against earlier runs, which
    // zeroed a queue high-water that was 0 already.)
    headline("recovery report, normalized (JSON)");
    println!("{}", r.to_json());
    // `--json` writes the same fingerprint, so scripted runs can diff
    // files instead of scraping stdout.
    experiments::out::write_json_report(r);
}
