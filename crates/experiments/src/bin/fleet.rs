//! Replays the Section V-D Apertif survey sizing as an *operating*
//! fleet: the paper's "≈50 HD7970s sustain real time" estimate is run
//! end-to-end through the dedisp-fleet scheduler, then stressed with a
//! heterogeneous fleet and a fault run killing 10% of the devices.

use autotune::{ConfigSpace, TuningDatabase};
use dedisp_fleet::{FaultPlan, FleetRun, FleetSpec, ResolvedFleet, Scheduler, SurveyLoad};
use experiments::scaffold::{headline, MEASURED_SECONDS_PER_BEAM};
use manycore_sim::{amd_hd7970, nvidia_gtx_titan, nvidia_k20};
use radioastro::SurveySizing;

/// Seconds of observation each scenario simulates.
const TICKS: usize = 5;

fn summarize(run: &FleetRun) {
    let r = &run.report;
    println!(
        "{} devices | {} beams x {} ticks = {} beam-seconds admitted",
        r.devices.len(),
        r.beams,
        r.ticks,
        r.admitted
    );
    println!(
        "completed {} | degraded {} | deadline misses {} | shed whole {}",
        r.completed, r.degraded, r.deadline_misses, r.shed_whole
    );
    println!(
        "shed records {} ({} trial DMs) | mean surviving utilization {:5.1}% | conserved: {}",
        r.sheds.len(),
        r.total_shed_trials,
        100.0 * r.mean_surviving_utilization(),
        r.conservation_ok()
    );
}

fn main() {
    let sizing = SurveySizing::apertif_survey();
    let load = SurveyLoad::from_sizing(&sizing, TICKS);
    let mut db = TuningDatabase::new();
    let space = ConfigSpace::paper();

    // --- Scenario 1: the paper's measured sustained rate -------------
    // 0.106 s/beam => 9 beams per device => ceil(450 / 9) = 50 devices.
    let quoted = sizing
        .beams
        .div_ceil((1.0 / MEASURED_SECONDS_PER_BEAM).floor() as usize);
    headline(&format!(
        "S-V-D replay, measured rate: {quoted} HD7970s at {MEASURED_SECONDS_PER_BEAM} s/beam"
    ));
    let measured =
        ResolvedFleet::synthetic(sizing.trials, &vec![MEASURED_SECONDS_PER_BEAM; quoted]);
    let run = Scheduler::session(&measured)
        .load(&load)
        .run()
        .expect("measured fleet runs");
    summarize(&run);
    assert_eq!(run.report.deadline_misses, 0, "the paper's 50 GPUs keep up");
    assert_eq!(run.report.completed, run.report.admitted);

    // --- Scenario 2: the analytic model's own sizing -----------------
    let model_gflops = {
        let fleet = FleetSpec::homogeneous(amd_hd7970(), 1)
            .resolve(&mut db, &sizing.setup, sizing.trials, &space)
            .expect("HD7970 resolves");
        fleet.devices[0].gflops
    };
    let model_count = sizing.devices_needed(model_gflops);
    headline(&format!(
        "S-V-D replay, model rate: {model_count} HD7970s at {model_gflops:.1} GFLOP/s"
    ));
    let model_fleet = FleetSpec::homogeneous(amd_hd7970(), model_count)
        .resolve(&mut db, &sizing.setup, sizing.trials, &space)
        .expect("model fleet resolves");
    let run = Scheduler::session(&model_fleet)
        .load(&load)
        .run()
        .expect("model fleet runs");
    summarize(&run);
    assert_eq!(run.report.deadline_misses, 0, "model-sized fleet keeps up");

    // --- Scenario 3: heterogeneous fleet -----------------------------
    // Mix in the NVIDIA cards of Table I until capacity covers Apertif.
    let mut hetero = FleetSpec::new()
        .with_group(amd_hd7970(), 30)
        .with_group(nvidia_gtx_titan(), 30)
        .with_group(nvidia_k20(), 30)
        .resolve(&mut db, &sizing.setup, sizing.trials, &space)
        .expect("heterogeneous fleet resolves");
    while hetero.beams_capacity() < sizing.beams {
        // Top up with HD7970s if 90 mixed cards fall short.
        let extra = hetero.len() / 10;
        hetero = FleetSpec::new()
            .with_group(amd_hd7970(), 30 + extra)
            .with_group(nvidia_gtx_titan(), 30)
            .with_group(nvidia_k20(), 30)
            .resolve(&mut db, &sizing.setup, sizing.trials, &space)
            .expect("heterogeneous fleet resolves");
    }
    headline(&format!(
        "heterogeneous fleet: {} devices, capacity {} beams/s",
        hetero.len(),
        hetero.beams_capacity()
    ));
    let run = Scheduler::session(&hetero)
        .load(&load)
        .run()
        .expect("heterogeneous fleet runs");
    summarize(&run);
    assert_eq!(run.report.deadline_misses, 0, "mixed fleet keeps up");

    // --- Scenario 4: fault run, 10% of devices die mid-survey --------
    let faults = FaultPlan::kill_fraction(measured.len(), 0.10, 1.5);
    headline(&format!(
        "fault run: killing {} of {} devices at t=1.5 s",
        faults.len(),
        measured.len()
    ));
    let run = Scheduler::session(&measured)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("fault run completes");
    summarize(&run);
    assert!(
        run.report.conservation_ok(),
        "every beam finished or reported shed - no silent loss"
    );
    println!("\n--- fault-run report (JSON) ---");
    println!("{}", run.report.to_json());
    experiments::out::write_json_report(&run.report);
}
