//! Replays the Section V-D Apertif deployment as a *sharded grid*: the
//! paper's "≈50 HD7970s sustain real time" estimate, split across 4
//! cooperating schedulers of 13 measured-rate devices each, run
//! end-to-end through the dedisp-fleet grid layer — healthy, then with
//! a whole shard killed mid-survey under both rebalance policies.

use autotune::{ConfigSpace, TuningDatabase};
use dedisp_fleet::{
    FleetSpec, Grid, GridFaultPlan, GridRun, RebalancePolicy, ResolvedFleet, SurveyLoad,
};
use experiments::scaffold::{headline, MEASURED_SECONDS_PER_BEAM};
use manycore_sim::amd_hd7970;
use radioastro::{RealtimeCheck, SurveySizing};

/// Seconds of observation each scenario simulates.
const TICKS: usize = 5;

/// Shards in the grid.
const SHARDS: usize = 4;

/// HD7970s per shard: 4 x 13 = 52 devices, one rack over the quoted 50.
const DEVICES_PER_SHARD: usize = 13;

/// When the whole of shard 0 dies in the fault scenarios.
const SHARD_KILL_AT: f64 = 1.5;

fn summarize(run: &GridRun) {
    let r = &run.report;
    println!(
        "{} shards / {} devices | {} beam-seconds admitted over {} ticks [{:?}]",
        r.shards.len(),
        r.devices_total(),
        r.admitted,
        r.ticks,
        r.policy
    );
    println!(
        "completed {} | degraded {} | deadline misses {} | shed whole {} | rehomed {}",
        r.completed, r.degraded, r.deadline_misses, r.shed_whole, r.rehomed
    );
    for (s, shard) in r.shards.iter().enumerate() {
        println!(
            "  shard {s}: admitted {:3} completed {:3} degraded {:3} missed {:2} shed {:3}",
            shard.admitted,
            shard.completed,
            shard.degraded,
            shard.deadline_misses,
            shard.shed_whole
        );
    }
    println!(
        "shed records {} ({} trial DMs) | conserved across shards: {}",
        r.sheds.len(),
        r.total_shed_trials,
        r.conservation_ok()
    );
}

fn main() {
    let sizing = SurveySizing::apertif_survey();
    let load = SurveyLoad::from_sizing(&sizing, TICKS);
    let mut db = TuningDatabase::new();
    let space = ConfigSpace::paper();

    // The measured sustained rate, expressed as the GFLOP/s a device
    // must hold for the instance so that one beam-second costs 0.106 s.
    let check = RealtimeCheck::for_setup(&sizing.setup, sizing.trials);
    let measured_gflops = check.required_gflops / MEASURED_SECONDS_PER_BEAM;

    // Each shard is its own independently resolved fleet; the measured
    // rate bypasses the tuner entirely (RateSource::Measured).
    let shards: Vec<ResolvedFleet> = (0..SHARDS)
        .map(|_| {
            FleetSpec::new()
                .with_measured_group(amd_hd7970(), DEVICES_PER_SHARD, measured_gflops)
                .resolve(&mut db, &sizing.setup, sizing.trials, &space)
                .expect("measured shard resolves without tuning")
        })
        .collect();
    assert_eq!(db.len(), 0, "measured rates never touch the tuner");
    let per_shard = shards[0].beams_capacity();
    println!(
        "grid: {SHARDS} shards x {DEVICES_PER_SHARD} HD7970s at \
         {MEASURED_SECONDS_PER_BEAM} s/beam ({measured_gflops:.1} GFLOP/s measured)"
    );
    println!(
        "capacity {} beams/s per shard, {} grid-wide vs {} offered",
        per_shard,
        per_shard * SHARDS,
        sizing.beams
    );

    // --- Scenario 1: healthy grid ------------------------------------
    headline("healthy grid, static-hash routing");
    let run = Grid::session(&shards)
        .load(&load)
        .run()
        .expect("healthy grid runs");
    summarize(&run);
    assert_eq!(run.report.deadline_misses, 0, "4 x 13 GPUs keep up");
    assert_eq!(run.report.completed, run.report.admitted);
    assert!(run.report.conservation_ok());

    // --- Scenario 2: one whole shard dies mid-survey -----------------
    let faults = GridFaultPlan::none().with_shard_kill(0, SHARD_KILL_AT);
    headline(&format!(
        "shard 0 ({DEVICES_PER_SHARD} devices) killed whole at t={SHARD_KILL_AT} s, static-hash"
    ));
    let killed = Grid::session(&shards)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("shard-kill run completes");
    summarize(&killed);
    assert!(
        killed.report.conservation_ok(),
        "every admitted beam appears once in the merged ledger - no silent loss"
    );
    assert_eq!(
        killed.records.len(),
        killed.report.admitted,
        "global ledger reports every admitted beam"
    );
    assert!(
        killed.report.rehomed > 0,
        "survivors absorb shard 0's share"
    );

    // --- Scenario 3: same failure, load-aware rebalancing ------------
    headline(&format!(
        "shard 0 killed whole at t={SHARD_KILL_AT} s, load-aware rebalancing"
    ));
    let balanced = Grid::session(&shards)
        .policy(RebalancePolicy::LoadAware)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("load-aware shard-kill run completes");
    summarize(&balanced);
    assert!(balanced.report.conservation_ok());
    println!(
        "\nstatic-hash piles the dead shard's beams on one survivor \
         ({} trial DMs shed); load-aware spreads them ({} shed)",
        killed.report.total_shed_trials, balanced.report.total_shed_trials
    );
    assert!(
        balanced.report.total_shed_trials <= killed.report.total_shed_trials,
        "spreading the handoff can only reduce shedding"
    );

    println!("\n--- shard-kill report, load-aware (JSON) ---");
    println!("{}", balanced.report.to_json());
    experiments::out::write_json_report(&balanced.report);
}
