//! Per-shard vs coordinated grid admission, head to head.
//!
//! The §V-D fleet sizing assumes load spreads evenly over the devices;
//! a real grid front-end can be skewed by its routing policy. This
//! binary runs the same survey through both [`GridAdmission`] modes and
//! shows what the coordinated controller buys:
//!
//! * **Skewed load** — static-hash routing piles half of each tick on
//!   a one-device shard. Per-shard admission sheds that shard to the
//!   floor and still misses deadlines; the coordinated planner reroutes
//!   by remaining headroom and picks one fleet-wide shed level, and the
//!   misses disappear.
//! * **Whole-shard kill** — when a shard dies outright, the planner's
//!   Pareto rule keeps it from making anything worse: the survivors
//!   behave exactly as they would under per-shard admission.

use dedisp_fleet::{
    Grid, GridAdmission, GridFaultPlan, GridReport, GridRun, ResolvedFleet, SurveyLoad,
    TelemetryEvent,
};
use experiments::scaffold::{headline, MEASURED_SECONDS_PER_BEAM};
use serde::Serialize;

/// The machine-readable artifact `--json` writes: both scenarios,
/// both admission modes.
#[derive(Serialize)]
struct AdmissionComparison {
    /// Skewed-load scenario, per-shard admission.
    skewed_per_shard: GridReport,
    /// Skewed-load scenario, coordinated admission.
    skewed_coordinated: GridReport,
    /// Whole-shard-kill scenario, per-shard admission.
    kill_per_shard: GridReport,
    /// Whole-shard-kill scenario, coordinated admission.
    kill_coordinated: GridReport,
}

/// Trial DMs per beam (the paper's Apertif instance).
const TRIALS: usize = 2000;

/// Seconds of observation each scenario simulates.
const TICKS: usize = 4;

fn run(
    shards: &[ResolvedFleet],
    load: &SurveyLoad,
    faults: &GridFaultPlan,
    admission: GridAdmission,
) -> GridRun {
    Grid::session(shards)
        .admission(admission)
        .load(load)
        .faults(faults)
        .run()
        .expect("admission comparison run completes")
}

fn worst_shard_misses(run: &GridRun) -> usize {
    run.report
        .shards
        .iter()
        .map(|s| s.deadline_misses)
        .max()
        .unwrap_or(0)
}

fn summarize(label: &str, run: &GridRun) {
    let r = &run.report;
    println!(
        "{label:>12}: completed {:>3} | degraded {:>3} | missed {:>2} | shed whole {:>2} \
         | shed DMs {:>6} | rebalanced {:>2}",
        r.completed, r.degraded, r.deadline_misses, r.shed_whole, r.total_shed_trials, r.rehomed
    );
    for (s, shard) in r.shards.iter().enumerate() {
        println!(
            "{:>14} shard {s}: {} devices, missed {:>2}, shed {:>6} trial DMs",
            "",
            shard.devices.len(),
            shard.deadline_misses,
            shard.total_shed_trials
        );
    }
    assert!(r.conservation_ok(), "{label}: merged ledger must conserve");
}

fn main() {
    // --- Scenario 1: skewed load -------------------------------------
    // Shard 0 is one HD7970 (~9 beams/s); shard 1 is eight. Static-hash
    // routing splits every tick down the middle regardless, so shard 0
    // sees more than twice what it can sustain.
    let skewed = vec![
        ResolvedFleet::synthetic(TRIALS, &[MEASURED_SECONDS_PER_BEAM]),
        ResolvedFleet::synthetic(TRIALS, &[MEASURED_SECONDS_PER_BEAM; 8]),
    ];
    let load = SurveyLoad::custom(TRIALS, 40, TICKS);
    headline("skewed load: 40 beams/s static-hashed onto a 1-device and an 8-device shard");
    let none = GridFaultPlan::none();
    let per_shard = run(&skewed, &load, &none, GridAdmission::PerShard);
    let coordinated = run(&skewed, &load, &none, GridAdmission::Coordinated);
    summarize("per-shard", &per_shard);
    summarize("coordinated", &coordinated);

    assert!(
        per_shard.report.deadline_misses > 0,
        "the skew must actually hurt per-shard admission"
    );
    assert!(
        worst_shard_misses(&coordinated) < worst_shard_misses(&per_shard),
        "coordination must strictly reduce the worst shard's miss count"
    );
    assert!(
        coordinated.report.total_shed_trials <= per_shard.report.total_shed_trials,
        "the Pareto rule never trades misses for extra shedding"
    );
    let rebalances = coordinated
        .events
        .iter()
        .filter(|e| e.shard.is_none() && matches!(e.event, TelemetryEvent::Rebalance { .. }))
        .count();
    println!(
        "\ncoordination moved {rebalances} beams off the overloaded shard \
         (worst-shard misses {} -> {})",
        worst_shard_misses(&per_shard),
        worst_shard_misses(&coordinated)
    );

    // The telemetry stream doubles as the operator view: fold each
    // shard's stream into a point-in-time snapshot.
    for (s, snapshot) in coordinated.status_snapshots().iter().enumerate() {
        println!(
            "  shard {s} snapshot: {} events folded, kept {:?} trial DMs in force, \
             all queues drained: {}",
            snapshot.events_folded,
            snapshot.kept_trials_in_force,
            snapshot.devices.iter().all(|d| d.queue_depth == 0)
        );
    }

    let skewed_per_shard = per_shard.report.clone();
    let skewed_coordinated = coordinated.report.clone();

    // --- Scenario 2: whole-shard kill --------------------------------
    // Two equal shards; shard 0 dies whole mid-survey. The planner is
    // fault-blind by design (runtime faults are the shard's business),
    // but its Pareto rule means coordination can never make the
    // surviving shard worse than per-shard admission would.
    let equal = vec![
        ResolvedFleet::synthetic(TRIALS, &[MEASURED_SECONDS_PER_BEAM; 3]),
        ResolvedFleet::synthetic(TRIALS, &[MEASURED_SECONDS_PER_BEAM; 3]),
    ];
    let kill = GridFaultPlan::none().with_shard_kill(0, 1.5);
    headline("whole-shard kill: 2 x 3 devices, shard 0 dies at t=1.5 s");
    let per_shard = run(&equal, &load, &kill, GridAdmission::PerShard);
    let coordinated = run(&equal, &load, &kill, GridAdmission::Coordinated);
    summarize("per-shard", &per_shard);
    summarize("coordinated", &coordinated);
    assert!(
        coordinated.report.deadline_misses <= per_shard.report.deadline_misses,
        "coordination never adds misses to a dying grid"
    );
    assert!(
        coordinated.report.shed_whole == per_shard.report.shed_whole,
        "in-flight loss at the kill is the shard's own business in both modes"
    );
    println!(
        "\nboth modes conserve every one of the {} admitted beams; coordination \
         is a strict win under skew and a no-op tax under catastrophe",
        coordinated.report.admitted
    );
    experiments::out::write_json_report(&AdmissionComparison {
        skewed_per_shard,
        skewed_coordinated,
        kill_per_shard: per_shard.report,
        kill_coordinated: coordinated.report,
    });
}
