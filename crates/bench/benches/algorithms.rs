//! Algorithm-ladder admission: what the extra planning costs and what
//! it buys.
//!
//! The [`AlgorithmLadder`] policy simulates the dispatcher's placement
//! cascade once per candidate demotion step, every tick — strictly
//! more per-tick work than [`PerDeviceGreedy`]'s ladder walk. This
//! bench prices that on a bursty over-capacity workload where the
//! ladder actually switches, and gates two properties with its own
//! tolerances (the fleet baseline `BENCH_fleet.json` is untouched):
//!
//! 1. **Planning cost (gated, `planner_us_per_tick`)** — wall-clock of
//!    the identical run under ladder-on less ladder-off, per tick: what
//!    one tick's cascade simulations cost. (As a share of the
//!    ladder-off run — the gate while that run was 70 ms of thread
//!    handoffs — the same 0.3 ms reads as +100 % of a 0.3 ms run; the
//!    percentage is recorded and no longer gated.)
//! 2. **Science outcome (gated, exact)** — the ladder run sheds
//!    strictly fewer trial DMs than the greedy baseline and misses no
//!    more deadlines: the Pareto rule, re-checked on the benched
//!    workload itself.
//!
//! `main` is hand-rolled: the CI job wants `--json <out>` (and must
//! tolerate the `--bench` flag cargo passes).

use bench::time_paired;
use dedisp_fleet::{
    Algorithm, AlgorithmLadder, FleetRun, LoadSource, PerDeviceGreedy, ResolvedFleet, Scheduler,
    TelemetryEvent,
};
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;

/// Devices in the benched fleet.
const DEVICES: usize = 16;

/// Trial DMs per beam (the paper's Apertif instance).
const TRIALS: usize = 2000;

/// Ticks in the bursty horizon.
const TICKS: usize = 12;

/// Alternating ladder-off / ladder-on runs (medians reported).
const REPS: usize = 201;

/// Ceiling on `planner_us_per_tick`. EXPERIMENTS.md has the runs it
/// was set from: above their spread, under twice their median, and
/// under what a ladder that plans every tick twice reads.
const PLANNER_US_PER_TICK_CEILING: f64 = 40.0;

/// Calm/burst alternating load: calm inside brute-force capacity,
/// bursts ~60% over it (and inside the demoted fleet's capacity).
struct BurstyLoad;

impl LoadSource for BurstyLoad {
    fn setup(&self) -> &str {
        "bench-bursty"
    }

    fn trials(&self) -> usize {
        TRIALS
    }

    fn ticks(&self) -> usize {
        TICKS
    }

    fn beams_at(&self, tick: usize) -> usize {
        if tick.is_multiple_of(2) {
            80
        } else {
            240
        }
    }

    fn release(&self, tick: usize) -> f64 {
        tick as f64
    }

    fn deadline(&self, tick: usize) -> f64 {
        tick as f64 + 1.0
    }
}

fn fleet() -> ResolvedFleet {
    let table: &[(Algorithm, f64)] = &[
        (Algorithm::BruteForce, 0.106),
        (Algorithm::Subband { factor: 32 }, 0.053),
    ];
    ResolvedFleet::synthetic_with_algorithms(TRIALS, &[table; DEVICES])
}

fn run(fleet: &ResolvedFleet, ladder: bool) -> FleetRun {
    let load = BurstyLoad;
    let session = Scheduler::session(black_box(fleet)).load(&load);
    let session = if ladder {
        session.policy(&AlgorithmLadder)
    } else {
        session.policy(&PerDeviceGreedy)
    };
    let run = session.run().expect("bench run completes");
    assert!(run.report.conservation_ok());
    run
}

/// The recorded artifact (`--json`); gated on its own tolerances, not
/// against `BENCH_fleet.json`.
#[derive(Debug, Serialize)]
struct Results {
    schema: String,
    devices: usize,
    ticks: usize,
    ladder_off_secs: f64,
    ladder_on_secs: f64,
    /// Gated: ladder-on less ladder-off wall time, per tick.
    planner_us_per_tick: f64,
    /// Recorded: the same delta as a share of the ladder-off run.
    planner_overhead_pct: f64,
    baseline_shed_trials: usize,
    ladder_shed_trials: usize,
    baseline_misses: usize,
    ladder_misses: usize,
    algorithm_switches: usize,
}

fn main() -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // cargo bench passes --bench; nothing else to select here.
        if arg == "--json" {
            json_out = args.next();
        }
    }

    let rated = fleet();
    eprintln!("algorithms-bench: ladder-off vs ladder-on ({REPS} alternating pairs) ...");
    let timed = time_paired(
        REPS,
        || run(&rated, false).log.len(),
        || run(&rated, true).log.len(),
    );

    // One checked run per policy for the science outcome.
    let baseline = run(&rated, false);
    let ladder = run(&rated, true);
    let switches = ladder
        .log
        .iter()
        .filter(|e| matches!(e, TelemetryEvent::AlgorithmSwitch { .. }))
        .count();

    let results = Results {
        schema: "dedisp-bench-algorithms-v2".to_string(),
        devices: DEVICES,
        ticks: TICKS,
        ladder_off_secs: timed.base_secs,
        ladder_on_secs: timed.with_secs,
        planner_us_per_tick: timed.delta_secs / TICKS as f64 * 1e6,
        planner_overhead_pct: timed.delta_secs / timed.base_secs * 100.0,
        baseline_shed_trials: baseline.report.total_shed_trials,
        ladder_shed_trials: ladder.report.total_shed_trials,
        baseline_misses: baseline.report.deadline_misses,
        ladder_misses: ladder.report.deadline_misses,
        algorithm_switches: switches,
    };

    println!(
        "algorithm ladder on {} devices x {} ticks (bursty 80/240 beams):",
        results.devices, results.ticks
    );
    println!(
        "  ladder-off {:.2} ms | ladder-on {:.2} ms -> {:.1} us of planning per tick \
         (ceiling {:.0}), {:+.0}% of the ladder-off run",
        results.ladder_off_secs * 1e3,
        results.ladder_on_secs * 1e3,
        results.planner_us_per_tick,
        PLANNER_US_PER_TICK_CEILING,
        results.planner_overhead_pct
    );
    println!(
        "  shed trial DMs {} -> {} | misses {} -> {} | {} switches",
        results.baseline_shed_trials,
        results.ladder_shed_trials,
        results.baseline_misses,
        results.ladder_misses,
        results.algorithm_switches
    );

    if let Some(path) = &json_out {
        let body = serde_json::to_string_pretty(&results).expect("report serializes");
        if let Err(err) = std::fs::write(path, body + "\n") {
            eprintln!("algorithms-bench: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let mut failures = Vec::new();
    if results.planner_us_per_tick > PLANNER_US_PER_TICK_CEILING {
        failures.push(format!(
            "planner_us_per_tick {:.1} exceeds the {PLANNER_US_PER_TICK_CEILING:.0} us ceiling",
            results.planner_us_per_tick
        ));
    }
    if results.ladder_shed_trials >= results.baseline_shed_trials {
        failures.push(format!(
            "ladder shed {} trial DMs, not strictly fewer than the baseline's {}",
            results.ladder_shed_trials, results.baseline_shed_trials
        ));
    }
    if results.ladder_misses > results.baseline_misses {
        failures.push(format!(
            "ladder missed {} deadlines vs the baseline's {} — the Pareto rule broke",
            results.ladder_misses, results.baseline_misses
        ));
    }
    if results.algorithm_switches == 0 {
        failures.push("the bursty workload triggered no algorithm switches".to_string());
    }

    if failures.is_empty() {
        println!("gate: PASS");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("gate: FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}
