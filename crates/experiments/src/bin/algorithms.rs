//! Algorithm switching vs tier shedding under a bursty Apertif load.
//!
//! §V-D sizes the Apertif survey for brute-force dedispersion only: a
//! device that falls behind has exactly one lever, shedding trailing
//! DM tiers. The algorithm-aware rate plane adds a second lever — run
//! the same beams through a cheaper algorithm (two-stage subband) at a
//! bounded, *documented* accuracy cost instead of silently discarding
//! the top of the DM range.
//!
//! This binary puts both policies on the same bursty over-capacity
//! load: calm ticks the brute-force fleet absorbs at full resolution,
//! burst ticks that exceed it by ~60%. The baseline
//! (`PerDeviceGreedy`) sheds DM tiers on every burst; the
//! `AlgorithmLadder` demotes devices to the subband table entry for
//! the burst and promotes them back when the load calms. The run
//! self-asserts the headline claim: the ladder converts at least half
//! of the baseline's shed trial DMs into demotions while adding zero
//! deadline misses.

use dedisp_fleet::{
    Algorithm, AlgorithmLadder, FleetReport, FleetRun, LoadSource, ResolvedFleet, Scheduler,
    StatusSnapshot, TelemetryEvent,
};
use serde::Serialize;

/// The paper's measured HD7970 brute-force rate (Section V-D).
const SPB_BRUTE: f64 = 0.106;

/// Modeled subband rate: the two-stage scheme at stride 32 does ~6% of
/// the brute-force flop at Apertif scale; the declared rate keeps a
/// conservative 2x to cover its worse arithmetic intensity.
const SPB_SUBBAND: f64 = 0.053;

/// Trial DMs per beam (the paper's Apertif instance).
const TRIALS: usize = 2000;

/// Devices in the fleet.
const DEVICES: usize = 4;

/// Beams per calm tick — inside the brute-force fleet's ~37 beams/s.
const CALM_BEAMS: usize = 20;

/// Beams per burst tick — ~60% over brute-force capacity, inside the
/// demoted fleet's ~75 beams/s.
const BURST_BEAMS: usize = 60;

/// Ticks simulated (alternating calm / burst, starting calm).
const TICKS: usize = 6;

/// A calm/burst alternating survey cadence: one-second ticks whose
/// beam count swings between under- and over-capacity.
struct BurstyLoad;

impl LoadSource for BurstyLoad {
    fn setup(&self) -> &str {
        "Apertif-bursty"
    }

    fn trials(&self) -> usize {
        TRIALS
    }

    fn ticks(&self) -> usize {
        TICKS
    }

    fn beams_at(&self, tick: usize) -> usize {
        if tick.is_multiple_of(2) {
            CALM_BEAMS
        } else {
            BURST_BEAMS
        }
    }

    fn release(&self, tick: usize) -> f64 {
        tick as f64
    }

    fn deadline(&self, tick: usize) -> f64 {
        tick as f64 + 1.0
    }
}

/// The machine-readable artifact `--json` writes.
#[derive(Serialize)]
struct AlgorithmComparison {
    /// Brute-force-only fleet under `PerDeviceGreedy`.
    baseline: FleetReport,
    /// Multi-algorithm fleet under the `AlgorithmLadder`.
    ladder: FleetReport,
    /// `AlgorithmSwitch` events the ladder run emitted.
    algorithm_switches: usize,
    /// Switches that moved a device *off* brute force.
    demotions: usize,
    /// Switches that moved a device *back to* brute force.
    promotions: usize,
    /// Shed trial DMs the ladder converted into demotions.
    shed_trials_converted: usize,
}

fn fleet() -> ResolvedFleet {
    let table: &[(Algorithm, f64)] = &[
        (Algorithm::BruteForce, SPB_BRUTE),
        (Algorithm::Subband { factor: 32 }, SPB_SUBBAND),
    ];
    ResolvedFleet::synthetic_with_algorithms(TRIALS, &[table; DEVICES])
}

fn summarize(label: &str, run: &FleetRun) {
    let r = &run.report;
    println!(
        "{label:>9}: completed {:>3} | degraded {:>3} | missed {:>2} | shed whole {:>2} \
         | shed trial DMs {:>6}",
        r.completed, r.degraded, r.deadline_misses, r.shed_whole, r.total_shed_trials
    );
    assert!(r.conservation_ok(), "{label}: ledger must conserve");
}

fn main() {
    let load = BurstyLoad;
    println!(
        "=== bursty Apertif load: {DEVICES} x HD7970, {CALM_BEAMS}/{BURST_BEAMS} beams \
         alternating over {TICKS} ticks ==="
    );

    // Baseline: the same devices, brute force only — the historical
    // §V-D plane, where bursts can only shed DM tiers.
    let brute_only = ResolvedFleet::synthetic(TRIALS, &[SPB_BRUTE; DEVICES]);
    let baseline = Scheduler::session(&brute_only)
        .load(&load)
        .run()
        .expect("baseline run completes");
    summarize("baseline", &baseline);

    // Ladder: the same devices with a subband table entry the planner
    // may demote to before shedding.
    let rated = fleet();
    let ladder = Scheduler::session(&rated)
        .load(&load)
        .policy(&AlgorithmLadder)
        .run()
        .expect("ladder run completes");
    summarize("ladder", &ladder);

    let switches: Vec<(usize, Algorithm, Algorithm)> = ladder
        .log
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::AlgorithmSwitch {
                device, from, to, ..
            } => Some((device, from, to)),
            _ => None,
        })
        .collect();
    let demotions = switches
        .iter()
        .filter(|(_, _, to)| *to != Algorithm::BruteForce)
        .count();
    let promotions = switches
        .iter()
        .filter(|(_, _, to)| *to == Algorithm::BruteForce)
        .count();
    println!(
        "\nladder switched algorithms {} times ({demotions} demotions, {promotions} promotions)",
        switches.len()
    );

    // The operator view, seeded with fleet context: descriptors plus
    // the live per-device algorithm assignment.
    let mut status = StatusSnapshot::for_fleet(&rated);
    ladder.log.replay(&mut status);
    for d in &status.devices {
        println!(
            "  {}: running {} | queue drained: {}",
            d.descriptor,
            d.algorithm,
            d.queue_depth == 0
        );
    }
    assert_eq!(status.algorithm_switches, switches.len());

    // The headline self-asserts: demotion converts the baseline's shed
    // trial DMs, and never buys them with misses.
    let b = &baseline.report;
    let l = &ladder.report;
    assert!(
        b.total_shed_trials > 0,
        "the burst must actually overrun the brute-force fleet"
    );
    assert!(
        l.total_shed_trials * 2 <= b.total_shed_trials,
        "ladder must convert at least half the baseline's shed trial DMs \
         ({} vs {})",
        l.total_shed_trials,
        b.total_shed_trials
    );
    assert!(
        l.deadline_misses <= b.deadline_misses,
        "demotion must not add deadline misses"
    );
    assert!(
        demotions > 0,
        "the burst must trigger at least one demotion"
    );
    let converted = b.total_shed_trials - l.total_shed_trials;
    println!(
        "\ndemotion converted {converted} of {} shed trial DMs ({:.0}%) at {} added misses",
        b.total_shed_trials,
        100.0 * converted as f64 / b.total_shed_trials as f64,
        l.deadline_misses.saturating_sub(b.deadline_misses)
    );

    experiments::out::write_json_report(&AlgorithmComparison {
        baseline: baseline.report,
        ladder: ladder.report,
        algorithm_switches: switches.len(),
        demotions,
        promotions,
        shed_trials_converted: converted,
    });
}
