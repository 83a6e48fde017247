//! The fleet scheduler, pinned bit for bit: for each scenario below the
//! whole serialized report (every field, `max_queue_depth` included),
//! the beam ledger and every decoded event of the telemetry log fold
//! into one fingerprint. The constants were computed at the commit
//! where each device was still a worker thread behind a channel, before
//! a device became a value the dispatcher calls, so any change to what
//! is placed where, to a verdict's arithmetic or to the order events
//! are emitted in moves them.

use dedisp_fleet::capture::{
    ArrivalPattern, ArrivalProcess, BackpressurePolicy, BlockFormat, CaptureConfig, CaptureSession,
};
use dedisp_fleet::{
    Algorithm, AlgorithmLadder, FaultPlan, FleetRun, Grid, GridAdmission, GridFaultPlan,
    LoadSource, ResolvedFleet, Scheduler, SchedulerConfig, SurveyLoad,
};
use std::fmt::{Debug, Write};

/// One fingerprint per scenario, in the order the test lists them,
/// computed at the commit before the per-device threads were removed.
const PINNED: [u64; 8] = [
    0x951c_2ca4_0033_e01b,
    0x4020_b055_7516_9e3d,
    0xa557_7ee8_abaf_2e8e,
    0x0fd4_5399_ba6b_2a0f,
    0xab19_54d1_e852_56f0,
    0x72b7_a68d_ac8a_7f81,
    0x6693_d0fb_16a1_bb8d,
    0x82fd_dc9f_5f99_7b9b,
];

/// 64-bit FNV-1a over the serialized report, then the ledger, then
/// every event, one `Debug` line each. `Debug` prints an `f64` as its
/// shortest round-tripping decimal, so two values print alike only when
/// they are the same bits.
fn fingerprint<E: Debug>(
    report_json: String,
    records: &impl Debug,
    events: impl IntoIterator<Item = E>,
) -> u64 {
    let mut text = report_json;
    writeln!(text, "{records:?}").expect("writing to a String");
    for event in events {
        writeln!(text, "{event:?}").expect("writing to a String");
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn session_fingerprint(run: &FleetRun) -> u64 {
    assert!(run.report.conservation_ok());
    fingerprint(run.report.to_json(), &run.records, run.log.iter())
}

/// §V-D: 50 devices at the HD7970's measured 0.106 s per beam serve
/// Apertif's 450 beams every second.
fn apertif(faults: &FaultPlan) -> FleetRun {
    let fleet = ResolvedFleet::synthetic(2_000, &[0.106; 50]);
    let load = SurveyLoad::custom(2_000, 450, 5);
    Scheduler::session(&fleet)
        .load(&load)
        .faults(faults)
        .run()
        .expect("valid inputs")
}

/// `determinism.rs`'s run: every fault kind at once on a small fleet.
fn every_fault_kind() -> FleetRun {
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

/// Both devices glitch forever and a beam may be re-placed once.
fn retry_exhaustion() -> FleetRun {
    let fleet = ResolvedFleet::synthetic(500, &[0.2, 0.2]);
    let load = SurveyLoad::custom(500, 2, 1);
    let faults = FaultPlan::none()
        .with_transient(0, 0.0, 1_000)
        .with_transient(1, 0.0, 1_000);
    let config = SchedulerConfig {
        retry_budget: 1,
        ..SchedulerConfig::default()
    };
    Scheduler::session(&fleet)
        .config(config)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs")
}

/// Two of three devices dead from the start; the second retry waits.
fn retry_backoff() -> FleetRun {
    let fleet = ResolvedFleet::synthetic(100, &[0.1, 0.1, 0.1]);
    let load = SurveyLoad::custom(100, 4, 2);
    let faults = FaultPlan::none().with_kill(0, 0.0).with_kill(1, 0.0);
    let config = SchedulerConfig {
        retry_backoff_s: 0.2,
        ..SchedulerConfig::default()
    };
    Scheduler::session(&fleet)
        .config(config)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs")
}

/// A bursty backend overruns a two-second ring whose policy narrows
/// the DM plan: prelude, release times and ceilings all come from the
/// capture run.
fn capture_fed() -> FleetRun {
    let config = CaptureConfig {
        capacity_blocks: 2,
        policy: BackpressurePolicy::NarrowDmPlan { tiers: 2 },
        ..CaptureConfig::new(9, BlockFormat::new(64, 4_000), 1_000)
    };
    let source = ArrivalProcess::new(
        9,
        9,
        config.period_s,
        ArrivalPattern::Bursty { cycle_ticks: 3 },
        7,
    );
    let capture = CaptureSession::new(config)
        .expect("valid capture config")
        .ingest(source)
        .expect("contract-clean arrivals");
    let fleet = ResolvedFleet::synthetic(1_000, &[0.3, 0.3, 0.3]);
    Scheduler::session(&fleet)
        .capture(&capture)
        .run()
        .expect("capture load schedules")
}

/// `bench algorithms`' load: calm ticks inside brute-force capacity,
/// bursts 60 % over it.
struct BurstyLoad;

impl LoadSource for BurstyLoad {
    fn setup(&self) -> &str {
        "bench-bursty"
    }

    fn trials(&self) -> usize {
        2_000
    }

    fn ticks(&self) -> usize {
        12
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

fn algorithm_ladder() -> FleetRun {
    let table: &[(Algorithm, f64)] = &[
        (Algorithm::BruteForce, 0.106),
        (Algorithm::Subband { factor: 32 }, 0.053),
    ];
    let fleet = ResolvedFleet::synthetic_with_algorithms(2_000, &[table; 16]);
    Scheduler::session(&fleet)
        .load(&BurstyLoad)
        .policy(&AlgorithmLadder)
        .run()
        .expect("valid inputs")
}

/// Four uneven shards under the grid-scope planner; shard 1 goes down
/// mid-survey and comes back.
fn coordinated_grid_with_a_shard_flap() -> u64 {
    let shards = vec![
        ResolvedFleet::synthetic(1_000, &[0.1, 0.1, 0.1]),
        ResolvedFleet::synthetic(1_000, &[0.1, 0.12]),
        ResolvedFleet::synthetic(1_000, &[0.25]),
        ResolvedFleet::synthetic(1_000, &[0.08, 0.1, 0.1, 0.15]),
    ];
    let load = SurveyLoad::custom(1_000, 80, 6);
    let faults = GridFaultPlan::none().with_shard_flap(1, 1.25, 3.4);
    let run = Grid::session(&shards)
        .admission(GridAdmission::Coordinated)
        .load(&load)
        .faults(&faults)
        .run()
        .expect("valid inputs");
    assert!(run.report.conservation_ok());
    assert!(run.report.rehomed > 0, "the flap must re-home beams");
    fingerprint(run.report.to_json(), &run.records, &run.events)
}

#[test]
fn pinned_scenarios_are_bit_identical_to_the_threaded_scheduler() {
    let got = [
        (
            "apertif healthy",
            session_fingerprint(&apertif(&FaultPlan::none())),
        ),
        (
            "apertif, a tenth killed at 1.5 s",
            session_fingerprint(&apertif(&FaultPlan::kill_fraction(50, 0.10, 1.5))),
        ),
        ("every fault kind", session_fingerprint(&every_fault_kind())),
        ("retry exhaustion", session_fingerprint(&retry_exhaustion())),
        ("retry backoff", session_fingerprint(&retry_backoff())),
        ("capture-fed", session_fingerprint(&capture_fed())),
        ("algorithm ladder", session_fingerprint(&algorithm_ladder())),
        (
            "coordinated grid, shard flap",
            coordinated_grid_with_a_shard_flap(),
        ),
    ];
    let fingerprints = got.map(|(_, fingerprint)| fingerprint);
    let listing: Vec<String> = got
        .iter()
        .map(|(name, fingerprint)| format!("{fingerprint:#018x} {name}"))
        .collect();
    assert_eq!(fingerprints, PINNED, "\n{}", listing.join("\n"));
}
