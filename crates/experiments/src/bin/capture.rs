//! Capture harness: streaming ingest scenarios against the §V-D fleet.
//!
//! The paper sizes Apertif at ≈50 HD7970s (0.106 s to dedisperse one
//! beam-second of 2,000 trial DMs). This binary puts a streaming
//! capture front-end in front of exactly that fleet and runs the
//! arrival process through five scenarios: a feasible steady stream, a
//! bursty over-capacity stream under `DropOldest`, a slow-drain
//! bottleneck, a jittered stream under `Downsample2x`, and a bursty
//! stream under `NarrowDmPlan`. Each scenario asserts the capture
//! contract in-harness:
//!
//! * feasible streams reach the fleet untouched and complete with
//!   zero deadline misses;
//! * infeasible streams degrade **at capture, loudly** — the drop /
//!   downsample ledger is non-empty and reconciles exactly with the
//!   arrival count, while the ring's byte footprint stays under its
//!   hard bound and the final backlog is zero (no silent queue
//!   growth anywhere);
//! * a replay of the recorded arrival log reproduces the run
//!   ledger-identically.
//!
//! Everything printed is deterministic, so CI runs the binary twice
//! and byte-diffs both stdout and the `--json` fingerprint.

use dedisp_fleet::capture::{
    ArrivalPattern, ArrivalProcess, ArrivalTrace, BackpressurePolicy, BlockFormat, CaptureConfig,
    CaptureLedger, CaptureRun, CaptureSession,
};
use dedisp_fleet::{LoadSource, ResolvedFleet, Scheduler};
use experiments::scaffold::{headline, MEASURED_SECONDS_PER_BEAM};
use radioastro::SurveySizing;
use serde::Serialize;

/// Windows of observation each scenario streams.
const TICKS: usize = 6;

/// Arrival-process seed; fixed so the harness is replayable end to
/// end.
const SEED: u64 = 42;

/// One scenario's deterministic fingerprint: the capture ledger plus
/// the downstream fleet outcome counters.
#[derive(Serialize)]
struct ScenarioSummary {
    name: String,
    policy: &'static str,
    ledger: CaptureLedger,
    load_ticks: usize,
    completed: usize,
    degraded_beams: usize,
    deadline_misses: usize,
    shed_whole: usize,
    total_shed_trials: usize,
}

/// Ingests `pattern` through `config` and schedules the derived load
/// on `fleet`, asserting both conservation ledgers.
fn scenario(
    name: &str,
    fleet: &ResolvedFleet,
    config: CaptureConfig,
    pattern: ArrivalPattern,
    ticks: usize,
) -> (ScenarioSummary, CaptureRun) {
    let source = ArrivalProcess::new(config.beams, ticks, config.period_s, pattern, SEED);
    let run = CaptureSession::new(config)
        .expect("scenario config is valid")
        .ingest(source)
        .expect("the arrival process honors the source contract");
    let ledger = run.ledger;
    assert!(
        ledger.conservation_ok(),
        "{name}: capture ledger lost a block"
    );
    assert_eq!(ledger.final_backlog, 0, "{name}: silent queue growth");
    assert!(
        ledger.peak_bytes <= ledger.byte_bound,
        "{name}: ring footprint escaped its bound"
    );
    let fleet_run = Scheduler::session(fleet)
        .capture(&run)
        .run()
        .expect("capture load schedules");
    let r = &fleet_run.report;
    assert!(r.conservation_ok(), "{name}: fleet report lost a beam");
    assert_eq!(
        r.admitted,
        ledger.scheduled + ledger.degraded,
        "{name}: every drained block must reach admission"
    );
    println!(
        "{name:>12} | in {:>5} sched {:>5} degr {:>4} drop {:>4} | fill {:>3.0}% | done {:>5} deg {:>4} miss {:>3} shed {:>3}",
        ledger.arrivals,
        ledger.scheduled,
        ledger.degraded,
        ledger.dropped,
        100.0 * ledger.peak_bytes as f64 / ledger.byte_bound as f64,
        r.completed,
        r.degraded,
        r.deadline_misses,
        r.shed_whole,
    );
    let summary = ScenarioSummary {
        name: name.to_string(),
        policy: config.policy.label(),
        ledger,
        load_ticks: run.load.ticks(),
        completed: r.completed,
        degraded_beams: r.degraded,
        deadline_misses: r.deadline_misses,
        shed_whole: r.shed_whole,
        total_shed_trials: r.total_shed_trials,
    };
    (summary, run)
}

fn main() {
    let sizing = SurveySizing::apertif_survey();
    let devices = sizing
        .beams
        .div_ceil((1.0 / MEASURED_SECONDS_PER_BEAM).floor() as usize);
    let fleet = ResolvedFleet::synthetic(sizing.trials, &vec![MEASURED_SECONDS_PER_BEAM; devices]);
    // One block = one second of one Apertif beam, at filterbank
    // framing (1,024 channels × 20,000 samples/s × 4-byte f32).
    let format = BlockFormat::new(
        sizing.setup.band.channels(),
        sizing.setup.sample_rate as usize,
    );
    let base = CaptureConfig::new(sizing.beams, format, sizing.trials);

    headline(&format!(
        "capture scenarios: {} beams/s into {devices} HD7970s, {:.1} MB/block, ring bound {:.1} GB",
        sizing.beams,
        format.bytes_per_block() as f64 / 1e6,
        (sizing.beams * base.capacity_blocks * format.bytes_per_block()) as f64 / 1e9,
    ));
    println!(
        "{:>12} | {:>8} {:>10} {:>9} {:>9} | {:>8} | {:>10} {:>8} {:>8} {:>8}",
        "scenario",
        "arrivals",
        "scheduled",
        "degraded",
        "dropped",
        "peak",
        "completed",
        "degraded",
        "missed",
        "shed",
    );

    let mut summaries = Vec::new();

    // 1. Steady at capacity: the feasible case. Nothing is dropped or
    //    degraded at capture, and the fleet runs its §V-D operating
    //    point clean.
    let (steady, _) = scenario("steady", &fleet, base, ArrivalPattern::Steady, TICKS);
    assert_eq!(steady.ledger.dropped, 0, "feasible stream must not drop");
    assert_eq!(
        steady.ledger.degraded, 0,
        "feasible stream must not degrade"
    );
    assert_eq!(steady.deadline_misses, 0, "feasible stream must run clean");
    assert_eq!(steady.completed, steady.ledger.scheduled);
    summaries.push(steady);

    // 2. Bursty over capacity under DropOldest: each 3-window cycle
    //    packs 3 windows of data into one, overrunning a 2-block ring.
    //    Memory stays bounded, the overflow is dropped loudly at
    //    capture, and what survives completes without misses — the
    //    queue never silently grows.
    let bursty_cfg = CaptureConfig {
        capacity_blocks: 2,
        ..base
    };
    let (bursty, bursty_run) = scenario(
        "bursty",
        &fleet,
        bursty_cfg,
        ArrivalPattern::Bursty { cycle_ticks: 3 },
        TICKS,
    );
    assert!(bursty.ledger.dropped > 0, "over-capacity burst must drop");
    assert_eq!(bursty.ledger.dropped, bursty.ledger.drops_evicted);
    assert_eq!(
        bursty.deadline_misses, 0,
        "survivors of the burst must not miss: pressure resolves at capture, not in a queue"
    );
    summaries.push(bursty);

    // 3. Slow drain: ingest bandwidth (half a wavefront per window)
    //    below the arrival rate. The ring fills, DropOldest sheds the
    //    stale half, and the bound holds.
    let slow_cfg = CaptureConfig {
        capacity_blocks: 2,
        drain_max_blocks: sizing.beams / 2,
        ..base
    };
    let (slow, _) = scenario(
        "slow-drain",
        &fleet,
        slow_cfg,
        ArrivalPattern::Steady,
        TICKS,
    );
    assert!(slow.ledger.dropped > 0, "a starved drain must shed");
    summaries.push(slow);

    // 4. Jittered stream under Downsample2x: a low watermark on a
    //    shallow ring makes the intra-window pile-up cross the
    //    threshold, so blocks store at half rate instead of dropping.
    let jitter_cfg = CaptureConfig {
        capacity_blocks: 2,
        high_watermark: 0.75,
        policy: BackpressurePolicy::Downsample2x,
        ..base
    };
    let (jitter, _) = scenario(
        "jitter-half",
        &fleet,
        jitter_cfg,
        ArrivalPattern::Jittered { max_jitter_s: 0.4 },
        TICKS,
    );
    assert!(jitter.ledger.degraded > 0, "the watermark must engage");
    assert_eq!(jitter.ledger.drops_evicted, 0, "Downsample2x never evicts");
    summaries.push(jitter);

    // 5. Bursty under NarrowDmPlan: blocks survive at full rate but
    //    marked, and the narrowed batches carry admission ceilings
    //    (2 of 8 ladder tiers shed), which the scheduler turns into
    //    degraded-but-on-time beams.
    let narrow_cfg = CaptureConfig {
        capacity_blocks: 2,
        high_watermark: 0.75,
        policy: BackpressurePolicy::NarrowDmPlan { tiers: 2 },
        ..base
    };
    let (narrow, narrow_run) = scenario(
        "narrow-dm",
        &fleet,
        narrow_cfg,
        ArrivalPattern::Bursty { cycle_ticks: 3 },
        TICKS,
    );
    assert!(
        narrow.ledger.degrade_events > 0,
        "the watermark must engage"
    );
    assert!(
        narrow_run
            .load
            .ceilings()
            .iter()
            .any(|&c| c < sizing.trials),
        "narrowed batches must carry a lowered admission ceiling"
    );
    assert!(
        narrow.total_shed_trials > 0,
        "the scheduler must honor the narrowed plan as shed trials"
    );
    summaries.push(narrow);

    // --- replay: the recorded arrival log is the whole truth ---------
    headline("replay: re-ingesting the bursty arrival log");
    let replay = CaptureSession::new(bursty_cfg)
        .expect("config already validated")
        .ingest(ArrivalTrace::new(&bursty_run.arrival_log))
        .expect("the recorded log is contract-clean");
    assert_eq!(replay.ledger, bursty_run.ledger, "replay diverged");
    assert_eq!(replay.load, bursty_run.load, "replayed load diverged");
    println!(
        "replayed {} arrivals: ledger and load identical",
        replay.ledger.arrivals
    );

    // --- the degradation ledger, reconciled --------------------------
    headline("conservation: arrivals == scheduled + degraded + dropped");
    for s in &summaries {
        let l = &s.ledger;
        println!(
            "{:>12}: {} == {} + {} + {} (backlog {}, drops {} evicted / {} overflow)",
            s.name,
            l.arrivals,
            l.scheduled,
            l.degraded,
            l.dropped,
            l.final_backlog,
            l.drops_evicted,
            l.drops_overflow,
        );
        assert_eq!(l.arrivals, l.scheduled + l.degraded + l.dropped);
    }

    experiments::out::write_json_report(&summaries);
}
