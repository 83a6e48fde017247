//! Tracing-plane cost gate: what a tick pays for its phase spans.
//!
//! DESIGN.md §17's pitch is that phase spans and the SLO burn-rate
//! fold are cheap enough to leave on in production. This bench prices
//! that claim and *gates* it in CI:
//!
//! 1. **Span bookkeeping per tick (gated, `tracing_span_ns_per_tick`)**
//!    — the real scheduler runs a survey of `SPAN_TICKS` ticks of one
//!    beam on one device with and without a [`TraceSink`]; the
//!    wall-clock delta per tick is what the six spans a tick opens and
//!    closes cost where they are recorded. The ticks are as cheap as
//!    ticks get so that the spans are most of the traced run: on the
//!    32-device workload below a tick is 75 µs and its spans are 1 µs,
//!    which no pair of wall-clock runs resolves.
//! 2. **Traced full stack vs `NullObserver` (recorded)** — the
//!    telemetry bench's fleet workload with no trace sink, and again
//!    with a sink *and* the full observer stack fanned out (live
//!    status + flight recorder + metrics registry + the [`BurnRate`]
//!    SLO fold). The delta as a share of the null run was the gate
//!    (`<= 5%`) while a run was 70 ms of thread handoffs; it is a third
//!    of a 1.2 ms run now, nearly all of it the sinks the telemetry
//!    bench gates, so it is recorded only.
//! 3. **Burn-rate fold throughput (recorded)** — a synthetic
//!    1M-beams/tick terminal-outcome stream, encoded one
//!    [`TickBatch`] per tick, pushed through [`BurnRate::fold_batch`];
//!    the cost is one lock per batch and a few adds per beam, and the
//!    recorded rate documents it.
//! 4. **Span record throughput (recorded)** — raw
//!    `TraceSink::start`/drop pairs per second, the fixed price every
//!    phase span pays.
//!
//! Before anything is timed, the traced and untraced runs' reports and
//! ledgers are asserted identical — a sink that perturbs scheduling
//! must fail the gate loudly, not post a number.
//!
//! `tracing_span_ns_per_tick` is gated on the absolute ceiling always,
//! and against the committed `BENCH_fleet.json` baseline (which carries
//! the `tracing_*` keys alongside the telemetry bench's — each bench
//! reads only its own) when `--check` is given.
//!
//! `main` is hand-rolled: the gate needs `--json <out>` and
//! `--check <baseline>` arguments.

use bench::{time_min, time_paired, BASELINE_DRIFT};
use dedisp_fleet::obs::{
    BurnRate, Fanout, FlightRecorder, LiveStatus, MetricsRegistry, RegistryObserver, SloConfig,
    SpanKind, TraceSink,
};
use dedisp_fleet::{
    BeamOutcome, BeamRecord, NullObserver, ResolvedFleet, Scheduler, SurveyLoad, TelemetryEvent,
    TickBatch,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;

/// Beams per tick in the synthetic burn-fold stream.
const BEAMS_PER_TICK: usize = 1_000_000;

/// Ticks of the synthetic stream.
const STREAM_TICKS: usize = 2;

/// Alternating untraced / traced scheduler runs (medians reported).
const SCHED_REPS: usize = 201;

/// Ticks in the full-stack workload — matches the telemetry bench so
/// the two price the same run shape.
const SCHED_TICKS: usize = 24;

/// Ticks in the span-bookkeeping workload, one beam on one device each.
const SPAN_TICKS: usize = 4096;

/// Raw span start/drop pairs timed for the span-rate record.
const SPAN_OPS: usize = 2_000_000;

/// Ceiling on `tracing_span_ns_per_tick`. EXPERIMENTS.md has the runs
/// it was set from: above their spread, under twice their median, and
/// under what a sink that does its bookkeeping twice reads.
const SPAN_NS_PER_TICK_CEILING: f64 = 1900.0;

/// One terminal beam outcome at virtual time `at`.
fn terminal(index: usize, at: f64, missed: bool) -> TelemetryEvent {
    TelemetryEvent::Beam(BeamRecord {
        index,
        tick: 0,
        beam: index,
        outcome: if missed {
            BeamOutcome::Missed {
                device: index % 32,
                finish: at,
                kept_trials: 2000,
            }
        } else {
            BeamOutcome::Completed {
                device: index % 32,
                finish: at,
            }
        },
    })
}

/// What this bench measures and records. The committed baseline is
/// the shared `BENCH_fleet.json`; this struct round-trips only the
/// `tracing_*` keys and ignores the telemetry bench's.
#[derive(Debug, Serialize, Deserialize)]
struct Results {
    /// Identifies the format; bump when the measured fields change.
    tracing_schema: String,
    /// Gated: traced less untraced wall time per tick of the
    /// `SPAN_TICKS`-tick survey.
    tracing_span_ns_per_tick: f64,
    /// `NullObserver`, no sink — the reference run.
    tracing_sched_null_secs: f64,
    /// Trace sink + live status + recorder + registry + SLO fold.
    tracing_sched_traced_secs: f64,
    /// Recorded: traced full-stack time over `NullObserver` time.
    tracing_overhead_pct: f64,
    /// Recorded: `BurnRate::fold_batch` throughput, million events/sec,
    /// on the 1M-beams/tick terminal stream.
    tracing_burn_fold_meps: f64,
    /// Recorded: raw span start/drop pairs, million ops/sec.
    tracing_span_rate_mops: f64,
}

fn measure() -> Results {
    // --- traced full stack vs null (recorded) -------------------------
    eprintln!("tracing-bench: scheduler null vs traced full stack ({SCHED_REPS} pairs) ...");
    let spb: Vec<f64> = (0..32).map(|d| 0.09 + 0.002 * (d % 5) as f64).collect();
    let fleet = ResolvedFleet::synthetic(2000, &spb);
    let load = SurveyLoad::custom(2000, fleet.beams_capacity() * 9 / 10, SCHED_TICKS);

    // Transparency self-check before any timing: the traced stack must
    // not move the ledger.
    let bare = Scheduler::session(&fleet)
        .load(&load)
        .run()
        .expect("bare run completes");
    {
        let check_sink = TraceSink::new(1 << 15);
        let registry = MetricsRegistry::new();
        let mut live = LiveStatus::new(fleet.len());
        let mut recorder = FlightRecorder::new(1 << 14);
        let mut metrics = RegistryObserver::new(&registry, fleet.len());
        let mut slo = BurnRate::new(SloConfig::default());
        let mut fanout = Fanout::new()
            .with(&mut metrics)
            .with(&mut recorder)
            .with(&mut live)
            .with(&mut slo);
        let traced = Scheduler::session(&fleet)
            .load(&load)
            .trace(&check_sink)
            .run_with(&mut fanout)
            .expect("traced run completes");
        assert_eq!(
            traced.report, bare.report,
            "the traced stack perturbed the report"
        );
        assert_eq!(
            traced.records, bare.records,
            "traced stack moved the ledger"
        );
        assert!(check_sink.recorded() > 0, "the sink recorded nothing");
    }

    // Sink construction happens once, outside the timed region: what
    // is priced is per-event observation and span capture, not setup.
    let sink = TraceSink::new(1 << 15);
    let registry = MetricsRegistry::new();
    let mut live = LiveStatus::new(fleet.len());
    let mut recorder = FlightRecorder::new(1 << 14);
    let mut metrics = RegistryObserver::new(&registry, fleet.len());
    let mut slo = BurnRate::new(SloConfig::default());
    let mut fanout = Fanout::new()
        .with(&mut metrics)
        .with(&mut recorder)
        .with(&mut live)
        .with(&mut slo);
    let sched = time_paired(
        SCHED_REPS,
        || {
            let run = Scheduler::session(black_box(&fleet))
                .load(black_box(&load))
                .run_with(&mut NullObserver)
                .unwrap();
            run.report.completed
        },
        || {
            let run = Scheduler::session(black_box(&fleet))
                .load(black_box(&load))
                .trace(&sink)
                .run_with(&mut fanout)
                .unwrap();
            run.report.completed
        },
    );

    // --- span bookkeeping per tick (the gated number) ----------------
    eprintln!("tracing-bench: {SPAN_TICKS} one-beam ticks, untraced vs traced ...");
    let lone = ResolvedFleet::synthetic(2000, &[0.1]);
    let ticking = SurveyLoad::custom(2000, 1, SPAN_TICKS);
    let span_sink = TraceSink::new(1 << 15);
    let spans = time_paired(
        SCHED_REPS,
        || {
            let run = Scheduler::session(black_box(&lone)).load(black_box(&ticking));
            run.run().unwrap().report.completed
        },
        || {
            let run = Scheduler::session(black_box(&lone)).load(black_box(&ticking));
            run.trace(&span_sink).run().unwrap().report.completed
        },
    );
    assert!(span_sink.recorded() > 0, "the sink recorded nothing");

    // --- burn-rate fold throughput at 1M beams/tick -------------------
    let events_total = BEAMS_PER_TICK * STREAM_TICKS;
    eprintln!("tracing-bench: burn-rate fold ({events_total} terminal events) ...");
    let stream: Vec<TickBatch> = (0..STREAM_TICKS)
        .map(|tick| {
            let mut batch = TickBatch::new();
            batch.reserve_tick(BEAMS_PER_TICK);
            for i in tick * BEAMS_PER_TICK..(tick + 1) * BEAMS_PER_TICK {
                let at = i as f64 / BEAMS_PER_TICK as f64;
                batch.push(&terminal(i, at, i % 128 == 127));
            }
            batch
        })
        .collect();
    let burn_secs = time_min(3, || {
        let slo = BurnRate::new(SloConfig::default());
        for batch in &stream {
            slo.fold_batch(black_box(batch));
        }
        black_box(slo.snapshot().windows.len())
    });

    // --- raw span capture rate ----------------------------------------
    eprintln!("tracing-bench: raw span capture ({SPAN_OPS} start/drop pairs) ...");
    let span_secs = time_min(3, || {
        let sink = TraceSink::new(4096);
        for i in 0..SPAN_OPS {
            sink.start(SpanKind::Dispatch, Some(0), i as u64).finish();
        }
        black_box(sink.len())
    });

    Results {
        tracing_schema: "dedisp-bench-tracing-v2".to_string(),
        tracing_span_ns_per_tick: spans.delta_secs / SPAN_TICKS as f64 * 1e9,
        tracing_sched_null_secs: sched.base_secs,
        tracing_sched_traced_secs: sched.with_secs,
        tracing_overhead_pct: sched.delta_secs / sched.base_secs * 100.0,
        tracing_burn_fold_meps: events_total as f64 / burn_secs / 1e6,
        tracing_span_rate_mops: SPAN_OPS as f64 / span_secs / 1e6,
    }
}

/// Applies the gate: the absolute ceiling always, baseline drift when
/// a committed baseline is given. Returns the failures.
fn gate(r: &Results, baseline: Option<&Results>) -> Vec<String> {
    let mut failures = Vec::new();
    if r.tracing_span_ns_per_tick > SPAN_NS_PER_TICK_CEILING {
        failures.push(format!(
            "tracing_span_ns_per_tick {:.0} exceeds the {SPAN_NS_PER_TICK_CEILING:.0} ns ceiling",
            r.tracing_span_ns_per_tick
        ));
    }
    if let Some(base) = baseline {
        if r.tracing_span_ns_per_tick > base.tracing_span_ns_per_tick * BASELINE_DRIFT {
            failures.push(format!(
                "tracing_span_ns_per_tick {:.0} is more than {BASELINE_DRIFT}x the baseline's {:.0}",
                r.tracing_span_ns_per_tick, base.tracing_span_ns_per_tick,
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_out = args.next(),
            "--check" => check = args.next(),
            // cargo bench passes --bench; nothing to select here.
            _ => {}
        }
    }

    let results = measure();
    println!(
        "span bookkeeping: {:.0} ns/tick over {SPAN_TICKS} one-beam ticks (ceiling {:.0})",
        results.tracing_span_ns_per_tick, SPAN_NS_PER_TICK_CEILING
    );
    println!(
        "traced scheduler: null {:.2} ms vs traced full stack {:.2} ms -> {:+.1}% of the null run",
        results.tracing_sched_null_secs * 1e3,
        results.tracing_sched_traced_secs * 1e3,
        results.tracing_overhead_pct
    );
    println!(
        "burn-rate fold: {:>8.2} M events/s at {} beams/tick",
        results.tracing_burn_fold_meps, BEAMS_PER_TICK
    );
    println!(
        "span capture:   {:>8.2} M spans/s (start/drop pairs)",
        results.tracing_span_rate_mops
    );

    if let Some(path) = &json_out {
        let body = serde_json::to_string_pretty(&results).expect("report serializes");
        if let Err(err) = std::fs::write(path, body + "\n") {
            eprintln!("tracing-bench: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let baseline: Option<Results> = match &check {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(value) => Some(value),
            Err(err) => {
                eprintln!("tracing-bench: cannot read baseline {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let failures = gate(&results, baseline.as_ref());
    if failures.is_empty() {
        if check.is_some() {
            println!("gate: PASS (within tolerance of the committed baseline)");
        }
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("gate: FAIL: {failure}");
        }
        ExitCode::FAILURE
    }
}
