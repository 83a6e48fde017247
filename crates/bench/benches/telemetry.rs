//! Telemetry hot-path gate: the batch-only observer seam.
//!
//! Three measurements, all recorded in `BENCH_fleet.json` at the repo
//! root:
//!
//! 1. **Observer delivery (recorded, `deliver_batched_meps`)** — a
//!    synthetic order-of-millions beams/tick stream is encoded into an
//!    [`EventLog`] once, then delivered to the full sink stack (live
//!    status + flight recorder + metrics registry) through
//!    `observe_batch`: columnar folds straight off the rows, one lock
//!    acquisition per sink per tick.
//! 2. **End-to-end emit (recorded, `emit_batched_meps`)** — the same
//!    stream driven through the pipeline the dispatcher runs
//!    ([`TickBatch`] row encoding, one `observe_batch` per tick,
//!    [`EventLog::push_batch`] move). Bounded by raw encode bandwidth.
//! 3. **Observer cost on a live scheduler (gated,
//!    `observer_ns_per_event`)** — the real scheduler runs a 32-device
//!    fleet at 90 % load under `NullObserver` and under the full
//!    fanned-out stack; the wall-clock delta, divided by the events the
//!    run delivered, is what one event costs on its way through the
//!    attached stack.
//!
//! The gate is in the unit of what it guards. It used to be the delta
//! as a percentage of the null run, which priced the sinks against the
//! scheduler's per-device thread handoffs (70 ms a run); with those
//! gone a run is 1.2 ms of placement arithmetic and the same 0.3 ms of
//! sinks reads as +25 %, so the percentage is recorded and no longer
//! gated.
//!
//! `main` is hand-rolled: the gate needs `--json <out>` and
//! `--check <baseline>` arguments (and must tolerate the extra
//! `--bench` flag cargo passes).

use bench::{time_min, time_paired, BASELINE_DRIFT};
use dedisp_fleet::obs::{Fanout, FlightRecorder, LiveStatus, MetricsRegistry, RegistryObserver};
use dedisp_fleet::{
    BeamOutcome, BeamRecord, EventLog, HealthCause, HealthEvent, HealthState, NullObserver,
    Observer, ResolvedFleet, Scheduler, ShedReason, ShedRecord, StatusSnapshot, SurveyLoad,
    TelemetryEvent, TickBatch,
};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;

/// Devices the synthetic stream spreads placements over.
const DEVICES: usize = 32;

/// Encode-path repetitions (the minimum is reported).
const ENCODE_REPS: usize = 3;

/// Alternating null / full-stack scheduler runs (medians reported).
const SCHED_REPS: usize = 201;

/// Ticks in the scheduler workload.
const SCHED_TICKS: usize = 24;

/// Ceiling on `observer_ns_per_event`. EXPERIMENTS.md has the runs it
/// was set from: above their spread, under twice their median, and
/// under what the stack attached twice reads.
const NS_PER_EVENT_CEILING: f64 = 40.0;

/// One tick's worth of synthetic telemetry, shaped like a healthy
/// high-volume run: per beam a `Placed` and a terminal `Beam`, with a
/// realistic sprinkle of bounces, retries, sheds, probes, and health
/// transitions, led by the tick's `Admission` ruling.
fn synthetic_tick(tick: usize, beams: usize) -> Vec<TelemetryEvent> {
    let t0 = tick as f64;
    let mut events = Vec::with_capacity(2 * beams + beams / 32 + 4);
    events.push(TelemetryEvent::Admission {
        tick,
        release: t0,
        deadline: t0 + 1.0,
        beams,
        kept_trials: 2000,
        shed_tiers: 0,
    });
    for beam in 0..beams {
        let index = tick * beams + beam;
        let device = beam % DEVICES;
        let at = t0 + (beam as f64) / (beams as f64);
        events.push(TelemetryEvent::Placed {
            index,
            device,
            at,
            kept_trials: 2000,
            attempt: 1,
            canary: false,
        });
        if beam % 64 == 63 {
            events.push(TelemetryEvent::Bounce {
                index,
                device,
                at,
                attempt: 1,
            });
            events.push(TelemetryEvent::Retry {
                index,
                at: at + 0.01,
                attempt: 2,
            });
            events.push(TelemetryEvent::Placed {
                index,
                device: (device + 1) % DEVICES,
                at: at + 0.01,
                kept_trials: 2000,
                attempt: 2,
                canary: false,
            });
        }
        if beam % 256 == 255 {
            events.push(TelemetryEvent::Shed(ShedRecord {
                index,
                tick,
                beam,
                shed_trials: 200,
                kept_trials: 1800,
                reason: ShedReason::DeadlinePressure,
            }));
        }
        if beam % 4096 == 4095 {
            events.push(TelemetryEvent::Probe {
                device,
                at,
                up: true,
            });
            events.push(TelemetryEvent::Health(HealthEvent {
                at,
                device,
                from: HealthState::Suspect,
                to: HealthState::Healthy,
                cause: HealthCause::ProbeUp,
            }));
        }
        let kept = if beam % 256 == 255 { 1800 } else { 2000 };
        events.push(TelemetryEvent::Beam(BeamRecord {
            index,
            tick,
            beam,
            outcome: if kept == 2000 {
                BeamOutcome::Completed {
                    device,
                    finish: at + 0.5,
                }
            } else {
                BeamOutcome::Degraded {
                    device,
                    finish: at + 0.5,
                    kept_trials: kept,
                    shed_trials: 2000 - kept,
                }
            },
        }));
    }
    events
}

/// Drives `stream` through the path the dispatcher runs:
/// row-encode into a [`TickBatch`], one `observe_batch` per tick into
/// the fanned-out stack, one `push_batch` into the [`EventLog`].
fn drive_batched(stream: &[Vec<TelemetryEvent>], fanout: &mut Fanout) -> usize {
    let mut log = EventLog::new();
    let mut batch = TickBatch::new();
    for tick in stream {
        // The dispatcher reserves per tick from its admitted beam
        // count; mirror that with the same two-events-per-beam shape.
        batch.reserve_tick(tick.len() / 2);
        for event in tick {
            batch.push(event);
        }
        fanout.observe_batch(&batch);
        log.push_batch(std::mem::take(&mut batch));
    }
    black_box(log.len())
}

/// One watched fleet run; returns the events it delivered.
fn run_watched(fleet: &ResolvedFleet, load: &SurveyLoad, observer: &mut dyn Observer) -> usize {
    let run = Scheduler::session(black_box(fleet))
        .load(black_box(load))
        .run_with(observer)
        .unwrap();
    assert!(run.report.conservation_ok());
    run.log.len()
}

/// Asserts the encoded stream decodes to what went in and that the
/// live fold equals the post-run log fold before anything is timed — a
/// wrong fold must fail the gate loudly, not post a fast number.
fn self_check(stream: &[Vec<TelemetryEvent>]) {
    let flat: Vec<TelemetryEvent> = stream.iter().flatten().cloned().collect();
    let live = LiveStatus::new(DEVICES);
    let mut log = EventLog::new();
    let mut batch = TickBatch::new();
    for tick in stream {
        for event in tick {
            batch.push(event);
        }
        live.fold_batch(&batch);
        log.push_batch(std::mem::take(&mut batch));
    }
    assert_eq!(
        log,
        EventLog::from_events(&flat),
        "batched log decodes differently from the flat stream"
    );
    assert_eq!(
        StatusSnapshot::from_log(DEVICES, &log),
        live.snapshot(),
        "log fold disagrees with the live fold"
    );
}

/// What the bench measures, the file CI commits, and the baseline the
/// gate diffs against — one struct, serialized as-is.
#[derive(Debug, Serialize, Deserialize)]
struct Results {
    /// Identifies the format; bump when the measured fields change.
    schema: String,
    beams_per_tick: usize,
    ticks: usize,
    events_total: usize,
    devices: usize,
    /// Machine-dependent rates (million events/sec), recorded for
    /// humans; the CI gate compares only `observer_ns_per_event`.
    ///
    /// `deliver` prices the observer seam alone (sink folds over an
    /// already-encoded log); `emit` prices the full pipeline (encode
    /// plus delivery plus run log).
    deliver_batched_meps: f64,
    emit_batched_meps: f64,
    scheduler_null_secs: f64,
    scheduler_full_stack_secs: f64,
    /// Events one scheduler run delivers to its observer.
    scheduler_events_per_run: usize,
    /// Gated: full-stack time less `NullObserver` time, per event.
    observer_ns_per_event: f64,
    /// Recorded: the same delta as a share of the `NullObserver` run.
    observer_overhead_pct: f64,
}

fn measure(beams_per_tick: usize, ticks: usize) -> Results {
    eprintln!("telemetry-bench: synthesizing {ticks} ticks x {beams_per_tick} beams ...");
    let stream: Vec<Vec<TelemetryEvent>> = (0..ticks)
        .map(|t| synthetic_tick(t, beams_per_tick))
        .collect();
    let events_total: usize = stream.iter().map(Vec::len).sum();
    self_check(&stream);

    eprintln!("telemetry-bench: emit ({events_total} events x {ENCODE_REPS} reps) ...");
    let emit_batched_secs = time_min(ENCODE_REPS, || {
        let registry = MetricsRegistry::new();
        let mut live = LiveStatus::new(DEVICES);
        let mut recorder = FlightRecorder::new(1 << 14);
        let mut metrics = RegistryObserver::new(&registry, DEVICES);
        let mut fanout = Fanout::new()
            .with(&mut metrics)
            .with(&mut recorder)
            .with(&mut live);
        drive_batched(&stream, &mut fanout)
    });

    // Delivery folds an already-encoded log — encode once, outside
    // the timed region.
    let encoded = {
        let mut log = EventLog::new();
        let mut batch = TickBatch::new();
        for tick in &stream {
            batch.reserve_tick(tick.len() / 2);
            for event in tick {
                batch.push(event);
            }
            log.push_batch(std::mem::take(&mut batch));
        }
        log
    };
    drop(stream);

    eprintln!("telemetry-bench: delivery ({events_total} events x {ENCODE_REPS} reps) ...");
    let deliver_batched_secs = time_min(ENCODE_REPS, || {
        let registry = MetricsRegistry::new();
        let mut live = LiveStatus::new(DEVICES);
        let mut recorder = FlightRecorder::new(1 << 14);
        let mut metrics = RegistryObserver::new(&registry, DEVICES);
        let mut fanout = Fanout::new()
            .with(&mut metrics)
            .with(&mut recorder)
            .with(&mut live);
        let mut n = 0;
        for batch in encoded.batches() {
            fanout.observe_batch(batch);
            n += batch.len();
        }
        n
    });
    drop(encoded);

    eprintln!(
        "telemetry-bench: scheduler, null vs full stack ({SCHED_REPS} alternating pairs) ..."
    );
    let spb: Vec<f64> = (0..32).map(|d| 0.09 + 0.002 * (d % 5) as f64).collect();
    let fleet = ResolvedFleet::synthetic(2000, &spb);
    let load = SurveyLoad::custom(2000, fleet.beams_capacity() * 9 / 10, SCHED_TICKS);
    let events_per_run = run_watched(&fleet, &load, &mut NullObserver);
    // Sink construction (metric registration in particular) happens
    // once, outside the timed region — the gate prices observation,
    // not setup. State accumulating across reps does not change the
    // per-batch cost.
    let registry = MetricsRegistry::new();
    let mut live = LiveStatus::new(fleet.len());
    let mut recorder = FlightRecorder::new(1 << 14);
    let mut metrics = RegistryObserver::new(&registry, fleet.len());
    let mut fanout = Fanout::new()
        .with(&mut metrics)
        .with(&mut recorder)
        .with(&mut live);
    let sched = time_paired(
        SCHED_REPS,
        || run_watched(&fleet, &load, &mut NullObserver),
        || run_watched(&fleet, &load, &mut fanout),
    );

    let meps = |secs: f64| events_total as f64 / secs / 1e6;
    Results {
        schema: "dedisp-bench-telemetry-v3".to_string(),
        beams_per_tick,
        ticks,
        events_total,
        devices: DEVICES,
        deliver_batched_meps: meps(deliver_batched_secs),
        emit_batched_meps: meps(emit_batched_secs),
        scheduler_null_secs: sched.base_secs,
        scheduler_full_stack_secs: sched.with_secs,
        scheduler_events_per_run: events_per_run,
        observer_ns_per_event: sched.delta_secs / events_per_run as f64 * 1e9,
        observer_overhead_pct: sched.delta_secs / sched.base_secs * 100.0,
    }
}

/// Applies the gate: the absolute ceiling always, baseline drift when
/// a committed baseline is given. Returns the failures.
fn gate(r: &Results, baseline: Option<&Results>) -> Vec<String> {
    let mut failures = Vec::new();
    if r.observer_ns_per_event > NS_PER_EVENT_CEILING {
        failures.push(format!(
            "observer_ns_per_event {:.1} exceeds the {NS_PER_EVENT_CEILING:.0} ns ceiling",
            r.observer_ns_per_event
        ));
    }
    if let Some(base) = baseline {
        if r.observer_ns_per_event > base.observer_ns_per_event * BASELINE_DRIFT {
            failures.push(format!(
                "observer_ns_per_event {:.1} is more than {BASELINE_DRIFT}x the baseline's {:.1}",
                r.observer_ns_per_event, base.observer_ns_per_event,
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut beams_per_tick = 1_000_000usize;
    let mut ticks = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_out = args.next(),
            "--check" => check = args.next(),
            "--beams" => {
                if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                    beams_per_tick = n;
                }
            }
            "--ticks" => {
                if let Some(n) = args.next().and_then(|s| s.parse().ok()) {
                    ticks = n;
                }
            }
            // cargo bench passes --bench (and criterion-style filters);
            // neither selects anything here.
            _ => {}
        }
    }

    let results = measure(beams_per_tick, ticks);
    println!(
        "telemetry hot path: {} events ({} beams/tick x {} ticks)",
        results.events_total, results.beams_per_tick, results.ticks
    );
    println!(
        "observer delivery (encoded log -> sinks):  {:>8.2} M events/s",
        results.deliver_batched_meps
    );
    println!(
        "end-to-end emit (encode + delivery + log): {:>8.2} M events/s",
        results.emit_batched_meps
    );
    println!(
        "scheduler: null {:.2} ms vs full stack {:.2} ms over {} events -> \
         {:.1} ns/event (ceiling {:.0}), {:+.1}% of the null run",
        results.scheduler_null_secs * 1e3,
        results.scheduler_full_stack_secs * 1e3,
        results.scheduler_events_per_run,
        results.observer_ns_per_event,
        NS_PER_EVENT_CEILING,
        results.observer_overhead_pct
    );

    if let Some(path) = &json_out {
        let body = serde_json::to_string_pretty(&results).expect("report serializes");
        if let Err(err) = std::fs::write(path, body + "\n") {
            eprintln!("telemetry-bench: cannot write {path}: {err}");
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
                eprintln!("telemetry-bench: cannot read baseline {path}: {err}");
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
