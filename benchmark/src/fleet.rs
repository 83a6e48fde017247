//! `fleet_survey`: Section V-D as an operating fleet.
//!
//! Set-up resolves a heterogeneous fleet — 20 each of HD7970, GTX Titan
//! and K20 — through the tuner at the survey's 2,000 trial DMs. Each
//! round then replays 20 seconds of a survey at 90 % of the fleet's
//! real-time capacity, killing a tenth of the devices at t = 1.5 s,
//! under the full observer stack, and renders the metrics exposition.
//! The scheduler, admission, `TickBatch` telemetry and the obs sinks do
//! all the work; no kernel runs, and the tuner only appears in
//! `setup_s`. The 60 device-worker threads are the program's own;
//! pinned, they serialize behind the one generator thread.
//!
//! The survey is Section V-D's and the same for every seed. Runs are
//! deterministic: every round must conserve its beams and reproduce
//! the first round's report.

use std::cell::RefCell;
use std::time::Instant;

use autotune::{ConfigSpace, TuningDatabase};
use dedisp_fleet::obs::{Fanout, FlightRecorder, LiveStatus, MetricsRegistry, RegistryObserver};
use dedisp_fleet::proc::{write_msg, FrameReader, ShardFrame};
use dedisp_fleet::{
    BackpressurePolicy, BlockFormat, CaptureRing, EventLog, FaultPlan, FleetReport, FleetRun,
    FleetSpec, Observer, ResolvedFleet, Scheduler, StatusSnapshot, SurveyLoad, TelemetryEvent,
    TickBatch,
};
use manycore_sim::{amd_hd7970, nvidia_gtx_titan, nvidia_k20, DeviceDescriptor};
use radioastro::ObservationalSetup;

use crate::harness::{timed_ms, LayerMetric, Live, Round, SetUp, Staged, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Trial DMs per beam: the Apertif survey's.
const TRIALS: usize = 2_000;
/// Devices per platform.
const PER_GROUP: usize = 20;
/// Survey seconds per replay.
const TICKS: usize = 20;
/// Flight-recorder ring, events.
const RECORDER_EVENTS: usize = 1 << 14;

/// The fleet replay.
pub struct FleetSurvey {
    /// The three platforms.
    groups: [DeviceDescriptor; 3],
    /// Survey seconds per replay: `TICKS`, fewer in `--quick`.
    ticks: usize,
    /// The first replay's report; every later one must equal it.
    reference: RefCell<Option<FleetReport>>,
}

impl FleetSurvey {
    /// The replay; `quick` cuts it to three ticks.
    pub fn new(quick: bool) -> Self {
        Self {
            groups: [amd_hd7970(), nvidia_gtx_titan(), nvidia_k20()],
            ticks: if quick { 3 } else { TICKS },
            reference: RefCell::new(None),
        }
    }

    fn resolve(&self) -> ResolvedFleet {
        self.groups
            .iter()
            .fold(FleetSpec::new(), |spec, g| {
                spec.with_group(g.clone(), PER_GROUP)
            })
            .resolve(
                &mut TuningDatabase::new(),
                &ObservationalSetup::apertif(),
                TRIALS,
                &ConfigSpace::paper(),
            )
            .expect("paper devices resolve at the survey instance")
    }

    /// A replay is right if it ran, lost no beam, and reports what the
    /// first replay reported (modulo the one field that real thread
    /// scheduling may move).
    fn verify(&self, run: &FleetRun, exposition: &str) -> bool {
        let mut report = run.report.clone();
        for device in &mut report.devices {
            device.max_queue_depth = 0;
        }
        let conserved = report.conservation_ok() && report.admitted > 0;
        let same = *self
            .reference
            .borrow_mut()
            .get_or_insert_with(|| report.clone())
            == report;
        conserved && same && exposition.contains("# TYPE")
    }
}

/// A resolved fleet with its survey and fault schedule.
struct FleetLive<'w> {
    workload: &'w FleetSurvey,
    fleet: ResolvedFleet,
    load: SurveyLoad,
    faults: FaultPlan,
}

impl<'w> FleetLive<'w> {
    fn build(workload: &'w FleetSurvey, fleet: ResolvedFleet) -> Self {
        let beams = fleet.beams_capacity() * 9 / 10;
        Self {
            workload,
            load: SurveyLoad::custom(TRIALS, beams, workload.ticks),
            faults: FaultPlan::kill_fraction(fleet.len(), 0.10, 1.5),
            fleet,
        }
    }

    fn session(&self) -> dedisp_fleet::Session<'_> {
        Scheduler::session(&self.fleet)
            .load(&self.load)
            .faults(&self.faults)
    }

    /// One replay under fresh sinks, then the exposition, verified.
    fn replay_verified(&self) -> bool {
        let registry = MetricsRegistry::new();
        let run = with_sinks(&registry, self.fleet.len(), |stack| {
            self.session().run_with(stack).ok()
        });
        let exposition = registry.render_prometheus();
        run.is_some_and(|run| self.workload.verify(&run, &exposition))
    }
}

/// Runs `f` with the full observer stack — metrics registry, flight
/// recorder, live status — freshly built over `registry`.
fn with_sinks<R>(
    registry: &MetricsRegistry,
    devices: usize,
    f: impl FnOnce(&mut Fanout<'_>) -> R,
) -> R {
    let mut metrics = RegistryObserver::new(registry, devices);
    let mut recorder = FlightRecorder::new(RECORDER_EVENTS);
    let mut status = LiveStatus::new(devices);
    let mut stack = Fanout::new()
        .with(&mut metrics)
        .with(&mut recorder)
        .with(&mut status);
    f(&mut stack)
}

impl Live for FleetLive<'_> {
    fn round(&mut self) -> Round {
        let (ok, ms) = timed_ms(|| self.replay_verified());
        Round {
            units: self.load.total_beams() as f64,
            latencies_ms: vec![ms],
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

impl Workload for FleetSurvey {
    fn work_unit(&self) -> &'static str {
        "beam-second scheduled"
    }

    fn result(&self) -> &'static str {
        "one 20-tick replay under the observer stack + render_prometheus"
    }

    fn root(&self) -> &'static str {
        "round"
    }

    fn set_up(&self) -> SetUp<'_> {
        let live = FleetLive::build(self, self.resolve());
        // First result out: one verified replay.
        let failed = u64::from(!live.replay_verified());
        SetUp {
            live: Box::new(live),
            attempted: 1,
            failed,
        }
    }

    fn staged(&self, t: &mut Tracer, seconds: f64) -> Staged {
        let mut staged = Staged::default();
        let fleet = t.span("fleet.resolve", 0, |_| self.resolve());
        let live = FleetLive::build(self, fleet);
        let devices = live.fleet.len();

        // Rounds, stage by stage, each followed by the same replay
        // with no observer attached.
        let mut last = None;
        let replay = Instant::now();
        let mut rounds = 0;
        while rounds == 0 || replay.elapsed().as_secs_f64() < seconds / 2.0 {
            let run = t.span("round", rounds, |t| {
                let registry = MetricsRegistry::new();
                let run = t.span("fleet.run_observed", rounds, |_| {
                    with_sinks(&registry, devices, |stack| {
                        live.session().run_with(stack).ok()
                    })
                });
                let text = t.span("fleet.metrics_render", rounds, |_| {
                    registry.render_prometheus()
                });
                run.filter(|run| self.verify(run, &text))
            });
            staged.attempted += 1;
            staged.failed += u64::from(run.is_none());
            last = run.or(last);
            t.span("fleet.run_null", rounds, |_| live.session().run().ok());
            rounds += 1;
        }

        let mut layers = vec![];
        if let Some(run) = last {
            layers = telemetry_probes(t, &run.log, devices);
            layers.extend([
                ("fleet.events_per_run", run.log.len() as f64),
                ("fleet.deadline_misses", run.report.deadline_misses as f64),
                ("fleet.shed_trials", run.report.total_shed_trials as f64),
            ]);
        }
        let p50 = |name: &str| median(&t.self_ms(name));
        let (observed, null) = (p50("fleet.run_observed"), p50("fleet.run_null"));
        layers.extend([
            ("fleet.resolve_ms", p50("fleet.resolve")),
            ("fleet.run_null_ms_p50", null),
            ("fleet.run_observed_ms_p50", observed),
            ("fleet.observer_overhead_frac", (observed - null) / null),
            ("fleet.metrics_render_ms_p50", p50("fleet.metrics_render")),
            ("fleet.capture_push_drain_mops", capture_push_drain_mops(t)),
        ]);
        staged.layers = layers;
        staged
    }
}

/// Repetitions of each telemetry probe; the median is reported.
const PROBE_REPS: u64 = 9;

/// The telemetry seams on their own, fed one run's event stream: row
/// encoding, batched delivery into the sink stack, the snapshot fold,
/// and the shard frame codec.
fn telemetry_probes(t: &mut Tracer, log: &EventLog, devices: usize) -> Vec<LayerMetric> {
    let ticks: Vec<Vec<TelemetryEvent>> = log.batches().map(|b| b.iter().collect()).collect();
    let events = log.len() as f64;
    let mut frame_bytes = 0;
    for rep in 0..PROBE_REPS {
        t.span("fleet.batch_encode", rep, |_| {
            for tick in &ticks {
                let mut batch = TickBatch::new();
                batch.reserve_tick(tick.len() / 2);
                for event in tick {
                    batch.push(event);
                }
                std::hint::black_box(batch.len());
            }
        });

        with_sinks(&MetricsRegistry::new(), devices, |stack| {
            t.span("fleet.observe_batch", rep, |_| {
                for batch in log.batches() {
                    stack.observe_batch(batch);
                }
            })
        });

        t.span("fleet.snapshot_fold", rep, |_| {
            std::hint::black_box(StatusSnapshot::from_log(devices, log).events_folded)
        });

        let frames: Vec<ShardFrame> = log.batches().cloned().map(ShardFrame::Batch).collect();
        frame_bytes = t.span("fleet.frame_roundtrip", rep, |_| {
            let mut wire = Vec::new();
            for frame in &frames {
                write_msg(&mut wire, frame).expect("writing to memory cannot fail");
            }
            let mut reader = FrameReader::new(wire.as_slice());
            let mut read = 0;
            while let Ok(Some(frame)) = reader.read_msg::<ShardFrame>() {
                read += usize::from(matches!(frame, ShardFrame::Batch(_)));
            }
            assert_eq!(read, frames.len(), "every frame written reads back");
            wire.len()
        });
    }
    let p50 = |name: &str| median(&t.self_ms(name));
    vec![
        (
            "fleet.batch_encode_meps",
            events / p50("fleet.batch_encode") / 1e3,
        ),
        (
            "fleet.observe_batch_meps",
            events / p50("fleet.observe_batch") / 1e3,
        ),
        ("fleet.snapshot_fold_ms", p50("fleet.snapshot_fold")),
        (
            "fleet.frame_roundtrip_mbs",
            frame_bytes as f64 / p50("fleet.frame_roundtrip") / 1e3,
        ),
    ]
}

/// Capture-ring throughput, million operations per second: blocks
/// pushed round-robin over 16 beams, the oldest drained every 64th push.
fn capture_push_drain_mops(t: &mut Tracer) -> f64 {
    const BLOCKS: usize = 1 << 16;
    let mut ops = 0usize;
    for rep in 0..PROBE_REPS {
        let ring = CaptureRing::new(
            16,
            BlockFormat::new(1_024, 2_000),
            4,
            0.75,
            BackpressurePolicy::DropOldest,
        )
        .expect("valid ring shape");
        ops = t.span("fleet.capture_push_drain", rep, |_| {
            let mut ops = 0;
            for i in 0..BLOCKS {
                ops += 1 + ring
                    .push(i % 16, (i / 16) as u64, i as f64 * 1e-3)
                    .evicted
                    .len();
                if i % 64 == 63 {
                    ops += ring.drain_oldest(16).len();
                }
            }
            ops
        });
    }
    ops as f64 / median(&t.self_ms("fleet.capture_push_drain")) / 1e3
}
