//! The beam scheduler: placement, admission control, and recovery.
//!
//! The scheduler is a virtual-time simulation on the caller's thread.
//! Each device is a value the dispatcher calls (`DeviceSim`): it owns
//! the device's compiled fault schedule and its local clock, takes one
//! assignment or one health probe, and returns a verdict. The
//! dispatcher queues each verdict and handles it before it places the
//! next beam, so at most one beam is ever in flight fleet-wide — a
//! device has no queue to fill, and nothing a run reports depends on
//! the machine it ran on (DESIGN.md §21).
//!
//! A run is configured as a builder-style *session*:
//!
//! ```ignore
//! let run = Scheduler::session(&fleet)
//!     .load(&load)
//!     .faults(&plan)
//!     .run()?;
//! ```
//!
//! The load reaches the scheduler only through the [`LoadSource`]
//! trait, so survey cadences, grid shards, and future async capture
//! front-ends all plug into the same session without touching this
//! module.
//!
//! Placement is greedy earliest-predicted-finish: each beam goes to the
//! eligible device that the cost model says will finish it soonest. For
//! a feasible fleet this is optimal in the §V-D sense — if per-device
//! capacities sum to at least the batch size, some device can always
//! absorb one more beam within the period, so the minimum-finish device
//! certainly can. The choice and the shed cascade behind it are
//! [`crate::placement`]'s one function, which the admission planners
//! call too.
//!
//! Admission control works against the real-time deadline budget at
//! batch granularity, but the decision itself is delegated: the
//! dispatcher keeps one [`DeviceCapacity`] row per device, updated in
//! place, and before a tick's beams are placed it lends that table to
//! the session's [`AdmissionPolicy`] as a
//! [`CapacityView`](crate::CapacityView) (default policy
//! [`PerDeviceGreedy`](crate::PerDeviceGreedy), which reproduces the
//! historical inline arithmetic exactly) for a ruling. Individual beams
//! under further pressure (e.g. re-placed orphans) shed extra tiers on
//! their own; every shed is recorded. A beam that cannot fit even at
//! maximum shed runs anyway, at full resolution, and is reported as a
//! deadline miss. A grid-scope planner or a capture run may
//! additionally impose per-tick admission *ceilings*; the dispatcher
//! admits at the lower of its own level and the ceiling.
//!
//! Every observable fact of a run — admission rulings, placements,
//! bounces, retries, probes, health transitions, terminal outcomes —
//! is emitted as a [`TelemetryEvent`] on one unified stream. The
//! report is a fold over that stream; live consumers can subscribe by
//! passing an [`Observer`] to [`Session::run_with`] — the whole
//! [`crate::obs`] operator plane (metrics registry, flight recorder,
//! live status, HTTP endpoint) attaches through this one seam, so the
//! dispatcher hot path never learns about metrics or servers.
//!
//! # Faults, evidence, and health
//!
//! Faults are discovered, not announced: the [`FaultPlan`] is compiled
//! into the device values, and a down device *bounces* everything it is
//! handed. The dispatcher never reads the plan; it runs a per-device
//! health state machine driven purely by observed evidence:
//!
//! ```text
//! Healthy --bounce / repeated late finishes--> Suspect
//! Suspect --probe answered--> Probation      Suspect --probe down--> Quarantined
//! Quarantined --probe answered (after growing backoff)--> Probation
//! Probation --canary beam on time--> Healthy
//! Probation --canary bounced or late--> Quarantined
//! ```
//!
//! Only `Healthy` devices take normal work (and count toward admission
//! capacity); a `Probation` device takes exactly one *canary* beam at a
//! time. Bounced beams are re-placed under a bounded retry budget with
//! deterministic exponential backoff, and shed whole — loudly — when
//! the budget runs out or nobody eligible remains. Every admitted beam
//! therefore ends in exactly one reported outcome; nothing is lost
//! silently.
//!
//! # Determinism
//!
//! A run is a pure function of `(fleet, load, plan, config)`: identical
//! inputs produce an identical report — every field — and identical
//! ledgers, faulted runs included. The dispatcher is the only thread;
//! it handles each beam's verdict right after placing the beam and each
//! tick's probe replies in device order, so the order of the telemetry
//! stream is fixed by the inputs alone.

use crate::admission::{
    AdmissionDecision, AdmissionPolicy, BeamDemand, CapacityView, DeviceCapacity, PerDeviceGreedy,
    TierLadder, DEADLINE_EPS,
};
use crate::batch::{EventLog, TickBatch};
use crate::capture::CaptureRun;
use crate::descriptor::{AlgorithmRate, FleetError, ResolvedFleet};
use crate::fault::{DeviceFaults, FaultPlan, Gate};
use crate::load::LoadSource;
use crate::metrics::{
    BeamOutcome, BeamRecord, DeviceStats, FleetReport, HealthCause, HealthEvent, HealthState,
    ShedReason, ShedRecord,
};
use crate::obs::trace::{SpanKind, TraceSink};
use crate::placement::{place_beam, Placement};
use crate::survey::BeamJob;
use crate::telemetry::{NullObserver, Observer, StatusSnapshot, TelemetryEvent};
use manycore_sim::Algorithm;
use std::collections::VecDeque;

/// The scheduler's retry tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Most times one beam may be re-placed after bouncing before it
    /// is shed whole ([`ShedReason::RetryBudgetExhausted`]).
    pub retry_budget: usize,
    /// Base of the retry backoff: the first re-placement is immediate,
    /// the `k`-th (k ≥ 2) waits `retry_backoff_s × 2^(k-2)` virtual
    /// seconds. Zero (the default) keeps every retry immediate.
    pub retry_backoff_s: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            retry_budget: 16,
            retry_backoff_s: 0.0,
        }
    }
}

/// Consecutive late completions before a device turns `Suspect`.
const LATE_SUSPECT_AFTER: usize = 2;

/// Initial quarantine re-probe backoff, virtual seconds; doubles after
/// every failed probe.
const PROBE_BACKOFF_S: f64 = 0.25;

/// Ceiling on the quarantine re-probe backoff, virtual seconds.
const PROBE_BACKOFF_CAP_S: f64 = 4.0;

/// The result of a run: the exportable report plus the full ledger and
/// the telemetry stream the report was folded from.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Aggregated, serializable summary.
    pub report: FleetReport,
    /// Terminal state of every admitted beam, in job-index order.
    pub records: Vec<BeamRecord>,
    /// The unified telemetry stream, in emission order, carried in the
    /// batched [`EventLog`] encoding (one sealed [`crate::TickBatch`]
    /// per dispatcher tick). The report's counters are the
    /// [`StatusSnapshot`] folded from exactly these events (see
    /// [`FleetRun::status`]); any prefix folds the same way.
    pub log: EventLog,
}

impl FleetRun {
    /// Folds the full telemetry stream into the run's final status
    /// snapshot.
    pub fn status(&self) -> StatusSnapshot {
        StatusSnapshot::from_log(self.report.devices.len(), &self.log)
    }
}

/// One beam placed on one device, with its predicted window.
#[derive(Debug, Clone, Copy)]
struct Assignment {
    job: BeamJob,
    /// Where [`place_beam`] put it.
    at: Placement,
    /// How many times this beam has been placed (1 on first placement).
    attempt: usize,
    /// Whether this is the probation canary for its device.
    canary: bool,
}

/// A device's verdict — exactly one per assignment or probe.
enum Event {
    /// A beam ran to completion (possibly late, possibly past its
    /// deadline).
    Finished {
        assignment: Assignment,
        actual_finish: f64,
    },
    /// A beam bounced off a down (or glitching) device at virtual time
    /// `at`.
    Bounced { assignment: Assignment, at: f64 },
    /// A health probe came back.
    Probed { device: usize, at: f64, up: bool },
}

/// Entry point for fleet scheduling.
///
/// `Scheduler` is only a namespace: [`Scheduler::session`] opens a
/// builder-style [`Session`], mirrored at grid scope by
/// [`crate::Grid::session`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler;

/// A builder-style scheduling session over one fleet.
///
/// Created by [`Scheduler::session`]; configure it with [`load`]
/// (required), [`faults`], and [`config`], then [`run`] it.
///
/// [`load`]: Session::load
/// [`faults`]: Session::faults
/// [`config`]: Session::config
/// [`run`]: Session::run
#[derive(Clone)]
pub struct Session<'a> {
    config: SchedulerConfig,
    fleet: &'a ResolvedFleet,
    load: Option<&'a dyn LoadSource>,
    faults: Option<&'a FaultPlan>,
    policy: &'a dyn AdmissionPolicy,
    ceilings: Option<&'a [usize]>,
    prelude: Option<&'a EventLog>,
    trace: Option<TraceSink>,
    trace_shard: Option<usize>,
}

impl Scheduler {
    /// Opens a scheduling session over `fleet` with default tunables.
    ///
    /// The session must be given a load before it can run; a fault
    /// plan is optional (none by default), as is the admission policy
    /// (the historical [`PerDeviceGreedy`] by default).
    pub fn session(fleet: &ResolvedFleet) -> Session<'_> {
        Session {
            config: SchedulerConfig::default(),
            fleet,
            load: None,
            faults: None,
            policy: &PerDeviceGreedy,
            ceilings: None,
            prelude: None,
            trace: None,
            trace_shard: None,
        }
    }
}

impl<'a> Session<'a> {
    /// Overrides the scheduler tunables for this session.
    #[must_use]
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the load the session will schedule (required).
    #[must_use]
    pub fn load(mut self, load: &'a dyn LoadSource) -> Self {
        self.load = Some(load);
        self
    }

    /// Sets the failure schedule (defaults to no failures).
    #[must_use]
    pub fn faults(mut self, faults: &'a FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the admission policy (defaults to [`PerDeviceGreedy`], the
    /// historical behaviour).
    #[must_use]
    pub fn policy(mut self, policy: &'a dyn AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Imposes per-tick admission ceilings (kept trials, one entry per
    /// tick): the dispatcher admits each tick at the lower of its own
    /// policy's level and the ceiling, snapped to the tier ladder.
    /// Ticks beyond the slice are unconstrained. This is how a
    /// grid-scope controller threads its coordinated plan into a shard.
    pub(crate) fn admission_ceilings(mut self, ceilings: &'a [usize]) -> Self {
        self.ceilings = Some(ceilings);
        self
    }

    /// Feeds the session from a capture front-end run (see
    /// [`crate::capture`]): sets the run's [`crate::CaptureLoad`] as
    /// the load, imposes the per-tick admission ceilings its
    /// `NarrowDmPlan` pressure derived, and replays the run's
    /// [`TelemetryEvent::Capture`] stream into the session's telemetry
    /// ahead of the scheduling events — so observers, snapshots, and
    /// the returned [`FleetRun::log`] all see the edge. The replay is
    /// batch-wise: the capture log's sealed drain-window batches are
    /// appended whole, never re-encoded event by event.
    #[must_use]
    pub fn capture(mut self, run: &'a CaptureRun) -> Self {
        self.load = Some(&run.load);
        self.ceilings = Some(run.load.ceilings());
        self.prelude = Some(&run.log);
        self
    }

    /// Attaches a tracing sink (see [`crate::obs::trace`]): the tick
    /// loop records wall-clock phase spans (admit / dispatch / drain /
    /// batch-encode / observer-flush, under a per-tick umbrella)
    /// through the [`TraceSink`] seam. Spans never enter the run's
    /// ledger — a traced run's [`FleetRun`] is byte-identical to an
    /// untraced one.
    #[must_use]
    pub fn trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// Tags this session's spans with a shard id (grid shards set
    /// this so one sink serves a whole grid).
    pub(crate) fn trace_shard(mut self, shard: usize) -> Self {
        self.trace_shard = Some(shard);
        self
    }

    /// Runs the session to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for a session without a load, an empty
    /// fleet, a zero-trial load, a device whose `id` is not its position
    /// in the fleet, whose rate table is empty or holds a negative or
    /// non-finite per-beam cost, or whose `seconds_per_beam` is not its
    /// primary row's, an invalid
    /// fault plan (empty flap/slowdown windows, sub-unity slowdown
    /// factors, zero-beam transients, non-finite times), or
    /// (defensively) if any beam fails to reach a terminal state.
    pub fn run(self) -> Result<FleetRun, FleetError> {
        self.run_with(&mut NullObserver)
    }

    /// Runs the session to completion, forwarding the telemetry
    /// stream to `observer` through [`Observer::observe_batch`], one
    /// [`TickBatch`] per tick boundary (a capture prelude arrives
    /// first, in its own drain-window batches). The returned
    /// [`FleetRun::log`] still carries the full stream.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_with(self, observer: &mut dyn Observer) -> Result<FleetRun, FleetError> {
        let fleet = self.fleet;
        let load = self
            .load
            .ok_or_else(|| FleetError::new("session has no load (call .load(...))"))?;
        let no_faults = FaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        faults.validate()?;
        if fleet.is_empty() {
            return Err(FleetError::new("cannot schedule on an empty fleet"));
        }
        if load.trials() == 0 {
            return Err(FleetError::new("load must have at least one trial DM"));
        }
        let capacity = capacity_table(fleet)?;
        // The sink is wall-clock-only instrumentation: the dispatcher
        // holds a clone for its flush-phase spans, the loop below one
        // for the tick phases. Nothing a span records ever reaches
        // the batch, the log, or the report.
        let trace = self.trace.clone();
        let trace_shard = self.trace_shard;
        let mut dispatcher = Dispatcher::new(&self, load, faults, capacity, observer);
        // A capture-fed session replays the ingest-side events first:
        // the capture stream predates every scheduling decision. The
        // prelude arrives already batched (one block per drain
        // window), so it is forwarded and logged batch-wise.
        if let Some(prelude) = self.prelude {
            dispatcher.replay_prelude(prelude);
        }

        let mut next_index = 0usize;
        let span = |kind: SpanKind, tick: usize| {
            trace
                .as_ref()
                .map(|t| t.start(kind, trace_shard, tick as u64))
        };
        for tick in 0..load.ticks() {
            let tick_span = span(SpanKind::Tick, tick);
            dispatcher.tick = tick as u64;
            let release = load.release(tick);
            let deadline = load.deadline(tick);
            let beams = load.beams_at(tick);
            let drain_span = span(SpanKind::Drain, tick);
            dispatcher.send_due_probes(release);
            dispatcher.observe();
            drop(drain_span);
            let admit_span = span(SpanKind::Admit, tick);
            let directive = dispatcher.admit_tick(tick, release, deadline, beams);
            drop(admit_span);
            let dispatch_span = span(SpanKind::Dispatch, tick);
            for beam in 0..beams {
                let job = BeamJob {
                    index: next_index,
                    tick,
                    beam,
                    release,
                    deadline,
                };
                next_index += 1;
                match directive {
                    TickDirective::Place { kept, cascade } => {
                        dispatcher.place(job, job.release, kept, 1, cascade);
                    }
                    TickDirective::ShedAll(reason) => {
                        dispatcher.shed_whole(job, job.release, reason);
                    }
                }
                dispatcher.observe();
            }
            drop(dispatch_span);
            // One tick, one batch: every event this tick encoded
            // reaches the live observer at this deterministic
            // boundary and lands in the run log as one block.
            dispatcher.flush();
            drop(tick_span);
        }

        let Dispatcher {
            records,
            devices,
            log,
            ..
        } = dispatcher;
        let records: Vec<BeamRecord> = records
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| FleetError::new("beam lost without a terminal outcome"))?;
        let stats: Vec<DeviceStats> = devices.iter().map(|d| d.stats).collect();
        let died_at: Vec<Option<f64>> = (0..fleet.len()).map(|d| faults.kill_time(d)).collect();
        let report = FleetReport::build(fleet, load, &log, &stats, &died_at);
        Ok(FleetRun {
            report,
            records,
            log,
        })
    }
}

/// Checks every device the session is about to trust and builds the
/// dispatcher's starting capacity table from the rows it checked: each
/// device idle, healthy, on its primary (`rates[0]`) algorithm at that
/// row's rate.
///
/// A fleet can arrive from outside the program (inside a
/// [`crate::proc`] shard spec), so nothing about it is assumed: the
/// report and the fault schedules index devices by `id`, the policy
/// prices a device from its table and placement from the same row, and
/// [`place_beam`] keeps the first device unless another finishes
/// strictly sooner, which a NaN cost never lets happen.
fn capacity_table(fleet: &ResolvedFleet) -> Result<Vec<DeviceCapacity<'_>>, FleetError> {
    let mut table = Vec::with_capacity(fleet.len());
    for (position, device) in fleet.devices.iter().enumerate() {
        let reject =
            |what: &str| FleetError::new(format!("device {} ({}) {what}", device.id, device.name));
        if device.id != position {
            return Err(reject(&format!(
                "sits at position {position}: ids must count up from 0 in fleet order"
            )));
        }
        let primary = device
            .rates
            .first()
            .ok_or_else(|| reject("has an empty rate table"))?;
        let unusable =
            |r: &AlgorithmRate| !r.seconds_per_beam.is_finite() || r.seconds_per_beam < 0.0;
        if device.rates.iter().any(unusable) {
            return Err(reject("has a negative or non-finite seconds-per-beam"));
        }
        if device.seconds_per_beam != primary.seconds_per_beam {
            return Err(reject(&format!(
                "declares {} seconds per beam but its primary rate row says {}",
                device.seconds_per_beam, primary.seconds_per_beam
            )));
        }
        table.push(
            DeviceCapacity::new(0.0, primary.seconds_per_beam, true)
                .with_rates(primary.algorithm, &device.rates),
        );
    }
    Ok(table)
}

/// What the admission policy's ruling means for the tick's beams.
#[derive(Debug, Clone, Copy)]
enum TickDirective {
    /// Place every beam, preferring `kept` trials; `cascade` allows
    /// per-beam shedding of further tiers under deadline pressure.
    Place { kept: usize, cascade: bool },
    /// Shed the whole batch with this reason.
    ShedAll(ShedReason),
}

/// Dispatcher state: the virtual clocks, health beliefs, and the beam
/// ledger.
struct Dispatcher<'s> {
    /// One row per device — predicted drain time, current algorithm and
    /// its rate, whether it counts toward admission capacity — updated
    /// in place and lent to the admission policy as its `CapacityView`.
    capacity: Vec<DeviceCapacity<'s>>,
    /// Per-device health belief, from observed evidence only.
    health: Vec<HealthState>,
    /// The devices themselves. Only they know the fault schedule: the
    /// dispatcher learns of a fault from a verdict, never from the plan.
    devices: Vec<DeviceSim>,
    /// Verdicts not yet handled, oldest first; [`Dispatcher::observe`]
    /// drains them.
    pending: VecDeque<Event>,
    /// One slot per admitted beam.
    records: Vec<Option<BeamRecord>>,
    /// Beams with a terminal outcome so far.
    accounted: usize,
    trials: usize,
    /// The load's shed-tier ladder.
    ladder: TierLadder,
    /// The session's admission policy.
    policy: &'s dyn AdmissionPolicy,
    /// Per-tick admission ceilings from a grid-scope controller.
    ceilings: Option<&'s [usize]>,
    /// The tick in flight, SoA-encoded; flushed at tick boundaries.
    batch: TickBatch,
    /// The unified telemetry stream, one sealed batch per tick.
    log: EventLog,
    /// Live subscriber to the stream.
    observer: &'s mut dyn Observer,
    /// Wall-clock span sink for the flush phases (never touches the
    /// batch or the log contents).
    trace: Option<TraceSink>,
    /// Shard tag for recorded spans (grid shards set this).
    trace_shard: Option<usize>,
    /// The tick in flight, for span tagging.
    tick: u64,
    /// Consecutive late completions per device.
    late_strikes: Vec<usize>,
    /// Whether a probe is in flight per device.
    probe_pending: Vec<bool>,
    /// Earliest virtual time the next probe may go out, per device.
    probe_at: Vec<f64>,
    /// Current quarantine re-probe backoff, per device.
    probe_backoff: Vec<f64>,
    /// Whether the probation canary is in flight, per device.
    canary_in_flight: Vec<bool>,
    retry_budget: usize,
    retry_backoff_s: f64,
}

impl<'s> Dispatcher<'s> {
    fn new(
        session: &Session<'s>,
        load: &dyn LoadSource,
        faults: &FaultPlan,
        capacity: Vec<DeviceCapacity<'s>>,
        observer: &'s mut dyn Observer,
    ) -> Self {
        let config = &session.config;
        let trials = load.trials();
        let n = capacity.len();
        Self {
            capacity,
            health: vec![HealthState::Healthy; n],
            devices: (0..n)
                .map(|d| DeviceSim::new(d, faults.compile(d)))
                .collect(),
            pending: VecDeque::new(),
            records: vec![None; load.total_beams()],
            accounted: 0,
            trials,
            ladder: TierLadder::new(trials),
            policy: session.policy,
            ceilings: session.ceilings,
            batch: TickBatch::new(),
            log: EventLog::new(),
            observer,
            trace: session.trace.clone(),
            trace_shard: session.trace_shard,
            tick: 0,
            late_strikes: vec![0; n],
            probe_pending: vec![false; n],
            probe_at: vec![0.0; n],
            probe_backoff: vec![PROBE_BACKOFF_S; n],
            canary_in_flight: vec![false; n],
            retry_budget: config.retry_budget,
            retry_backoff_s: config.retry_backoff_s,
        }
    }

    /// Encodes one event into the tick's batch. Nothing reaches the
    /// live observer until [`Dispatcher::flush`] seals the batch at
    /// the tick boundary — the hot path is a columnar append, not a
    /// virtual dispatch.
    fn emit(&mut self, event: TelemetryEvent) {
        self.batch.push(&event);
    }

    /// Seals the tick in flight: hands the batch to the live observer
    /// through the batched seam, then moves it into the run log.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        if let Some(trace) = self.trace.clone() {
            let span = trace.start(SpanKind::ObserverFlush, self.trace_shard, self.tick);
            self.observer.observe_batch(&batch);
            span.finish();
            let span = trace.start(SpanKind::BatchEncode, self.trace_shard, self.tick);
            self.log.push_batch(batch);
            span.finish();
        } else {
            self.observer.observe_batch(&batch);
            self.log.push_batch(batch);
        }
    }

    /// Replays a capture prelude batch-wise: each sealed drain-window
    /// block reaches the observer and the log whole, never re-encoded
    /// event by event.
    fn replay_prelude(&mut self, prelude: &EventLog) {
        for batch in prelude.batches() {
            self.observer.observe_batch(batch);
            self.log.push_batch(batch.clone());
        }
    }

    /// Admission control for one tick's batch: lends the capacity table
    /// to the session's policy for a ruling, applies any grid-scope
    /// ceiling, and emits the [`TelemetryEvent::Admission`] ruling.
    fn admit_tick(
        &mut self,
        tick: usize,
        release: f64,
        deadline: f64,
        beams: usize,
    ) -> TickDirective {
        // Pre-size the tick's batch for its dominant traffic (one
        // `Placed` plus one terminal `Beam` per admitted beam) so the
        // columnar append never reallocates mid-tick.
        self.batch.reserve_tick(beams);
        let demand = BeamDemand {
            release,
            deadline,
            beams,
        };
        let view = CapacityView {
            ladder: &self.ladder,
            devices: &self.capacity,
        };
        let directive = match self.policy.decide(&demand, &view) {
            AdmissionDecision::Admit {
                shed_tiers,
                switches,
            } => {
                self.apply_switches(tick, release, &switches);
                let mut kept = self.ladder.kept_for(shed_tiers);
                if let Some(&ceiling) = self.ceilings.and_then(|c| c.get(tick)) {
                    kept = kept.min(self.ladder.snap(ceiling));
                }
                TickDirective::Place {
                    kept,
                    cascade: true,
                }
            }
            AdmissionDecision::Defer => TickDirective::Place {
                kept: self.trials,
                cascade: false,
            },
            AdmissionDecision::Shed(reason) => TickDirective::ShedAll(reason),
        };
        let (kept_trials, shed_tiers) = match directive {
            TickDirective::Place { kept, .. } => (kept, self.ladder.tiers_for(kept)),
            TickDirective::ShedAll(_) => (0, self.ladder.kept_options().len()),
        };
        self.emit(TelemetryEvent::Admission {
            tick,
            release,
            deadline,
            beams,
            kept_trials,
            shed_tiers,
        });
        directive
    }

    /// Applies an admission ruling's algorithm switches: re-rates each
    /// switched device from its table and emits one
    /// [`TelemetryEvent::AlgorithmSwitch`] per actual change, ahead of
    /// the tick's admission ruling. Unknown algorithms (not in the
    /// device's table) and no-op switches are ignored, so a policy
    /// without an algorithm axis leaves the stream byte-identical.
    fn apply_switches(&mut self, tick: usize, release: f64, switches: &[(usize, Algorithm)]) {
        for &(device, to) in switches {
            let Some(cap) = self.capacity.get_mut(device) else {
                continue;
            };
            let from = cap.algorithm;
            if from == to {
                continue;
            }
            let Some(&row) = cap.rates.iter().find(|r| r.algorithm == to) else {
                continue;
            };
            cap.rerate(row);
            self.emit(TelemetryEvent::AlgorithmSwitch {
                tick,
                device,
                at: release,
                from,
                to,
            });
        }
    }

    /// Records one beam dropped whole at virtual time `at`.
    fn shed_whole(&mut self, job: BeamJob, at: f64, reason: ShedReason) {
        self.record(BeamRecord {
            index: job.index,
            tick: job.tick,
            beam: job.beam,
            outcome: BeamOutcome::ShedWhole { at, reason },
        });
    }

    /// Places (or sheds) one beam that becomes available at `release`,
    /// preferring `preferred` kept trials (the tick's admission level);
    /// `attempt` counts placements of this beam (1 on first). With
    /// `cascade` false (a [`AdmissionDecision::Defer`] ruling) the beam
    /// never sheds further tiers of its own: it fits at `preferred` or
    /// runs to a miss. A device may be handed the beam when it is
    /// healthy, or on probation with its canary slot free.
    fn place(
        &mut self,
        job: BeamJob,
        release: f64,
        preferred: usize,
        attempt: usize,
        cascade: bool,
    ) {
        let eligible = |d: usize, cap: &DeviceCapacity<'_>| {
            cap.healthy || (self.health[d] == HealthState::Probation && !self.canary_in_flight[d])
        };
        let placement = place_beam(
            &self.capacity,
            eligible,
            &self.ladder,
            release,
            job.deadline,
            preferred,
            cascade,
        );
        match placement {
            Some(placement) => self.assign(job, placement, attempt),
            None => self.shed_whole(job, release, ShedReason::NoAliveDevices),
        }
    }

    /// Commits a placement and runs it on the device; the verdict
    /// waits in `pending` for the next [`Dispatcher::observe`]. A
    /// placement on a probation device is its canary.
    fn assign(&mut self, job: BeamJob, at: Placement, attempt: usize) {
        let device = at.device;
        self.capacity[device].avail = at.finish;
        let canary = self.health[device] == HealthState::Probation;
        if canary {
            self.canary_in_flight[device] = true;
        }
        self.emit(TelemetryEvent::Placed {
            index: job.index,
            device,
            at: at.start,
            kept_trials: at.kept,
            attempt,
            canary,
        });
        let assignment = Assignment {
            job,
            at,
            attempt,
            canary,
        };
        self.pending.push_back(self.devices[device].run(assignment));
    }

    /// Handles every pending verdict, oldest first, until none is left:
    /// a bounce re-places its beam, and that placement's verdict queues
    /// behind whatever is still waiting. What waits is either one
    /// beam's verdict or one tick's probe replies in device order, so
    /// the order needs no sort.
    fn observe(&mut self) {
        while let Some(verdict) = self.pending.pop_front() {
            self.handle(verdict);
        }
    }

    /// Probes every suspect/quarantined device whose backoff has
    /// elapsed by `release`, in device order.
    fn send_due_probes(&mut self, release: f64) {
        for d in 0..self.health.len() {
            let probing = matches!(
                self.health[d],
                HealthState::Suspect | HealthState::Quarantined
            );
            if probing && !self.probe_pending[d] && self.probe_at[d] <= release + DEADLINE_EPS {
                self.probe_pending[d] = true;
                self.pending.push_back(self.devices[d].probe(release));
            }
        }
    }

    /// Records one health transition (no-op when the state is
    /// unchanged).
    fn transition(&mut self, device: usize, to: HealthState, cause: HealthCause, at: f64) {
        let from = self.health[device];
        if from == to {
            return;
        }
        self.health[device] = to;
        self.capacity[device].healthy = to == HealthState::Healthy;
        self.emit(TelemetryEvent::Health(HealthEvent {
            at,
            device,
            from,
            to,
            cause,
        }));
    }

    /// Pushes the device's next probe out by its current backoff, then
    /// doubles the backoff (capped).
    fn defer_probe(&mut self, device: usize, now: f64) {
        self.probe_at[device] = now + self.probe_backoff[device];
        self.probe_backoff[device] = (self.probe_backoff[device] * 2.0).min(PROBE_BACKOFF_CAP_S);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Finished {
                assignment,
                actual_finish,
            } => {
                let d = assignment.at.device;
                let job = assignment.job;
                // A late actual finish corrects the optimistic clock.
                let cap = &mut self.capacity[d];
                cap.avail = cap.avail.max(actual_finish);
                let late = actual_finish > assignment.at.finish + DEADLINE_EPS;
                if assignment.canary {
                    self.canary_in_flight[d] = false;
                    if late {
                        self.transition(
                            d,
                            HealthState::Quarantined,
                            HealthCause::CanaryFailed,
                            actual_finish,
                        );
                        self.defer_probe(d, actual_finish);
                    } else {
                        self.transition(
                            d,
                            HealthState::Healthy,
                            HealthCause::CanaryPassed,
                            actual_finish,
                        );
                        self.late_strikes[d] = 0;
                        self.probe_backoff[d] = PROBE_BACKOFF_S;
                    }
                } else if late {
                    self.late_strikes[d] += 1;
                    if self.health[d] == HealthState::Healthy
                        && self.late_strikes[d] >= LATE_SUSPECT_AFTER
                    {
                        self.transition(
                            d,
                            HealthState::Suspect,
                            HealthCause::LateCompletion,
                            actual_finish,
                        );
                        self.probe_at[d] = actual_finish;
                        self.probe_backoff[d] = PROBE_BACKOFF_S;
                    }
                } else {
                    self.late_strikes[d] = 0;
                }
                let outcome = if actual_finish <= job.deadline + DEADLINE_EPS {
                    if assignment.at.kept == self.trials {
                        BeamOutcome::Completed {
                            device: d,
                            finish: actual_finish,
                        }
                    } else {
                        BeamOutcome::Degraded {
                            device: d,
                            finish: actual_finish,
                            kept_trials: assignment.at.kept,
                            shed_trials: self.trials - assignment.at.kept,
                        }
                    }
                } else {
                    BeamOutcome::Missed {
                        device: d,
                        finish: actual_finish,
                        kept_trials: assignment.at.kept,
                    }
                };
                self.record(BeamRecord {
                    index: job.index,
                    tick: job.tick,
                    beam: job.beam,
                    outcome,
                });
            }
            Event::Bounced { assignment, at } => {
                let d = assignment.at.device;
                self.emit(TelemetryEvent::Bounce {
                    index: assignment.job.index,
                    device: d,
                    at,
                    attempt: assignment.attempt,
                });
                if assignment.canary {
                    self.canary_in_flight[d] = false;
                    self.transition(d, HealthState::Quarantined, HealthCause::CanaryFailed, at);
                    self.defer_probe(d, at);
                } else if self.health[d] == HealthState::Healthy {
                    self.transition(d, HealthState::Suspect, HealthCause::Bounce, at);
                    self.late_strikes[d] = 0;
                    self.probe_at[d] = at;
                    self.probe_backoff[d] = PROBE_BACKOFF_S;
                }
                // Recover: the beam re-enters placement at the moment the
                // failure was detected (plus backoff from the second retry
                // on), competing with fresh releases — or is shed whole
                // once its retry budget is gone.
                let job = assignment.job;
                if assignment.attempt > self.retry_budget {
                    self.shed_whole(job, at, ShedReason::RetryBudgetExhausted);
                } else {
                    let delay = if assignment.attempt >= 2 {
                        self.retry_backoff_s * f64::powi(2.0, assignment.attempt as i32 - 2)
                    } else {
                        0.0
                    };
                    let again = job.release.max(at) + delay;
                    self.emit(TelemetryEvent::Retry {
                        index: job.index,
                        at: again,
                        attempt: assignment.attempt + 1,
                    });
                    self.place(job, again, self.trials, assignment.attempt + 1, true);
                }
            }
            Event::Probed { device, at, up } => {
                self.probe_pending[device] = false;
                self.emit(TelemetryEvent::Probe { device, at, up });
                let probing = matches!(
                    self.health[device],
                    HealthState::Suspect | HealthState::Quarantined
                );
                if !probing {
                    return;
                }
                if up {
                    self.transition(device, HealthState::Probation, HealthCause::ProbeUp, at);
                    self.late_strikes[device] = 0;
                } else {
                    self.transition(device, HealthState::Quarantined, HealthCause::ProbeDown, at);
                    self.defer_probe(device, at);
                }
            }
        }
    }

    fn record(&mut self, record: BeamRecord) {
        match record.outcome {
            BeamOutcome::Degraded {
                kept_trials,
                shed_trials,
                ..
            } => self.emit(TelemetryEvent::Shed(ShedRecord {
                index: record.index,
                tick: record.tick,
                beam: record.beam,
                shed_trials,
                kept_trials,
                reason: ShedReason::DeadlinePressure,
            })),
            BeamOutcome::ShedWhole { reason, .. } => self.emit(TelemetryEvent::Shed(ShedRecord {
                index: record.index,
                tick: record.tick,
                beam: record.beam,
                shed_trials: self.trials,
                kept_trials: 0,
                reason,
            })),
            _ => {}
        }
        self.emit(TelemetryEvent::Beam(record));
        let slot = &mut self.records[record.index];
        assert!(slot.is_none(), "beam {} recorded twice", record.index);
        *slot = Some(record);
        self.accounted += 1;
    }
}

/// One simulated device: executes assignments in virtual time, answers
/// health probes, and bounces work its compiled fault schedule forbids.
/// It owns the only copy of the schedule — the dispatcher sees faults
/// exclusively through the verdicts returned here.
struct DeviceSim {
    id: usize,
    faults: DeviceFaults,
    /// Local virtual clock: when the device actually frees up, which
    /// drifts past the dispatcher's prediction under slowdowns.
    clock: f64,
    /// Busy seconds (wasted partial work included) and beams run to
    /// completion so far.
    stats: DeviceStats,
}

impl DeviceSim {
    fn new(id: usize, faults: DeviceFaults) -> Self {
        Self {
            id,
            faults,
            clock: 0.0,
            stats: DeviceStats::default(),
        }
    }

    /// Runs (or bounces) one beam.
    fn run(&mut self, assignment: Assignment) -> Event {
        let start = assignment.at.start.max(self.clock);
        let nominal = assignment.at.finish - assignment.at.start;
        match self.faults.gate(start, nominal) {
            Gate::Bounce { at, wasted } => {
                // Partial work before a mid-beam death is spent but
                // produces nothing.
                self.stats.busy_s += wasted;
                if wasted > 0.0 {
                    self.clock = at;
                }
                Event::Bounced { assignment, at }
            }
            Gate::Run { duration } => {
                self.stats.busy_s += duration;
                self.stats.beams_done += 1;
                self.clock = start + duration;
                Event::Finished {
                    assignment,
                    actual_finish: self.clock,
                }
            }
        }
    }

    /// Zero-cost health check evaluated at virtual time `at`; never
    /// touches the beam ledger.
    fn probe(&self, at: f64) -> Event {
        Event::Probed {
            device: self.id,
            at,
            up: self.faults.up_at(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::SurveyLoad;

    fn run(spb: &[f64], trials: usize, beams: usize, ticks: usize, faults: &FaultPlan) -> FleetRun {
        let fleet = ResolvedFleet::synthetic(trials, spb);
        let load = SurveyLoad::custom(trials, beams, ticks);
        Scheduler::session(&fleet)
            .load(&load)
            .faults(faults)
            .run()
            .unwrap()
    }

    #[test]
    fn feasible_fleet_completes_everything_on_time() {
        // 4 devices × 5 beams/s capacity vs 18 beams/tick offered.
        let run = run(&[0.2; 4], 1000, 18, 3, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.completed, 54);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.degraded, 0);
        assert_eq!(r.shed_whole, 0);
        assert!(r.sheds.is_empty());
        assert!(r.makespan <= 3.0 + DEADLINE_EPS);
        // A healthy run has a quiet recovery ledger.
        assert_eq!(r.bounced, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.probes, 0);
        assert_eq!(r.canaries, 0);
        assert!(r.health_events.is_empty());
        assert!(r
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy && d.bounces == 0));
    }

    #[test]
    fn exact_fit_packing_is_admitted() {
        // Capacity exactly equals offered load: 2 devices × 4 = 8 beams.
        let run = run(&[0.25, 0.25], 800, 8, 2, &FaultPlan::none());
        assert_eq!(run.report.completed, 16);
        assert_eq!(run.report.deadline_misses, 0);
    }

    #[test]
    fn overload_sheds_tiers_instead_of_missing() {
        // One device, 4 beams/s capacity, 5 beams offered: the default
        // policy may shed up to half of each beam, so up to 8 degraded
        // beams fit per second.
        let run = run(&[0.25], 1000, 5, 2, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0, "sheds should absorb the overload");
        assert!(r.degraded > 0);
        assert_eq!(r.completed + r.degraded, 10);
        assert_eq!(r.sheds.len(), r.degraded);
        // Every shed is itemized with consistent arithmetic.
        for shed in &r.sheds {
            assert_eq!(shed.kept_trials + shed.shed_trials, 1000);
            assert!(shed.kept_trials >= 500, "never sheds below the floor");
        }
        assert_eq!(
            r.total_shed_trials,
            r.sheds.iter().map(|s| s.shed_trials).sum::<usize>()
        );
    }

    #[test]
    fn hopeless_overload_reports_misses() {
        // One device needing 3 s/beam: even a full shed cannot fit one
        // beam into the 1 s budget.
        let run = run(&[3.0], 100, 2, 1, &FaultPlan::none());
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 2);
        assert_eq!(r.completed + r.degraded, 0);
        // Missed beams still run in full — no stealth shedding.
        for rec in &run.records {
            if let BeamOutcome::Missed { kept_trials, .. } = rec.outcome {
                assert_eq!(kept_trials, 100);
            }
        }
        // Predicted misses are not *late* finishes: the device did what
        // the model said it would, so it stays healthy.
        assert!(run
            .report
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy));
    }

    #[test]
    fn killing_a_device_loses_no_beams() {
        // Two fast devices; one dies mid-run.
        let faults = FaultPlan::none().with_kill(0, 1.5);
        let run = run(&[0.1, 0.1], 1000, 10, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.admitted, 40);
        // The survivor can absorb the whole load (10 beams/s), so no
        // beam is dropped whole.
        assert_eq!(r.shed_whole, 0);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 40);
        assert_eq!(r.devices[0].died_at, Some(1.5));
        assert_eq!(r.devices[1].died_at, None);
        // The death was observed (bounce → Suspect), probed (down →
        // Quarantined), and never recovered: a permanently dead device
        // answers no probe and gets no canary.
        assert!(r.bounced > 0);
        assert_eq!(r.devices[0].bounces, r.bounced);
        assert_eq!(r.canaries, 0);
        assert_eq!(r.recoveries, 0);
        assert_ne!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[1].final_health, HealthState::Healthy);
    }

    #[test]
    fn killing_everything_sheds_everything_loudly() {
        let faults = FaultPlan::kill_fraction(2, 1.0, 0.0);
        let run = run(&[0.2, 0.2], 500, 4, 2, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 8);
        assert_eq!(r.sheds.len(), 8);
        assert_eq!(r.total_shed_trials, 8 * 500);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 0);
        // Nobody eligible remained — the budget was never the binding
        // constraint here.
        assert!(r
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::NoAliveDevices));
    }

    #[test]
    fn flapped_device_recovers_through_probation() {
        // Device 0 is down on [0.5, 1.6) and then returns; device 1
        // carries the survey meanwhile.
        let faults = FaultPlan::none().with_flap(0, 0.5, 1.6);
        let run = run(&[0.2, 0.2], 1000, 4, 5, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 0);
        assert!(r.bounced > 0, "the outage must be observed");
        assert!(r.probes > 0, "suspect devices are probed");
        assert!(r.canaries > 0, "recovery goes through a canary");
        assert_eq!(r.recoveries, 1, "device 0 comes back exactly once");
        assert_eq!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[0].died_at, None);
        // The canonical evidence chain appears in order for device 0:
        // bounce → Suspect, probe → Probation, canary → Healthy.
        let causes: Vec<HealthCause> = r
            .health_events
            .iter()
            .filter(|e| e.device == 0)
            .map(|e| e.cause)
            .collect();
        assert!(causes.contains(&HealthCause::Bounce));
        assert!(causes.contains(&HealthCause::ProbeUp));
        assert_eq!(causes.last(), Some(&HealthCause::CanaryPassed));
        // While the device was down, no beam completed on it.
        for rec in &run.records {
            if let BeamOutcome::Completed { device: 0, finish } = rec.outcome {
                assert!(
                    finish <= 0.5 + DEADLINE_EPS || finish > 1.6,
                    "no completion inside the outage, got {finish}"
                );
            }
        }
    }

    #[test]
    fn transient_bounces_are_retried_and_the_device_recovers() {
        // Device 0 glitches once at t=1.0 without going down.
        let faults = FaultPlan::none().with_transient(0, 1.0, 1);
        let run = run(&[0.2, 0.2], 1000, 4, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.bounced, 1);
        assert_eq!(r.retries, 1);
        assert_eq!(r.retry_exhausted, 0);
        assert_eq!(r.shed_whole, 0);
        // The glitching device answers its probe (it was never down)
        // and is re-trusted after one canary.
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.devices[0].final_health, HealthState::Healthy);
    }

    #[test]
    fn slowdown_is_observed_as_late_completions() {
        // One device 3× slower over the whole run: completions come in
        // late, the device turns Suspect, and — still answering probes —
        // it cycles through Probation; its canary is late too, so it
        // ends Quarantined, not Healthy.
        let faults = FaultPlan::none().with_slowdown(0, 0.0, 100.0, 3.0);
        let run = run(&[0.2, 0.2], 1000, 4, 4, &faults);
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.bounced, 0, "a slow device bounces nothing");
        assert!(
            r.health_events
                .iter()
                .any(|e| e.device == 0 && e.cause == HealthCause::LateCompletion),
            "late completions must drive the suspicion"
        );
        assert_ne!(r.devices[0].final_health, HealthState::Healthy);
        assert_eq!(r.devices[1].final_health, HealthState::Healthy);
        assert!(r.devices[0].busy_s > 0.0);
    }

    #[test]
    fn retry_budget_exhaustion_sheds_loudly() {
        // Both devices glitch forever; a budget of 1 gives each beam
        // one re-placement before it is shed whole.
        let faults = FaultPlan::none()
            .with_transient(0, 0.0, 1_000)
            .with_transient(1, 0.0, 1_000);
        let fleet = ResolvedFleet::synthetic(500, &[0.2, 0.2]);
        let load = SurveyLoad::custom(500, 2, 1);
        let config = SchedulerConfig {
            retry_budget: 1,
            ..SchedulerConfig::default()
        };
        let run = Scheduler::session(&fleet)
            .config(config)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert!(r.retry_exhausted > 0);
        assert!(r
            .sheds
            .iter()
            .any(|s| s.reason == ShedReason::RetryBudgetExhausted));
    }

    #[test]
    fn retry_backoff_delays_second_and_later_retries() {
        // Three devices: 0 and 1 dead from the start, 2 healthy. The
        // first beam bounces twice; with a backoff base of 0.2 s its
        // second re-placement is released no earlier than 0.2.
        let faults = FaultPlan::none().with_kill(0, 0.0).with_kill(1, 0.0);
        let fleet = ResolvedFleet::synthetic(100, &[0.1, 0.1, 0.1]);
        let load = SurveyLoad::custom(100, 1, 1);
        let config = SchedulerConfig {
            retry_backoff_s: 0.2,
            ..SchedulerConfig::default()
        };
        let run = Scheduler::session(&fleet)
            .config(config)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.retries, 2);
        match run.records[0].outcome {
            BeamOutcome::Completed { device, finish } => {
                assert_eq!(device, 2);
                assert!(
                    finish >= 0.2 + 0.1 - DEADLINE_EPS,
                    "second retry must wait out the backoff, finished at {finish}"
                );
            }
            other => panic!("expected the beam to complete on device 2, got {other:?}"),
        }
    }

    #[test]
    fn empty_fleet_zero_trials_missing_load_and_bad_plans_are_errors() {
        let load = SurveyLoad::custom(100, 1, 1);
        let empty = ResolvedFleet::synthetic(100, &[]);
        assert!(Scheduler::session(&empty).load(&load).run().is_err());
        let fleet = ResolvedFleet::synthetic(0, &[0.5]);
        let zero = SurveyLoad::custom(0, 1, 1);
        assert!(Scheduler::session(&fleet).load(&zero).run().is_err());
        // A session without a load cannot run.
        assert!(Scheduler::session(&fleet).run().is_err());
        // An invalid fault plan is rejected before anything runs.
        let fleet = ResolvedFleet::synthetic(100, &[0.5]);
        let bad = FaultPlan::none().with_flap(0, 2.0, 1.0);
        assert!(Scheduler::session(&fleet)
            .load(&load)
            .faults(&bad)
            .run()
            .is_err());
    }

    #[test]
    fn utilization_and_queue_metrics_are_populated() {
        let run = run(&[0.5], 100, 2, 2, &FaultPlan::none());
        let dev = &run.report.devices[0];
        assert_eq!(dev.beams_done, 4);
        assert!((dev.busy_s - 2.0).abs() < 1e-9);
        assert!(dev.utilization > 0.9);
    }

    #[test]
    fn repeated_sessions_produce_identical_ledgers() {
        let fleet = ResolvedFleet::synthetic(800, &[0.2, 0.3]);
        let load = SurveyLoad::custom(800, 6, 2);
        // A run is a pure function of its inputs, so two sessions over
        // identical inputs produce identical reports and ledgers.
        let first = Scheduler::session(&fleet).load(&load).run().unwrap();
        let second = Scheduler::session(&fleet).load(&load).run().unwrap();
        assert_eq!(first.report, second.report);
        assert_eq!(first.records, second.records);
        assert_eq!(first.log, second.log, "the stream is deterministic");
        // Faulted runs are deterministic too.
        let faults = FaultPlan::none().with_kill(1, 0.9);
        let first = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let second = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        assert!(first.report.conservation_ok());
        assert_eq!(first.report, second.report);
        assert_eq!(first.records, second.records);
        assert_eq!(first.log, second.log);
    }

    #[test]
    fn a_probe_burst_is_handled_in_device_order() {
        // Devices 0–2 are dead from the start and device 3 carries the
        // survey. Tick 0's first beam bounces off each in turn, so from
        // tick 1 on every tick opens with one probe per distrusted
        // device at the same virtual time. `observe` handles verdicts
        // in the order `send_due_probes` queued them — device order —
        // which is why it needs no sort.
        let faults = FaultPlan::none()
            .with_kill(0, 0.0)
            .with_kill(1, 0.0)
            .with_kill(2, 0.0);
        let run = run(&[0.1; 4], 100, 2, 4, &faults);
        assert!(run.report.conservation_ok());
        let probes: Vec<(f64, usize)> = run
            .log
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Probe { device, at, up } => {
                    assert!(!up, "a killed device answers no probe");
                    Some((at, device))
                }
                _ => None,
            })
            .collect();
        let bursts: Vec<(f64, usize)> = [1.0, 2.0, 3.0]
            .iter()
            .flat_map(|&at| (0..3).map(move |device| (at, device)))
            .collect();
        assert_eq!(probes, bursts);
        // Tick 1's burst finds three suspects down: each probe is
        // followed by its own device's quarantine, not by the next
        // device's probe.
        let quarantined: Vec<usize> = run
            .report
            .health_events
            .iter()
            .filter(|e| e.cause == HealthCause::ProbeDown)
            .map(|e| e.device)
            .collect();
        assert_eq!(quarantined, vec![0, 1, 2]);
    }

    #[test]
    fn unusable_fleets_are_errors_naming_the_device() {
        let load = SurveyLoad::custom(100, 4, 2);
        let rejected = |fleet: &ResolvedFleet, named: &str| {
            let err = Scheduler::session(fleet).load(&load).run().unwrap_err();
            assert!(err.to_string().contains(named), "{err}");
        };
        // A NaN cost is never displaced by `place_beam`'s `finish < best`:
        // unchecked, `[NaN, 0.2]` sends every beam to device 0 and
        // reports all of them missed with the healthy device idle.
        for bad in [f64::NAN, f64::INFINITY, -0.1] {
            rejected(&ResolvedFleet::synthetic(100, &[bad, 0.2]), "device 0 ");
            rejected(&ResolvedFleet::synthetic(100, &[0.2, bad]), "device 1 ");
        }
        // The alternate rows are what a demotion re-rates a device
        // from, so they are checked too.
        let sound: &[(Algorithm, f64)] = &[(Algorithm::BruteForce, 0.2)];
        let infinite_alternate: &[(Algorithm, f64)] = &[
            (Algorithm::BruteForce, 0.2),
            (Algorithm::Subband { factor: 32 }, f64::INFINITY),
        ];
        rejected(
            &ResolvedFleet::synthetic_with_algorithms(100, &[sound, infinite_alternate]),
            "device 1 ",
        );
        // A `ResolvedFleet` deserializes from outside (a shard spec), so
        // `id`, the scalar rate and the table are three claims that
        // must agree before anything indexes or prices by them.
        let sound = ResolvedFleet::synthetic(100, &[0.2, 0.3]);
        assert!(Scheduler::session(&sound).load(&load).run().is_ok());
        // Permuted ids would cross the two devices' fault schedules and
        // report rows; an id past the end used to index out of bounds.
        let mut permuted = sound.clone();
        permuted.devices[0].id = 1;
        permuted.devices[1].id = 0;
        rejected(&permuted, "device 1 (synthetic #0) sits at position 0");
        let mut beyond = sound.clone();
        beyond.devices[1].id = 7;
        rejected(&beyond, "device 7 (synthetic #1) sits at position 1");
        // The policy prices a device from its table, placement from the
        // same row: a scalar that says otherwise has no meaning.
        let mut two_rates = sound.clone();
        two_rates.devices[1].seconds_per_beam = 0.1;
        rejected(&two_rates, "device 1 (synthetic #1) declares 0.1 seconds");
        // No table, no starting algorithm — not a silent brute force.
        let mut no_table = sound.clone();
        no_table.devices[0].rates.clear();
        rejected(&no_table, "device 0 (synthetic #0) has an empty rate table");
    }

    /// A policy that sheds every batch outright.
    struct ShedEverything;

    impl AdmissionPolicy for ShedEverything {
        fn decide(&self, _demand: &BeamDemand, _view: &CapacityView<'_>) -> AdmissionDecision {
            AdmissionDecision::Shed(ShedReason::DeadlinePressure)
        }
    }

    #[test]
    fn a_shed_all_policy_drops_every_batch_loudly() {
        let fleet = ResolvedFleet::synthetic(500, &[0.1, 0.1]);
        let load = SurveyLoad::custom(500, 3, 2);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&ShedEverything)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.shed_whole, 6);
        assert_eq!(r.completed + r.degraded + r.deadline_misses, 0);
        assert_eq!(r.total_shed_trials, 6 * 500);
        assert!(r
            .sheds
            .iter()
            .all(|s| s.reason == ShedReason::DeadlinePressure && s.kept_trials == 0));
        // Devices were never touched, so they stay trusted.
        assert!(r
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy && d.beams_done == 0));
    }

    /// A policy that refuses to degrade: full resolution or a miss.
    struct NeverDegrade;

    impl AdmissionPolicy for NeverDegrade {
        fn decide(&self, _demand: &BeamDemand, _view: &CapacityView<'_>) -> AdmissionDecision {
            AdmissionDecision::Defer
        }
    }

    #[test]
    fn a_defer_policy_misses_instead_of_degrading() {
        // The same overload that degrades under the default policy.
        let fleet = ResolvedFleet::synthetic(1000, &[0.25]);
        let load = SurveyLoad::custom(1000, 5, 2);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&NeverDegrade)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.degraded, 0, "Defer must never shed tiers");
        assert!(r.sheds.is_empty());
        assert!(r.deadline_misses > 0);
        assert_eq!(r.completed + r.deadline_misses, 10);
    }

    #[test]
    fn admission_ceilings_cap_the_tick_level() {
        // A feasible fleet that would complete everything at full
        // resolution; a grid-scope ceiling of 750 forces degradation.
        let fleet = ResolvedFleet::synthetic(1000, &[0.2; 4]);
        let load = SurveyLoad::custom(1000, 10, 2);
        let ceilings = [750usize, 1000];
        let run = Scheduler::session(&fleet)
            .load(&load)
            .admission_ceilings(&ceilings)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0);
        // Tick 0 capped at 750 kept, tick 1 unconstrained.
        assert_eq!(r.degraded, 10);
        assert_eq!(r.completed, 10);
        assert!(r.sheds.iter().all(|s| s.kept_trials == 750 && s.tick == 0));
        // Off-ladder ceilings snap to the ladder; ticks beyond the
        // slice are unconstrained.
        let odd = [990usize];
        let run = Scheduler::session(&fleet)
            .load(&load)
            .admission_ceilings(&odd)
            .run()
            .unwrap();
        assert!(run
            .report
            .sheds
            .iter()
            .all(|s| s.kept_trials == 875 && s.tick == 0));
    }

    #[test]
    fn the_stream_folds_into_the_report_and_a_live_observer_sees_it() {
        let fleet = ResolvedFleet::synthetic(512, &[0.08, 0.1, 0.12]);
        let load = SurveyLoad::custom(512, 8, 4);
        let faults = FaultPlan::none().with_flap(0, 0.4, 1.7);
        let mut live = StatusSnapshot::new(fleet.len());
        let run = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run_with(&mut live)
            .unwrap();
        // The live observer saw exactly the stream the run returned.
        assert_eq!(live, run.status());
        // The snapshot's counters agree with the report's fold.
        let r = &run.report;
        assert_eq!(live.completed, r.completed);
        assert_eq!(live.degraded, r.degraded);
        assert_eq!(live.deadline_misses, r.deadline_misses);
        assert_eq!(live.shed_whole, r.shed_whole);
        assert_eq!(live.total_shed_trials, r.total_shed_trials);
        assert_eq!(live.bounced, r.bounced);
        assert_eq!(live.retries, r.retries);
        assert_eq!(live.probes, r.probes);
        assert_eq!(live.canaries, r.canaries);
        assert_eq!(live.recoveries, r.recoveries);
        // Per-device facts match too.
        for (status, device) in live.devices.iter().zip(&r.devices) {
            assert_eq!(status.health, device.final_health);
            assert_eq!(status.bounces, device.bounces);
            assert_eq!(status.queue_depth, 0, "every placement resolved");
        }
        // One admission ruling per tick, in order.
        let ticks: Vec<usize> = run
            .log
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Admission { tick, .. } => Some(tick),
                _ => None,
            })
            .collect();
        assert_eq!(ticks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn capture_run_feeds_the_scheduler_and_its_events_lead_the_stream() {
        use crate::capture::{
            ArrivalPattern, ArrivalProcess, BlockFormat, CaptureConfig, CaptureSession,
        };
        let config = CaptureConfig::new(3, BlockFormat::new(64, 128), 512);
        let source = ArrivalProcess::new(3, 4, config.period_s, ArrivalPattern::Steady, 7);
        let run = CaptureSession::new(config).unwrap().ingest(source).unwrap();
        assert!(run.ledger.conservation_ok());
        assert_eq!(run.ledger.dropped, 0, "steady at capacity never drops");
        let fleet = ResolvedFleet::synthetic(512, &[0.05, 0.05]);
        let fleet_run = Scheduler::session(&fleet).capture(&run).run().unwrap();
        assert!(fleet_run.report.conservation_ok());
        assert_eq!(
            fleet_run.report.admitted, run.ledger.scheduled,
            "every scheduled capture block became a fleet beam"
        );
        // The capture prelude leads the stream: the first event is a
        // capture fact, and the stream's fold carries the capture
        // counters into the status snapshot.
        assert!(matches!(
            fleet_run.log.first(),
            Some(TelemetryEvent::Capture(_))
        ));
        let status = fleet_run.status();
        assert_eq!(status.capture_arrivals, run.ledger.arrivals);
        assert_eq!(status.capture_drops, run.ledger.dropped);
        assert_eq!(status.capture_batches, run.ledger.batches);
        assert_eq!(status.capture_backlog_blocks, 0, "the flush drained it");
    }

    #[test]
    fn algorithm_ladder_session_demotes_under_pressure_and_reports_it() {
        use crate::admission::AlgorithmLadder;
        use crate::descriptor::ResolvedFleet;
        // One device that must shed 5 beams/tick on brute force but
        // fits them all at full resolution on subband.
        let fleet = ResolvedFleet::synthetic_with_algorithms(
            1000,
            &[&[
                (Algorithm::BruteForce, 0.25),
                (Algorithm::Subband { factor: 32 }, 0.125),
            ]],
        );
        let load = SurveyLoad::custom(1000, 5, 2);
        let baseline = Scheduler::session(&fleet).load(&load).run().unwrap();
        assert!(baseline.report.degraded > 0, "greedy must shed here");
        let run = Scheduler::session(&fleet)
            .load(&load)
            .policy(&AlgorithmLadder)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.degraded, 0, "the demotion replaces the shed");
        assert_eq!(r.completed, 10);
        // Exactly one switch event, on tick 0, ahead of its ruling.
        let switches: Vec<TelemetryEvent> = run
            .log
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::AlgorithmSwitch { .. }))
            .collect();
        assert_eq!(switches.len(), 1);
        assert!(matches!(
            switches[0],
            TelemetryEvent::AlgorithmSwitch {
                tick: 0,
                device: 0,
                from: Algorithm::BruteForce,
                to: Algorithm::Subband { factor: 32 },
                ..
            }
        ));
        let status = run.status();
        assert_eq!(status.algorithm_switches, 1);
        assert_eq!(
            status.devices[0].algorithm,
            Algorithm::Subband { factor: 32 }
        );
    }

    #[test]
    fn algorithm_ladder_is_byte_identical_on_single_entry_fleets() {
        use crate::admission::AlgorithmLadder;
        let fleet = ResolvedFleet::synthetic(800, &[0.2, 0.3]);
        let load = SurveyLoad::custom(800, 6, 3);
        let greedy = Scheduler::session(&fleet).load(&load).run().unwrap();
        let ladder = Scheduler::session(&fleet)
            .load(&load)
            .policy(&AlgorithmLadder)
            .run()
            .unwrap();
        assert_eq!(greedy.records, ladder.records);
        assert_eq!(greedy.log, ladder.log, "no alternates, no divergence");
    }

    #[test]
    fn the_log_materializes_the_flat_stream_losslessly() {
        use crate::capture::{
            ArrivalPattern, ArrivalProcess, BlockFormat, CaptureConfig, CaptureSession,
        };
        let fleet = ResolvedFleet::synthetic(100, &[0.1, 0.1]);
        let load = SurveyLoad::custom(100, 3, 2);
        let run = Scheduler::session(&fleet).load(&load).run().unwrap();
        let flat = run.log.to_events();
        assert_eq!(flat.len(), run.log.len());
        assert_eq!(EventLog::from_events(&flat), run.log);
        let config = CaptureConfig::new(2, BlockFormat::new(16, 32), 64);
        let source = ArrivalProcess::new(2, 3, config.period_s, ArrivalPattern::Steady, 11);
        let capture = CaptureSession::new(config).unwrap().ingest(source).unwrap();
        let flat = capture.log.to_events();
        assert_eq!(flat.len(), capture.log.len());
        assert_eq!(EventLog::from_events(&flat), capture.log);
    }
}
