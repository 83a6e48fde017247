//! The grid: cooperating schedulers behind one global ledger.
//!
//! A [`Grid`] session partitions a survey's beams over N *shards* —
//! each an independent [`Scheduler`] over its own [`ResolvedFleet`],
//! running on its own thread — and merges the per-shard
//! [`FleetReport`]s back into a single [`GridReport`]: global deadline
//! misses, a shed ledger with global beam identities, per-shard
//! sub-reports, and a conservation check that holds *across* shards
//! (every admitted beam of the whole survey ends in exactly one
//! terminal outcome on exactly one shard).
//!
//! ```ignore
//! let run = Grid::session(&shards)
//!     .policy(RebalancePolicy::LoadAware)
//!     .load(&load)
//!     .faults(&grid_faults)
//!     .run()?;
//! assert!(run.report.conservation_ok());
//! ```
//!
//! Fault handling is two-layered. Device-level faults inside a shard —
//! kills, flaps, slowdowns, transients — are the shard scheduler's
//! business (bounced work, retries, health tracking, tier shedding). A
//! *whole-shard* kill or flap additionally reaches the grid front-end:
//! beams released while the shard is down are re-homed to surviving
//! shards per the [`RebalancePolicy`], beams already in flight end as
//! recorded whole-beam sheds in the shard's own ledger, and — for
//! flaps — the supervisor restarts the shard when its outage window
//! ends and homes beams back onto it. The per-shard
//! [`crate::ShardCondition`] ledger in the report records every
//! outage, restart, and re-homing — so nothing is ever silently lost,
//! only loudly degraded.

use crate::admission::GridAdmission;
use crate::batch::TickBatch;
use crate::descriptor::{FleetError, ResolvedFleet};
use crate::load::LoadSource;
use crate::metrics::{BeamOutcome, FleetReport, ShedReason};
use crate::obs::trace::{SpanKind, TraceSink};
use crate::proc::{self, ProcConfig, ProcGridLedger, ShardSpec};
use crate::scheduler::{FleetRun, Scheduler};
use crate::shard::{
    partition, GlobalBeam, GridFaultPlan, Partition, RebalancePolicy, ShardCondition,
};
use crate::telemetry::{GridObserver, NullObserver, Observer, StatusSnapshot, TelemetryEvent};
use serde::{Deserialize, Serialize};

/// Entry point for sharded fleet scheduling.
///
/// `Grid` is only a namespace: [`Grid::session`] opens a builder-style
/// [`GridSession`] mirroring [`Scheduler::session`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Grid;

impl Grid {
    /// Opens a grid session over `shards`, one scheduler per entry.
    ///
    /// The session must be given a load before it can run; rebalance
    /// policy, admission, backend, tracing and a [`GridFaultPlan`] are
    /// optional.
    pub fn session(shards: &[ResolvedFleet]) -> GridSession<'_> {
        GridSession {
            shards,
            policy: RebalancePolicy::default(),
            admission: GridAdmission::default(),
            load: None,
            faults: None,
            backend: ShardBackend::InThread,
            trace: None,
        }
    }
}

/// How the grid executes each shard's scheduler.
#[derive(Debug, Clone, Default)]
pub enum ShardBackend {
    /// One scoped thread per shard in this process — the default, and
    /// byte-identical to every historical grid run.
    #[default]
    InThread,
    /// One supervised child process per shard, speaking the framed
    /// protocol of [`crate::proc`]: liveness deadlines, bounded
    /// restart with backoff, and in-thread degradation when spawning
    /// fails. The run's ledgers are identical to [`Self::InThread`];
    /// the supervision story lands in [`GridRun::proc`].
    Process(ProcConfig),
}

/// A builder-style sharded scheduling session.
#[derive(Clone)]
pub struct GridSession<'a> {
    shards: &'a [ResolvedFleet],
    policy: RebalancePolicy,
    admission: GridAdmission,
    load: Option<&'a dyn LoadSource>,
    faults: Option<&'a GridFaultPlan>,
    backend: ShardBackend,
    trace: Option<TraceSink>,
}

impl<'a> GridSession<'a> {
    /// Sets how beams are routed (and re-homed) across shards.
    #[must_use]
    pub fn policy(mut self, policy: RebalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how the grid runs admission control: per-shard (default) or
    /// [`GridAdmission::Coordinated`], where a grid-scope planner trades
    /// shed tiers across shards through per-tick admission ceilings.
    #[must_use]
    pub fn admission(mut self, admission: GridAdmission) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the load the grid will schedule (required).
    #[must_use]
    pub fn load(mut self, load: &'a dyn LoadSource) -> Self {
        self.load = Some(load);
        self
    }

    /// Sets the grid failure schedule (defaults to no failures).
    #[must_use]
    pub fn faults(mut self, faults: &'a GridFaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets how shards execute: in-thread (default) or as supervised
    /// child processes.
    #[must_use]
    pub fn backend(mut self, backend: ShardBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a tracing sink (see [`crate::obs::trace`]): every
    /// shard session records its tick-phase spans (tagged with its
    /// shard id) into the shared sink, the grid merge records a
    /// `grid_merge` span, and with the process backend the supervisor
    /// adds its frame timings and propagates the child's own phase
    /// spans upstream — one timeline across parent and re-exec'd
    /// children. Spans never enter any ledger: a traced run's
    /// [`GridRun`] is byte-identical to an untraced one.
    #[must_use]
    pub fn trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// Runs every shard's scheduler on its own thread and merges the
    /// results into the global ledger.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for a grid with no shards, a session
    /// without a load, a fault plan referring to shards that do not
    /// exist, any per-shard scheduling error (empty shard fleet,
    /// zero-trial load), or — defensively — if a beam fails to appear
    /// exactly once in the merged ledger.
    pub fn run(self) -> Result<GridRun, FleetError> {
        self.run_with(&NullObserver)
    }

    /// Runs the grid like [`GridSession::run`], forwarding every
    /// tick's [`TickBatch`] to `observer` **live**, as the shard
    /// threads emit them.
    ///
    /// The observer is shared by reference across all shard threads
    /// (hence [`GridObserver`]'s `Sync` bound and `&self` callback);
    /// each batch arrives tagged with its shard and already re-keyed
    /// to global beam identity through the same [`GlobalBeam`] tables
    /// the post-run [`ShardEvent`] stream uses. The partition layer's
    /// rebalance decisions are forwarded first, as one shard-less
    /// batch, exactly as they lead the post-run stream. The returned
    /// [`GridRun`] is identical to [`GridSession::run`]'s — live
    /// observation never perturbs scheduling.
    ///
    /// # Errors
    ///
    /// As [`GridSession::run`].
    pub fn run_with(self, observer: &dyn GridObserver) -> Result<GridRun, FleetError> {
        let shards = self.shards;
        if shards.is_empty() {
            return Err(FleetError::new("grid has no shards"));
        }
        let load = self
            .load
            .ok_or_else(|| FleetError::new("grid session has no load (call .load(...))"))?;
        let no_faults = GridFaultPlan::none();
        let faults = self.faults.unwrap_or(&no_faults);
        if let Some(max) = faults.max_shard() {
            if max >= shards.len() {
                return Err(FleetError::new(format!(
                    "fault plan refers to shard {max} but the grid has {} shards",
                    shards.len()
                )));
            }
        }

        let Partition {
            shard_loads,
            rehomed,
            supervisor,
            ceilings,
            rebalances,
        } = partition(load, shards, self.policy, faults, self.admission);
        let plans: Vec<_> = (0..shards.len())
            .map(|s| faults.plan_for(s, shards[s].len()))
            .collect();
        let ceiling_slices: Vec<Option<&[usize]>> = (0..shards.len())
            .map(|s| ceilings.as_ref().map(|c| c[s].as_slice()))
            .collect();

        // The partition layer's rebalance decisions lead the live
        // stream as one shard-less batch, exactly as they lead the
        // post-run `events` vec.
        let mut prelude = TickBatch::new();
        for &(tick, index, from_shard, to_shard) in &rebalances {
            prelude.push(&TelemetryEvent::Rebalance {
                tick,
                index,
                from_shard,
                to_shard,
            });
        }
        if !prelude.is_empty() {
            observer.observe_grid_batch(None, &prelude);
        }

        // One real thread per shard; each runs its shard's session to
        // completion (in-thread backend) or hands the shard to a
        // supervised child process (process backend).
        // Either way the thread re-keys its shard's stream to global
        // beam identity before forwarding, so the shared observer sees
        // the same identities the post-run `ShardEvent` stream carries.
        let backend = &self.backend;
        let trace = &self.trace;
        type ShardResult = Result<(FleetRun, Option<proc::ProcShardLedger>), FleetError>;
        let results: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .zip(&shard_loads)
                .zip(plans.iter().zip(&ceiling_slices))
                .enumerate()
                .map(|(shard, ((fleet, shard_load), (plan, &ceiling)))| {
                    scope.spawn(move || {
                        let mut forward = ShardForward {
                            shard,
                            globals: shard_load.global_beams(),
                            sink: observer,
                        };
                        match backend {
                            ShardBackend::InThread => {
                                let mut session =
                                    Scheduler::session(fleet).load(shard_load).faults(plan);
                                if let Some(ceiling) = ceiling {
                                    session = session.admission_ceilings(ceiling);
                                }
                                if let Some(sink) = trace {
                                    session = session.trace(sink).trace_shard(shard);
                                }
                                session.run_with(&mut forward).map(|run| (run, None))
                            }
                            ShardBackend::Process(proc_config) => {
                                let spec = ShardSpec {
                                    shard,
                                    fleet: fleet.clone(),
                                    load: shard_load.clone(),
                                    plan: plan.clone(),
                                    ceilings: ceiling.map(<[usize]>::to_vec),
                                    chaos: None,
                                    trace: false,
                                };
                                proc::run_shard_traced(
                                    &spec,
                                    proc_config,
                                    &mut forward,
                                    trace.as_ref(),
                                )
                                .map(|(run, ledger)| (run, Some(ledger)))
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard scheduler thread panicked"))
                .collect()
        });
        let mut shard_runs = Vec::with_capacity(shards.len());
        let mut proc_ledgers = Vec::with_capacity(shards.len());
        for (shard, result) in results.into_iter().enumerate() {
            let (run, ledger) =
                result.map_err(|e| FleetError::new(format!("shard {shard}: {e}")))?;
            shard_runs.push(run);
            proc_ledgers.extend(ledger);
        }
        let proc = (!proc_ledgers.is_empty()).then_some(ProcGridLedger {
            shards: proc_ledgers,
        });

        // Merge: re-key every shard-local ledger row by its global beam.
        // One shard-less wall-clock span covers the whole merge (the
        // ledger re-key, the tagged stream rebuild, and the report
        // fold); the merged artifacts never see it.
        let merge_span = self
            .trace
            .as_ref()
            .map(|t| t.start(SpanKind::GridMerge, None, 0));
        let admitted = load.total_beams();
        let mut merged: Vec<Option<GridBeamRecord>> = vec![None; admitted];
        for (shard, (run, shard_load)) in shard_runs.iter().zip(&shard_loads).enumerate() {
            let globals = shard_load.global_beams();
            if globals.len() != run.records.len() {
                return Err(FleetError::new(format!(
                    "shard {shard} reported {} outcomes for {} beams",
                    run.records.len(),
                    globals.len()
                )));
            }
            for (record, global) in run.records.iter().zip(globals) {
                let slot = &mut merged[global.index];
                if slot.is_some() {
                    return Err(FleetError::new(format!(
                        "beam {} reported by two shards",
                        global.index
                    )));
                }
                *slot = Some(GridBeamRecord {
                    index: global.index,
                    tick: global.tick,
                    beam: global.beam,
                    shard,
                    outcome: record.outcome,
                });
            }
        }
        let records: Vec<GridBeamRecord> = merged
            .into_iter()
            .collect::<Option<_>>()
            .ok_or_else(|| FleetError::new("beam lost across shards"))?;

        // The grid's tagged telemetry stream: the partition layer's
        // rebalance decisions first (they predate every placement),
        // then each shard's stream re-keyed to global beam identity.
        // The merged counters are one status fold over the re-keyed
        // batches, and the shed ledger their `sheds` columns tagged
        // with the emitting shard.
        let mut events: Vec<ShardEvent> = prelude
            .iter()
            .map(|event| ShardEvent { shard: None, event })
            .collect();
        let mut totals = StatusSnapshot::new(0);
        let mut sheds = Vec::new();
        for (shard, (run, shard_load)) in shard_runs.iter().zip(&shard_loads).enumerate() {
            let globals = shard_load.global_beams();
            for batch in run.log.batches() {
                let batch = rekeyed(batch, &globals);
                totals.observe_batch(&batch);
                sheds.extend(batch.sheds.iter().map(|shed| GridShedRecord {
                    shard,
                    index: shed.index,
                    tick: shed.tick,
                    beam: shed.beam,
                    shed_trials: shed.shed_trials,
                    kept_trials: shed.kept_trials,
                    reason: shed.reason,
                }));
                events.extend(batch.iter().map(|event| ShardEvent {
                    shard: Some(shard),
                    event,
                }));
            }
        }
        // Shard streams arrive shard-by-shard; the global ledger is
        // ordered by global beam index.
        sheds.sort_by_key(|s| s.index);

        let report = GridReport {
            setup: load.setup().to_string(),
            trials: load.trials(),
            ticks: load.ticks(),
            policy: self.policy,
            admission: self.admission,
            admitted,
            completed: totals.completed,
            degraded: totals.degraded,
            deadline_misses: totals.deadline_misses,
            shed_whole: totals.shed_whole,
            total_shed_trials: totals.total_shed_trials,
            rehomed,
            sheds,
            supervisor,
            shards: shard_runs.iter().map(|r| r.report.clone()).collect(),
            makespan: shard_runs
                .iter()
                .map(|r| r.report.makespan)
                .fold(0.0, f64::max),
        };
        drop(merge_span);
        Ok(GridRun {
            report,
            records,
            shard_runs,
            events,
            proc,
        })
    }
}

/// Re-keys one shard-local batch to global beam identity via the
/// shard's [`GlobalBeam`] table (shard-local job index → global index
/// and tick-wide beam number). Rows without a beam identity pass
/// through unchanged; device indices stay shard-local.
fn rekeyed(batch: &TickBatch, globals: &[GlobalBeam]) -> TickBatch {
    let mut rekeyed = batch.clone();
    rekeyed.rekey(|index| globals.get(index).map(|g| (g.index, g.beam)));
    rekeyed
}

/// The per-shard live-forwarding adapter: a plain [`Observer`] handed
/// to the shard's scheduler session, re-keying each batch through the
/// shard's [`GlobalBeam`] table and handing it — shard-tagged — to the
/// shared [`GridObserver`].
struct ShardForward<'a> {
    shard: usize,
    globals: Vec<GlobalBeam>,
    sink: &'a dyn GridObserver,
}

impl Observer for ShardForward<'_> {
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.sink
            .observe_grid_batch(Some(self.shard), &rekeyed(batch, &self.globals));
    }
}

/// One beam's terminal outcome in the global ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridBeamRecord {
    /// Global job index over the whole survey.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick, across all shards.
    pub beam: usize,
    /// Shard that owned the beam.
    pub shard: usize,
    /// How the beam ended.
    pub outcome: BeamOutcome,
}

/// One recorded shed in the global ledger, tagged with its shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridShedRecord {
    /// Shard that shed the beam.
    pub shard: usize,
    /// Global job index of the beam.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick, across all shards.
    pub beam: usize,
    /// Trial DMs dropped.
    pub shed_trials: usize,
    /// Trial DMs still dedispersed (0 for whole-beam sheds).
    pub kept_trials: usize,
    /// Why the shed happened.
    pub reason: ShedReason,
}

/// One event of the grid's telemetry stream, tagged with the shard that
/// emitted it (`None` for grid-level events such as rebalances).
///
/// Beam identities inside the event are *global*: the grid re-keys each
/// shard's stream through its [`GlobalBeam`] table before tagging.
/// Device indices stay shard-local — pair them with the shard tag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEvent {
    /// Emitting shard; `None` for the grid front-end itself.
    pub shard: Option<usize>,
    /// The event, with global beam identity.
    pub event: TelemetryEvent,
}

/// The result of a grid run: the merged report plus both ledgers.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// Aggregated, serializable global summary.
    pub report: GridReport,
    /// Terminal state of every admitted beam, in global index order.
    pub records: Vec<GridBeamRecord>,
    /// The underlying per-shard runs, in shard order.
    pub shard_runs: Vec<FleetRun>,
    /// The grid's tagged telemetry stream: partition-layer rebalances
    /// first, then every shard's stream re-keyed to global identity.
    pub events: Vec<ShardEvent>,
    /// The supervision ledger, present when the grid ran on
    /// [`ShardBackend::Process`]: per-shard attempts, restarts,
    /// backoffs, and degradations. Deliberately *not* part of
    /// [`GridReport`] — the report's serialized shape (and its pinned
    /// fingerprints) are backend-invariant.
    pub proc: Option<ProcGridLedger>,
}

impl GridRun {
    /// Folds each shard's telemetry stream into a point-in-time
    /// [`StatusSnapshot`], shard order — what `/status/shard/<i>`
    /// serves for each shard.
    pub fn status_snapshots(&self) -> Vec<StatusSnapshot> {
        self.shard_runs.iter().map(FleetRun::status).collect()
    }
}

/// The merged, serializable summary of a grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridReport {
    /// Setup name.
    pub setup: String,
    /// Trial DMs per beam.
    pub trials: usize,
    /// Ticks simulated.
    pub ticks: usize,
    /// Routing policy the grid ran under.
    pub policy: RebalancePolicy,
    /// Admission mode the grid ran under.
    pub admission: GridAdmission,
    /// Beam-seconds admitted across all shards.
    pub admitted: usize,
    /// Beams fully dedispersed on time, grid-wide.
    pub completed: usize,
    /// Beams finished on time with tiers shed, grid-wide.
    pub degraded: usize,
    /// Beams finished after their deadline, grid-wide.
    pub deadline_misses: usize,
    /// Beams dropped whole, grid-wide.
    pub shed_whole: usize,
    /// Total trial DMs shed across all shards.
    pub total_shed_trials: usize,
    /// Beams routed away from their healthy-grid home shard.
    pub rehomed: usize,
    /// Every shed, itemized with global identity and owning shard.
    pub sheds: Vec<GridShedRecord>,
    /// The supervisor's per-shard outage/restart/re-homing ledger.
    pub supervisor: Vec<ShardCondition>,
    /// The per-shard sub-reports, in shard order.
    pub shards: Vec<FleetReport>,
    /// Virtual time the last beam finished anywhere on the grid.
    pub makespan: f64,
}

impl GridReport {
    /// Whether the global ledger is conserved *and* agrees with the
    /// shard ledgers: every admitted beam of the survey ended in
    /// exactly one outcome, each shard's own ledger conserves, and the
    /// merged totals equal the sums over shards.
    pub fn conservation_ok(&self) -> bool {
        let global = self.completed + self.degraded + self.deadline_misses + self.shed_whole
            == self.admitted;
        let shards_conserve = self.shards.iter().all(FleetReport::conservation_ok);
        let sum = |f: fn(&FleetReport) -> usize| self.shards.iter().map(f).sum::<usize>();
        let merged_matches = self.admitted == sum(|s| s.admitted)
            && self.completed == sum(|s| s.completed)
            && self.degraded == sum(|s| s.degraded)
            && self.deadline_misses == sum(|s| s.deadline_misses)
            && self.shed_whole == sum(|s| s.shed_whole)
            && self.total_shed_trials == sum(|s| s.total_shed_trials);
        global && shards_conserve && merged_matches
    }

    /// Physical devices across all shards.
    pub fn devices_total(&self) -> usize {
        self.shards.iter().map(|s| s.devices.len()).sum()
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on plain data, which cannot
    /// happen for this type.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plain report always serializes")
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::SurveyLoad;

    fn grid(spb_per_shard: &[&[f64]], trials: usize) -> Vec<ResolvedFleet> {
        spb_per_shard
            .iter()
            .map(|spb| ResolvedFleet::synthetic(trials, spb))
            .collect()
    }

    #[test]
    fn healthy_grid_completes_everything_and_conserves() {
        let shards = grid(&[&[0.2, 0.2], &[0.2, 0.2]], 1000);
        let load = SurveyLoad::custom(1000, 8, 3);
        let run = Grid::session(&shards).load(&load).run().unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.admitted, 24);
        assert_eq!(r.completed, 24);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.rehomed, 0);
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.devices_total(), 4);
        // The merged ledger is in global index order and complete.
        assert_eq!(run.records.len(), 24);
        for (i, rec) in run.records.iter().enumerate() {
            assert_eq!(rec.index, i);
            assert_eq!(rec.shard, rec.beam % 2, "static hash homes");
        }
    }

    #[test]
    fn shard_kill_rehomes_and_stays_globally_conserved() {
        let shards = grid(&[&[0.1, 0.1], &[0.1, 0.1]], 1000);
        let load = SurveyLoad::custom(1000, 10, 4);
        let faults = GridFaultPlan::none().with_shard_kill(0, 1.5);
        let run = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.admitted, 40);
        assert!(r.rehomed > 0, "later ticks re-home to shard 1");
        // Shard 0's devices are all flagged dead at the kill time.
        for d in &r.shards[0].devices {
            assert_eq!(d.died_at, Some(1.5));
        }
        for d in &r.shards[1].devices {
            assert_eq!(d.died_at, None);
        }
        // From tick 2 on (release ≥ 1.5), every beam runs on shard 1.
        for rec in &run.records {
            if rec.tick >= 2 {
                assert_eq!(rec.shard, 1);
            }
        }
    }

    #[test]
    fn merged_totals_equal_shard_sums_by_construction_check() {
        let shards = grid(&[&[0.3], &[0.5, 0.9]], 500);
        let load = SurveyLoad::custom(500, 6, 2);
        let faults = GridFaultPlan::none().with_device_kill(1, 0, 0.8);
        let run = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        let shard_completed: usize = r.shards.iter().map(|s| s.completed).sum();
        assert_eq!(r.completed, shard_completed);
        assert_eq!(
            r.sheds.len(),
            r.shards.iter().map(|s| s.sheds.len()).sum::<usize>()
        );
    }

    #[test]
    fn flapped_shard_restarts_and_the_grid_recovers() {
        use crate::metrics::HealthState;
        // Shard 0 (2 × 10 beams/s) goes down mid-tick-0 and returns
        // before tick 3.
        let shards = grid(&[&[0.1, 0.1], &[0.1, 0.1]], 1000);
        let load = SurveyLoad::custom(1000, 10, 5);
        let faults = GridFaultPlan::none().with_shard_flap(0, 0.25, 2.9);
        let run = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let r = &run.report;
        assert!(r.conservation_ok());
        assert_eq!(r.admitted, 50);
        assert_eq!(r.deadline_misses, 0);
        // In-flight work at the outage is shed loudly by the shard's
        // own scheduler; released work re-homes to shard 1.
        assert!(r.shed_whole >= 1);
        assert_eq!(r.rehomed, 10, "ticks 1–2 route shard 0's beams away");
        let s0 = &r.supervisor[0];
        assert_eq!(s0.flaps, 1);
        assert_eq!(s0.restarts, 1);
        assert_eq!(s0.rehomed_away, 10);
        assert_eq!(s0.returned_home, 10, "ticks 3–4 run at home again");
        assert_eq!(s0.killed_at, None);
        // The restarted shard's devices recover all the way to Healthy
        // (probe → probation canary → trusted), and nothing after the
        // restart is shed or missed.
        assert!(r.shards[0]
            .devices
            .iter()
            .all(|d| d.final_health == HealthState::Healthy && d.died_at.is_none()));
        assert!(r.shards[0].recoveries >= 2);
        for rec in &run.records {
            // Tick 3 is the restart tick: shard 0's devices are still on
            // probation, so admission may shed tiers while the canaries
            // earn trust back — but nothing misses or is dropped whole.
            if rec.tick == 3 {
                assert!(matches!(
                    rec.outcome,
                    BeamOutcome::Completed { .. } | BeamOutcome::Degraded { .. }
                ));
            }
            // By tick 4 the shard is fully trusted again: full resolution.
            if rec.tick >= 4 {
                assert!(matches!(rec.outcome, BeamOutcome::Completed { .. }));
            }
        }
    }

    #[test]
    fn coordinated_admission_rescues_a_skewed_grid() {
        // StaticHash sends half the tick to the lone slow device of
        // shard 0, which sheds to the floor and still misses; shard 1
        // has headroom to spare. Coordination reroutes by headroom.
        let shards = vec![
            ResolvedFleet::synthetic(1000, &[0.5]),
            ResolvedFleet::synthetic(1000, &[0.1, 0.1, 0.1, 0.1]),
        ];
        let load = SurveyLoad::custom(1000, 10, 3);
        let per_shard = Grid::session(&shards).load(&load).run().unwrap();
        let coordinated = Grid::session(&shards)
            .admission(GridAdmission::Coordinated)
            .load(&load)
            .run()
            .unwrap();
        assert!(per_shard.report.conservation_ok());
        assert!(coordinated.report.conservation_ok());
        assert_eq!(per_shard.report.admission, GridAdmission::PerShard);
        assert_eq!(coordinated.report.admission, GridAdmission::Coordinated);
        let worst = |run: &GridRun| {
            run.report
                .shards
                .iter()
                .map(|s| s.deadline_misses)
                .max()
                .unwrap()
        };
        assert!(
            per_shard.report.deadline_misses > 0,
            "skew hurts un-coordinated"
        );
        assert!(worst(&coordinated) < worst(&per_shard));
        assert!(coordinated.report.total_shed_trials <= per_shard.report.total_shed_trials);
        // The moves show up as grid-level rebalance events.
        let rebalances = coordinated
            .events
            .iter()
            .filter(|e| e.shard.is_none() && matches!(e.event, TelemetryEvent::Rebalance { .. }))
            .count();
        assert!(rebalances > 0);
        assert_eq!(rebalances, coordinated.report.rehomed);
    }

    #[test]
    fn grid_stream_is_globally_keyed_and_snapshots_fold() {
        let shards = grid(&[&[0.2, 0.2], &[0.2, 0.2]], 1000);
        let load = SurveyLoad::custom(1000, 8, 3);
        let run = Grid::session(&shards).load(&load).run().unwrap();
        // Every terminal Beam event in the tagged stream carries the
        // beam's *global* identity and its emitting shard agrees with
        // the merged ledger — exactly once per beam.
        let mut seen = vec![false; run.records.len()];
        for tagged in &run.events {
            if let TelemetryEvent::Beam(r) = &tagged.event {
                assert!(!seen[r.index], "beam {} streamed twice", r.index);
                seen[r.index] = true;
                assert_eq!(tagged.shard, Some(run.records[r.index].shard));
                assert_eq!(r.beam, run.records[r.index].beam);
                assert_eq!(r.tick, run.records[r.index].tick);
            }
        }
        assert!(seen.iter().all(|&s| s), "every beam reaches the stream");
        // The per-shard snapshots fold from the same facts the report
        // aggregates, and a finished run has drained every queue.
        let snapshots = run.status_snapshots();
        assert_eq!(snapshots.len(), 2);
        assert_eq!(
            snapshots.iter().map(|s| s.completed).sum::<usize>(),
            run.report.completed
        );
        assert!(snapshots
            .iter()
            .all(|s| s.devices.iter().all(|d| d.queue_depth == 0)));
        // The tagged stream itself round-trips through serde.
        let json = serde_json::to_string(&run.events[0]).unwrap();
        let back: ShardEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run.events[0]);
    }

    #[test]
    fn live_observers_see_the_rekeyed_stream_without_perturbing_the_run() {
        use crate::obs::{FlightRecorder, GridFanout, GridRegistry, LiveGrid, MetricsRegistry};
        let shards = grid(&[&[0.1, 0.1], &[0.1, 0.1]], 1000);
        let load = SurveyLoad::custom(1000, 10, 4);
        let faults = GridFaultPlan::none().with_shard_flap(0, 0.25, 1.9);

        let live = LiveGrid::new(&[2, 2]);
        let recorder = FlightRecorder::new(1 << 16);
        let registry = MetricsRegistry::new();
        let metrics = GridRegistry::new(&registry, &[2, 2]);
        let sinks: [&dyn GridObserver; 3] = [&live, &recorder, &metrics];
        let observed = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run_with(&GridFanout::new(&sinks))
            .unwrap();
        // Live observation never perturbs scheduling: the report
        // matches an unobserved run field for field.
        let plain = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        assert_eq!(observed.report, plain.report);

        // The recorder saw exactly the post-run stream's events (ring
        // large enough to drop nothing), and the live aggregate folded
        // to the same totals the report carries.
        assert_eq!(recorder.recorded() as usize, observed.events.len());
        assert_eq!(recorder.dropped(), 0);
        let snapshot = live.snapshot();
        assert_eq!(snapshot.completed, observed.report.completed);
        assert_eq!(snapshot.degraded, observed.report.degraded);
        assert_eq!(snapshot.deadline_misses, observed.report.deadline_misses);
        assert_eq!(snapshot.shed_whole, observed.report.shed_whole);
        assert_eq!(
            snapshot.total_shed_trials,
            observed.report.total_shed_trials
        );
        assert_eq!(snapshot.rebalances, observed.report.rehomed);
        // The rebalance prelude reaches every sink's shard-less arm:
        // each counts exactly the stream's `Rebalance` events.
        let rebalances = observed
            .events
            .iter()
            .filter(|e| matches!(e.event, TelemetryEvent::Rebalance { .. }))
            .count();
        assert!(rebalances > 0, "the flap re-homes beams");
        assert_eq!(snapshot.rebalances, rebalances);
        let counted = registry
            .counter("fleet_grid_rebalances_total", "", &[])
            .get();
        assert_eq!(counted as usize, rebalances);
        let shardless = recorder.tail(usize::MAX);
        let shardless = shardless.iter().filter(|r| r.shard.is_none());
        assert_eq!(shardless.count(), rebalances);
        // Per-shard live folds equal the post-run per-shard folds.
        for (s, post) in observed.status_snapshots().iter().enumerate() {
            let live_shard = live.shard_snapshot(s).unwrap();
            assert_eq!(live_shard.completed, post.completed);
            assert_eq!(live_shard.bounced, post.bounced);
            assert_eq!(live_shard.events_folded, post.events_folded);
        }
        // Recorded beam events carry *global* identity: every global
        // index appears exactly once across shards.
        let mut seen = vec![false; observed.records.len()];
        for rec in recorder.tail(usize::MAX) {
            if let TelemetryEvent::Beam(b) = rec.event {
                assert!(!seen[b.index]);
                seen[b.index] = true;
                assert_eq!(rec.shard, Some(observed.records[b.index].shard));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grid_report_json_roundtrip() {
        let shards = grid(&[&[0.2], &[0.2]], 100);
        let load = SurveyLoad::custom(100, 4, 2);
        let faults = GridFaultPlan::none().with_shard_kill(1, 1.0);
        let run = Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let back = GridReport::from_json(&run.report.to_json()).unwrap();
        assert_eq!(back, run.report);
    }

    #[test]
    fn bad_sessions_are_errors() {
        let load = SurveyLoad::custom(100, 2, 1);
        // No shards.
        assert!(Grid::session(&[]).load(&load).run().is_err());
        let shards = grid(&[&[0.2]], 100);
        // No load.
        assert!(Grid::session(&shards).run().is_err());
        // Fault plan referring to a shard that does not exist.
        let faults = GridFaultPlan::none().with_shard_kill(3, 1.0);
        assert!(Grid::session(&shards)
            .load(&load)
            .faults(&faults)
            .run()
            .is_err());
        // A shard with an empty fleet fails loudly, naming the shard.
        let with_empty = vec![
            ResolvedFleet::synthetic(100, &[0.2]),
            ResolvedFleet::synthetic(100, &[]),
        ];
        let err = Grid::session(&with_empty).load(&load).run().unwrap_err();
        assert!(err.to_string().contains("shard 1"));
    }
}
