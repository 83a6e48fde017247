//! The supervisor side: own a shard child process, keep it alive, and
//! keep the grid's telemetry stream exactly as if the shard ran
//! in-thread.
//!
//! [`run_shard_traced`] is the whole contract: hand it a [`ShardSpec`] and a
//! [`ProcConfig`] and it returns the same [`FleetRun`] the in-thread
//! path would have produced, no matter how many times the child died
//! on the way there. The machinery underneath:
//!
//! * **Liveness deadlines.** A dedicated reader thread decodes frames
//!   off the child's stdout; the supervisor waits on a channel with a
//!   30 s per-frame timeout. A shard that stops framing within its
//!   budget is declared dead and killed — hangs and crashes land in
//!   the same restart path.
//! * **Restart with bounded exponential backoff.** A dead or hung
//!   child is re-spawned up to 2 times, sleeping
//!   `50 ms << (attempt - 1)` between attempts. Chaos injection
//!   ([`ProcConfig::chaos`]) is stripped on restart: a chaos kill
//!   fires once.
//! * **Deduplicated replay.** Because a [`ShardSpec`] is deterministic,
//!   a restarted child reproduces the identical frame stream; the
//!   supervisor drops the first `n` batch frames it has already
//!   forwarded and resumes mid-stream. The grid's observers see every
//!   tick exactly once.
//! * **Graceful degradation.** If the child cannot be spawned, or the
//!   restart budget is exhausted, the shard falls back to in-thread
//!   execution in the supervisor's own thread — degraded, recorded as
//!   such in the [`ProcShardLedger`], but never silently lossy.
//!
//! A [`ShardFrame::Fatal`] is the one non-retried outcome: the child
//! is reporting a deterministic scheduling error that an identical
//! respawn would hit identically, so the supervisor fails loudly.

use super::frame::{write_msg, FrameError, FrameReader};
use super::protocol::{ChaosSpec, ShardFrame, ShardSpec};
use crate::batch::EventLog;
use crate::descriptor::FleetError;
use crate::obs::trace::{SpanKind, TraceSink};
use crate::scheduler::FleetRun;
use crate::telemetry::Observer;
use serde::{Deserialize, Serialize};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Per-frame liveness deadline: a child that writes nothing for this
/// long is declared hung and killed.
const LIVENESS: Duration = Duration::from_secs(30);

/// Restarts allowed after the first attempt dies or hangs.
const MAX_RESTARTS: u32 = 2;

/// Backoff before restart `n` is `BACKOFF_BASE_MS << (n - 1)`.
const BACKOFF_BASE_MS: u64 = 50;

/// How to launch shard child processes.
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// The child executable.
    pub program: std::path::PathBuf,
    /// Arguments every child gets (e.g. `["--child"]`).
    pub args: Vec<String>,
    /// Environment variables set on every child.
    pub envs: Vec<(String, String)>,
    /// Supervisor-injected chaos, per shard, first attempt only.
    pub chaos: Vec<(usize, ChaosSpec)>,
}

impl ProcConfig {
    /// A config launching `program` with no arguments.
    pub fn new(program: impl Into<std::path::PathBuf>) -> Self {
        Self {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
            chaos: Vec::new(),
        }
    }

    /// A config re-executing the current binary — the usual shape for
    /// tests and single-binary experiments.
    ///
    /// # Errors
    ///
    /// Fails if the current executable path cannot be resolved.
    pub fn current_exe() -> Result<Self, FleetError> {
        let exe = std::env::current_exe()
            .map_err(|e| FleetError::new(format!("resolving current executable: {e}")))?;
        Ok(Self::new(exe))
    }

    /// Appends an argument passed to every child.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Sets an environment variable on every child.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Injects chaos into one shard's spec, first attempt only.
    #[must_use]
    pub fn chaos(mut self, shard: usize, spec: ChaosSpec) -> Self {
        self.chaos.push((shard, spec));
        self
    }

    fn chaos_for(&self, shard: usize) -> Option<ChaosSpec> {
        self.chaos
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, c)| *c)
    }
}

/// The backoff slept before restart number `restart` (1-based).
fn backoff_ms(restart: u32) -> u64 {
    BACKOFF_BASE_MS.saturating_mul(1_u64.wrapping_shl(restart.saturating_sub(1)))
}

/// How one child attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcOutcome {
    /// The child streamed its ledger and exited.
    Completed,
    /// The stream ended (or broke) without a terminal frame — the
    /// child died mid-run.
    Died {
        /// Batch frames this attempt delivered before dying.
        after_frames: u32,
    },
    /// The child stopped framing for longer than the liveness deadline
    /// and was killed.
    TimedOut {
        /// Batch frames this attempt delivered before hanging.
        after_frames: u32,
    },
    /// The child process could not be spawned at all.
    SpawnFailed,
}

/// One child attempt, as recorded in the shard's process ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcAttempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// How the attempt ended.
    pub outcome: ProcOutcome,
    /// Backoff slept *after* this attempt, if it was retried. This is
    /// the configured value, so the ledger stays deterministic.
    pub backoff_ms: Option<u64>,
}

/// The supervisor's ledger for one shard: every attempt, every
/// restart, and whether the shard ultimately degraded to in-thread
/// execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcShardLedger {
    /// The shard index.
    pub shard: usize,
    /// Every attempt, in order.
    pub attempts: Vec<ProcAttempt>,
    /// Restarts performed (attempts beyond the first).
    pub restarts: u32,
    /// Whether the shard fell back to in-thread execution.
    pub degraded_in_thread: bool,
    /// Batch frames forwarded to the grid's observers, exactly once
    /// each.
    pub frames_forwarded: u64,
    /// Duplicate batch frames dropped during restart replays.
    pub deduped_frames: u64,
}

/// The supervisor's ledger for a whole grid of child shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcGridLedger {
    /// One ledger per shard, in shard order.
    pub shards: Vec<ProcShardLedger>,
}

impl ProcGridLedger {
    /// Total restarts across the grid.
    #[must_use]
    pub fn total_restarts(&self) -> u32 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Whether any shard degraded to in-thread execution.
    #[must_use]
    pub fn any_degraded(&self) -> bool {
        self.shards.iter().any(|s| s.degraded_in_thread)
    }
}

/// How one supervised attempt ended, internally. The ledger is boxed:
/// it carries the whole beam record vector, dwarfing the other arms.
enum AttemptEnd {
    Ledger(Box<super::protocol::ShardLedger>),
    Fatal(String),
    Died { after_frames: u32 },
    TimedOut { after_frames: u32 },
}

/// Runs one shard as a supervised child process, forwarding each batch
/// to `forward` exactly once, and returns the reconstructed
/// [`FleetRun`] plus the supervision ledger.
///
/// The returned run is frame-for-frame identical to what the in-thread
/// path produces from the same spec.
///
/// With a tracing sink the supervisor records its own wall-clock spans
/// (`frame_decode`, `liveness_wait`, `restart_backoff`), sets the
/// spec's `trace` flag so the child records its phase spans too, and
/// injects the child's [`ShardFrame::Trace`] sidecars
/// into the sink — one timeline across parent and re-exec'd children.
/// Trace frames never count toward frame dedupe or liveness-progress
/// accounting, so the run's ledgers are byte-identical to an untraced
/// (`None`) run.
///
/// # Errors
///
/// Returns a [`FleetError`] if the child reports a deterministic
/// scheduling error ([`ShardFrame::Fatal`]), or if the in-thread
/// degradation path itself fails.
pub fn run_shard_traced(
    spec: &ShardSpec,
    config: &ProcConfig,
    forward: &mut dyn Observer,
    trace: Option<&TraceSink>,
) -> Result<(FleetRun, ProcShardLedger), FleetError> {
    let mut ledger = ProcShardLedger {
        shard: spec.shard,
        attempts: Vec::new(),
        restarts: 0,
        degraded_in_thread: false,
        frames_forwarded: 0,
        deduped_frames: 0,
    };
    // The grid-visible log, reconstructed batch by batch across
    // attempts. Because the child's dispatcher hands its observer
    // exactly the batches it folds into its own log, this rebuilds the
    // child's `FleetRun::log` identically.
    let mut log = EventLog::new();

    let max_attempts = MAX_RESTARTS + 1;
    for attempt in 1..=max_attempts {
        // Chaos rides the first attempt only: the whole point of a
        // restart is to re-run the spec *without* the self-inflicted
        // kill.
        let attempt_spec = ShardSpec {
            chaos: if attempt == 1 {
                spec.chaos.or_else(|| config.chaos_for(spec.shard))
            } else {
                None
            },
            trace: trace.is_some(),
            ..spec.clone()
        };

        let mut command = Command::new(&config.program);
        command.args(&config.args);
        for (key, value) in &config.envs {
            command.env(key, value);
        }
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());

        let child = match command.spawn() {
            Ok(child) => child,
            Err(_) => {
                // No executable, no fork budget, whatever: degrade to
                // in-thread right away rather than burning the restart
                // budget on an environment that cannot spawn.
                ledger.attempts.push(ProcAttempt {
                    attempt,
                    outcome: ProcOutcome::SpawnFailed,
                    backoff_ms: None,
                });
                return degrade_in_thread(spec, forward, ledger, trace);
            }
        };

        match supervise_attempt(child, &attempt_spec, forward, &mut ledger, &mut log, trace) {
            Ok(AttemptEnd::Ledger(shard_ledger)) => {
                ledger.attempts.push(ProcAttempt {
                    attempt,
                    outcome: ProcOutcome::Completed,
                    backoff_ms: None,
                });
                let run = FleetRun {
                    report: shard_ledger.report,
                    records: shard_ledger.records,
                    log: std::mem::take(&mut log),
                };
                return Ok((run, ledger));
            }
            Ok(AttemptEnd::Fatal(why)) => {
                // Deterministic failure: restart would reproduce it.
                ledger.attempts.push(ProcAttempt {
                    attempt,
                    outcome: ProcOutcome::Completed,
                    backoff_ms: None,
                });
                return Err(FleetError::new(format!(
                    "shard {} child reported a fatal error: {why}",
                    spec.shard
                )));
            }
            Ok(AttemptEnd::Died { after_frames }) => {
                record_retry(
                    &mut ledger,
                    attempt,
                    max_attempts,
                    ProcOutcome::Died { after_frames },
                    trace,
                    spec.shard,
                );
            }
            Ok(AttemptEnd::TimedOut { after_frames }) => {
                record_retry(
                    &mut ledger,
                    attempt,
                    max_attempts,
                    ProcOutcome::TimedOut { after_frames },
                    trace,
                    spec.shard,
                );
            }
            Err(e) => return Err(e),
        }
    }

    // Restart budget exhausted: the show goes on in-thread.
    degrade_in_thread(spec, forward, ledger, trace)
}

/// Records a failed attempt and sleeps its backoff if a retry follows.
fn record_retry(
    ledger: &mut ProcShardLedger,
    attempt: u32,
    max_attempts: u32,
    outcome: ProcOutcome,
    trace: Option<&TraceSink>,
    shard: usize,
) {
    let will_retry = attempt < max_attempts;
    let backoff_ms = will_retry.then(|| backoff_ms(attempt));
    ledger.attempts.push(ProcAttempt {
        attempt,
        outcome,
        backoff_ms,
    });
    if let Some(ms) = backoff_ms {
        ledger.restarts += 1;
        let span =
            trace.map(|t| t.start(SpanKind::RestartBackoff, Some(shard), u64::from(attempt)));
        std::thread::sleep(Duration::from_millis(ms));
        drop(span);
    }
}

/// Supervises one spawned child to its end: writes the spec, decodes
/// frames under the liveness deadline, forwards fresh batches, dedupes
/// replayed ones.
fn supervise_attempt(
    mut child: Child,
    spec: &ShardSpec,
    forward: &mut dyn Observer,
    ledger: &mut ProcShardLedger,
    log: &mut EventLog,
    trace: Option<&TraceSink>,
) -> Result<AttemptEnd, FleetError> {
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| FleetError::new("child stdout was not piped"))?;
    let mut stdin = child
        .stdin
        .take()
        .ok_or_else(|| FleetError::new("child stdin was not piped"))?;

    // The child reads its whole spec before framing anything, so
    // writing first cannot deadlock; if the child died on arrival the
    // write fails and the attempt ends as a death below.
    let spec_sent = write_msg(&mut stdin, spec).is_ok();
    drop(stdin);

    // A dedicated reader thread turns the blocking pipe into a channel
    // the supervisor can wait on with a deadline.
    let (tx, rx) = mpsc::channel::<Result<ShardFrame, FrameError>>();
    let reader_trace = trace.cloned();
    let reader_shard = spec.shard;
    let reader = std::thread::spawn(move || {
        let mut frames = FrameReader::new(stdout);
        let mut ordinal: u64 = 0;
        loop {
            // `frame_decode` covers the whole pull: waiting on the
            // pipe plus decoding the frame off it.
            let span = reader_trace
                .as_ref()
                .map(|t| t.start(SpanKind::FrameDecode, Some(reader_shard), ordinal));
            let next = frames.read_msg::<ShardFrame>();
            drop(span);
            ordinal += 1;
            match next {
                Ok(Some(frame)) => {
                    // Only a ledger or a fatal closes the conversation;
                    // batches and trace sidecars keep it open.
                    let terminal = matches!(frame, ShardFrame::Ledger(_) | ShardFrame::Fatal(_));
                    if tx.send(Ok(frame)).is_err() || terminal {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        }
    });

    // Frames already replayed to the grid in earlier attempts: the
    // deterministic prefix to drop before forwarding resumes.
    let already_forwarded = ledger.frames_forwarded;
    let mut seen: u64 = 0;
    let end = loop {
        if !spec_sent && seen == 0 {
            // The pipe rejected the spec: the child is already gone.
            break AttemptEnd::Died { after_frames: 0 };
        }
        let wait_span = trace.map(|t| t.start(SpanKind::LivenessWait, Some(spec.shard), seen));
        let received = rx.recv_timeout(LIVENESS);
        drop(wait_span);
        match received {
            Ok(Ok(ShardFrame::Batch(batch))) => {
                if batch.validate().is_err() {
                    // A malformed batch from a live pipe is corruption,
                    // not determinism — treat it as a death and let the
                    // restart path take over.
                    break AttemptEnd::Died {
                        after_frames: clamp_frames(seen),
                    };
                }
                seen += 1;
                if seen <= already_forwarded {
                    // Replay of a batch an earlier attempt already
                    // forwarded: drop it.
                    ledger.deduped_frames += 1;
                } else {
                    forward.observe_batch(&batch);
                    log.push_batch(batch);
                    ledger.frames_forwarded += 1;
                }
            }
            Ok(Ok(ShardFrame::Trace(spans))) => {
                // The child's own spans, merged onto the parent's
                // timeline. Deliberately outside every other ledger
                // line: a trace frame moves no dedupe counter and no
                // frame total, so traced and untraced supervision
                // account identically.
                if let Some(sink) = trace {
                    for span in spans {
                        sink.record(span);
                    }
                }
            }
            Ok(Ok(ShardFrame::Ledger(shard_ledger))) => {
                break AttemptEnd::Ledger(Box::new(shard_ledger))
            }
            Ok(Ok(ShardFrame::Fatal(why))) => break AttemptEnd::Fatal(why),
            Ok(Err(_)) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Broken frame or stream end without a terminal frame:
                // the child crashed.
                break AttemptEnd::Died {
                    after_frames: clamp_frames(seen),
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                break AttemptEnd::TimedOut {
                    after_frames: clamp_frames(seen),
                };
            }
        }
    };

    // Whatever happened, the child does not outlive its attempt.
    let _ = child.kill();
    let _ = child.wait();
    let _ = reader.join();
    Ok(end)
}

fn clamp_frames(seen: u64) -> u32 {
    u32::try_from(seen).unwrap_or(u32::MAX)
}

/// Runs the shard in-thread (the degradation path), skipping the
/// batches earlier child attempts already forwarded.
fn degrade_in_thread(
    spec: &ShardSpec,
    forward: &mut dyn Observer,
    mut ledger: ProcShardLedger,
    trace: Option<&TraceSink>,
) -> Result<(FleetRun, ProcShardLedger), FleetError> {
    ledger.degraded_in_thread = true;
    let mut dedup = DedupForward {
        inner: forward,
        skip: ledger.frames_forwarded,
        seen: 0,
        deduped: 0,
        forwarded: 0,
    };
    // The in-thread run's own log is complete and authoritative, so
    // the partially reconstructed one is dropped.
    let run = spec.session(trace).run_with(&mut dedup)?;
    ledger.deduped_frames += dedup.deduped;
    ledger.frames_forwarded += dedup.forwarded;
    Ok((run, ledger))
}

/// An observer adapter that drops the first `skip` batches (already
/// forwarded by dead child attempts) and forwards the rest.
struct DedupForward<'a> {
    inner: &'a mut dyn Observer,
    skip: u64,
    seen: u64,
    deduped: u64,
    forwarded: u64,
}

impl Observer for DedupForward<'_> {
    fn observe_batch(&mut self, batch: &crate::batch::TickBatch) {
        self.seen += 1;
        if self.seen <= self.skip {
            self.deduped += 1;
            return;
        }
        self.forwarded += 1;
        self.inner.observe_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_restart() {
        assert_eq!(backoff_ms(1), 50);
        assert_eq!(backoff_ms(2), 100);
        assert_eq!(backoff_ms(3), 200);
    }

    #[test]
    fn builders_compose() {
        let config = ProcConfig::new("shard-bin")
            .arg("--child")
            .env("RUST_LOG", "warn")
            .chaos(
                1,
                ChaosSpec {
                    kill_after_frames: 2,
                },
            );
        assert_eq!(config.args, vec!["--child"]);
        assert_eq!(config.envs, vec![("RUST_LOG".into(), "warn".into())]);
        assert_eq!(
            config.chaos_for(1),
            Some(ChaosSpec {
                kill_after_frames: 2
            })
        );
        assert_eq!(config.chaos_for(0), None);
    }

    #[test]
    fn dedup_forward_accounts_for_every_batch_offered() {
        use crate::batch::{EventLog, TickBatch};
        use crate::telemetry::TelemetryEvent;
        let offered = 5u64;
        for skip in 0..=offered + 2 {
            let mut log = EventLog::new();
            let mut dedup = DedupForward {
                inner: &mut log,
                skip,
                seen: 0,
                deduped: 0,
                forwarded: 0,
            };
            for i in 0..offered {
                dedup.observe_batch(&TickBatch::of(&TelemetryEvent::Probe {
                    device: 0,
                    at: i as f64,
                    up: true,
                }));
            }
            // Nothing reaches the inner sink except through the
            // counted path: skipped + forwarded is everything offered.
            assert_eq!(dedup.forwarded + dedup.deduped, offered);
            assert_eq!(dedup.deduped, skip.min(offered));
            assert_eq!(log.len() as u64, offered - skip.min(offered));
        }
    }

    #[test]
    fn spawn_failure_degrades_to_in_thread() {
        use crate::admission::GridAdmission;
        use crate::descriptor::ResolvedFleet;
        use crate::fault::FaultPlan;
        use crate::scheduler::Scheduler;
        use crate::shard::{partition, GridFaultPlan, RebalancePolicy};
        use crate::survey::SurveyLoad;
        use crate::telemetry::NullObserver;

        let shards = vec![
            ResolvedFleet::synthetic(300, &[0.1, 0.1]),
            ResolvedFleet::synthetic(300, &[0.1]),
        ];
        let load = SurveyLoad::custom(300, 5, 2);
        let part = partition(
            &load,
            &shards,
            RebalancePolicy::default(),
            &GridFaultPlan::none(),
            GridAdmission::default(),
        );
        let spec = ShardSpec {
            shard: 0,
            fleet: shards[0].clone(),
            load: part.shard_loads[0].clone(),
            plan: FaultPlan::none(),
            ceilings: None,
            chaos: None,
            trace: false,
        };
        let config = ProcConfig::new("/nonexistent/shard-binary-for-test");
        let (run, ledger) = run_shard_traced(&spec, &config, &mut NullObserver, None).unwrap();
        assert!(ledger.degraded_in_thread);
        assert_eq!(ledger.attempts.len(), 1);
        assert_eq!(ledger.attempts[0].outcome, ProcOutcome::SpawnFailed);
        assert_eq!(ledger.restarts, 0);

        let reference = Scheduler::session(&spec.fleet)
            .load(&spec.load)
            .run()
            .unwrap();
        assert_eq!(run.records, reference.records);
        assert_eq!(run.log, reference.log);
    }
}
