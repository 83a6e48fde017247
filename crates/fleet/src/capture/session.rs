//! The capture session: arrivals in, schedulable load out.
//!
//! [`CaptureSession::ingest`] runs a [`PacketSource`] through the
//! bounded [`CaptureRing`] under a drain cadence and produces a
//! [`CaptureRun`]: a [`CaptureLoad`] implementing
//! [`crate::LoadSource`] whose release/deadline times come from the
//! *observed arrivals* plus the ring's survival time, a
//! [`CaptureLedger`] in which every arrival is accounted exactly once,
//! the typed [`TelemetryEvent::Capture`] stream, and the raw arrival
//! log for replay.
//!
//! # Timing contract
//!
//! The drain runs once per `period_s` window, taking up to
//! `drain_max_blocks` globally-oldest blocks as one batch (one load
//! tick). For each batch:
//!
//! * `release` = the **latest** arrival timestamp in the batch — the
//!   batch is schedulable the moment its last block existed, not on a
//!   synthetic cadence;
//! * `deadline` = `max(release, earliest arrival + survival)` where
//!   `survival = capacity_blocks × period_s` — the oldest block in the
//!   batch must be dedispersed before the data that *would have
//!   evicted it* has fully arrived. A deeper ring genuinely buys
//!   deadline slack; a shallow one forwards the stream's pressure to
//!   the scheduler unchanged.
//!
//! Because the drain is globally oldest-first and arrivals are
//! time-ordered, releases are non-decreasing across ticks and every
//! deadline is at or after its release — exactly the [`crate::LoadSource`]
//! contract.
//!
//! # Conservation
//!
//! Every arrival ends in exactly one terminal class: `scheduled`
//! (drained at full fidelity), `degraded` (drained downsampled or
//! narrowed), or `dropped` (evicted from the ring, never scheduled).
//! [`CaptureLedger::conservation_ok`] checks
//! `arrivals == scheduled + degraded + dropped + final_backlog`, and a
//! completed ingest always flushes to `final_backlog == 0` — there is
//! no silent queue for pressure to hide in.

use super::arrivals::{Arrival, PacketSource};
use super::policy::BackpressurePolicy;
use super::ring::{BlockFormat, CaptureRing, Fidelity};
use crate::admission::SHED_TIERS;
use crate::batch::EventLog;
use crate::descriptor::FleetError;
use crate::load::LoadSource;
use crate::obs::trace::{SpanKind, TraceSink};
use crate::telemetry::{CaptureEvent, TelemetryEvent};
use serde::{Deserialize, Serialize};

/// Configuration of a capture session.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Beams the backend delivers.
    pub beams: usize,
    /// Framing of one captured block (one second of one beam).
    pub format: BlockFormat,
    /// Per-beam ring capacity in full-rate blocks; also sets the
    /// survival time (`capacity_blocks × period_s`) the deadline
    /// derivation uses. Size it with
    /// [`super::ring::min_capacity_blocks`] or deeper.
    pub capacity_blocks: usize,
    /// Fraction of per-beam capacity at which the backpressure policy
    /// engages, in `(0, 1]`.
    pub high_watermark: f64,
    /// What to give up when a ring runs hot.
    pub policy: BackpressurePolicy,
    /// Nominal block period (seconds of data per block); the drain
    /// runs once per period.
    pub period_s: f64,
    /// Most blocks one drain may take — the fleet's ingest bandwidth
    /// in blocks per period. Below the arrival rate this is the
    /// slow-drain scenario: the ring fills and the policy decides.
    pub drain_max_blocks: usize,
    /// Trial DMs per beam the downstream plan computes.
    pub trials: usize,
}

impl CaptureConfig {
    /// A config with the scheduler-facing knobs at their defaults:
    /// one-second blocks, a 4-block ring at a 75% watermark,
    /// `DropOldest`, and a drain bandwidth of one full wavefront
    /// (`beams` blocks) per period.
    pub fn new(beams: usize, format: BlockFormat, trials: usize) -> Self {
        Self {
            beams,
            format,
            capacity_blocks: 4,
            high_watermark: 0.75,
            policy: BackpressurePolicy::DropOldest,
            period_s: 1.0,
            drain_max_blocks: beams.max(1),
            trials,
        }
    }
}

/// Every arrival accounted exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureLedger {
    /// Blocks the packet source delivered.
    pub arrivals: usize,
    /// Blocks drained into load at full fidelity.
    pub scheduled: usize,
    /// Blocks drained into load degraded (downsampled or narrowed).
    pub degraded: usize,
    /// Blocks evicted from the ring, never scheduled.
    pub dropped: usize,
    /// Of `dropped`: evicted by [`BackpressurePolicy::DropOldest`].
    pub drops_evicted: usize,
    /// Of `dropped`: a non-dropping policy hit the hard bound anyway.
    pub drops_overflow: usize,
    /// Degradations applied at storage time (≥ `degraded`, since a
    /// degraded-stored block may later be evicted and count as
    /// dropped).
    pub degrade_events: usize,
    /// Drain batches handed to the scheduler (= load ticks).
    pub batches: usize,
    /// Blocks still buffered when ingest ended (0 after a full flush).
    pub final_backlog: usize,
    /// High-water ring footprint in bytes.
    pub peak_bytes: usize,
    /// The hard bound the footprint may never exceed.
    pub byte_bound: usize,
}

impl CaptureLedger {
    /// Whether the ledger reconciles: every arrival is in exactly one
    /// terminal class, drops split cleanly by cause, and the ring
    /// never exceeded its bound.
    pub fn conservation_ok(&self) -> bool {
        self.arrivals == self.scheduled + self.degraded + self.dropped + self.final_backlog
            && self.dropped == self.drops_evicted + self.drops_overflow
            && self.degrade_events >= self.degraded
            && self.peak_bytes <= self.byte_bound
    }
}

/// One drained batch, as a load tick.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatchTick {
    blocks: usize,
    release: f64,
    deadline: f64,
}

/// A [`LoadSource`] derived from observed arrivals.
///
/// Each drain batch is one tick: `beams_at` is the batch's block
/// count, `release`/`deadline` follow the timing contract in the
/// [module docs](self). [`CaptureLoad::ceilings`] carries the per-tick
/// admission ceilings a `NarrowDmPlan` policy imposed; feed both to a
/// scheduler at once with [`crate::Session::capture`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureLoad {
    trials: usize,
    ticks: Vec<BatchTick>,
    ceilings: Vec<usize>,
}

impl CaptureLoad {
    /// Per-tick admission ceilings (kept trials): `trials` for
    /// full-fidelity batches, lower for batches carrying narrowed
    /// blocks. [`crate::Session::capture`] wires them, with the load,
    /// into a session.
    pub fn ceilings(&self) -> &[usize] {
        &self.ceilings
    }
}

impl LoadSource for CaptureLoad {
    fn setup(&self) -> &str {
        "capture"
    }

    fn trials(&self) -> usize {
        self.trials
    }

    fn ticks(&self) -> usize {
        self.ticks.len()
    }

    fn beams_at(&self, tick: usize) -> usize {
        self.ticks[tick].blocks
    }

    fn release(&self, tick: usize) -> f64 {
        self.ticks[tick].release
    }

    fn deadline(&self, tick: usize) -> f64 {
        self.ticks[tick].deadline
    }
}

/// Everything one ingest produced.
#[derive(Debug, Clone)]
pub struct CaptureRun {
    /// The schedulable load derived from the arrivals.
    pub load: CaptureLoad,
    /// Every arrival accounted exactly once.
    pub ledger: CaptureLedger,
    /// The typed capture event stream, in emission order, sealed into
    /// one [`crate::TickBatch`] per drain window. Replayed batch-wise
    /// into a scheduler session's telemetry by
    /// [`crate::Session::capture`].
    pub log: EventLog,
    /// The validated arrivals, in ingest order — replaying this log
    /// through an identically-configured session reproduces the run
    /// exactly (see [`super::ArrivalTrace`]).
    pub arrival_log: Vec<Arrival>,
}

/// An ingest pass over one arrival stream.
pub struct CaptureSession {
    config: CaptureConfig,
    ring: CaptureRing,
    trace: Option<TraceSink>,
}

impl CaptureSession {
    /// Opens a session with `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for invalid ring parameters (see
    /// [`CaptureRing::new`]), a non-positive period, zero drain
    /// bandwidth, zero trials, or a `NarrowDmPlan` that sheds the
    /// scheduler's whole eight-tier ladder.
    pub fn new(config: CaptureConfig) -> Result<Self, FleetError> {
        if !(config.period_s.is_finite() && config.period_s > 0.0) {
            return Err(FleetError::new("capture period must be positive"));
        }
        if config.drain_max_blocks == 0 {
            return Err(FleetError::new(
                "capture drain bandwidth must be at least one block per period",
            ));
        }
        if config.trials == 0 {
            return Err(FleetError::new(
                "capture load must have at least one trial DM",
            ));
        }
        if let BackpressurePolicy::NarrowDmPlan { tiers } = config.policy {
            if tiers >= SHED_TIERS {
                return Err(FleetError::new(
                    "NarrowDmPlan must keep at least one tier of the ladder",
                ));
            }
        }
        let ring = CaptureRing::new(
            config.beams,
            config.format,
            config.capacity_blocks,
            config.high_watermark,
            config.policy,
        )?;
        Ok(Self {
            config,
            ring,
            trace: None,
        })
    }

    /// The session's ring (for live fill inspection in harnesses).
    pub fn ring(&self) -> &CaptureRing {
        &self.ring
    }

    /// Attaches a tracing sink (see [`crate::obs::trace`]): each
    /// drain window records one wall-clock `capture_ingest` span.
    /// Spans never enter the run's log or ledger — a traced ingest's
    /// [`CaptureRun`] is byte-identical to an untraced one.
    #[must_use]
    pub fn trace(mut self, sink: &TraceSink) -> Self {
        self.trace = Some(sink.clone());
        self
    }

    /// Runs `source` to exhaustion through the ring and flushes the
    /// backlog, producing the load, ledger, event stream, and arrival
    /// log.
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] if the source violates its contract:
    /// an out-of-range beam, a non-finite or negative timestamp, or a
    /// stream that goes backwards in time.
    pub fn ingest(self, mut source: impl PacketSource) -> Result<CaptureRun, FleetError> {
        let config = self.config;
        let ring = self.ring;
        let kept_for_narrow = narrowed_ceiling(&config);
        let survival_s = config.capacity_blocks as f64 * config.period_s;

        let mut log = EventLog::new();
        let mut arrival_log: Vec<Arrival> = Vec::new();
        let mut ticks: Vec<BatchTick> = Vec::new();
        let mut ceilings: Vec<usize> = Vec::new();
        let mut ledger = CaptureLedger {
            arrivals: 0,
            scheduled: 0,
            degraded: 0,
            dropped: 0,
            drops_evicted: 0,
            drops_overflow: 0,
            degrade_events: 0,
            batches: 0,
            final_backlog: 0,
            peak_bytes: 0,
            byte_bound: ring.byte_bound(),
        };

        let mut last_at = 0.0f64;
        let mut pending = validate(source.next_arrival(), &config, last_at)?;
        // One drain per period window; `window` is the index of the
        // window the next drain closes.
        let mut window: usize = pending
            .map(|a| (a.at / config.period_s) as usize)
            .unwrap_or(0);
        loop {
            // One wall-clock span per drain window, tagged with the
            // tick the drain would seal. Instrumentation only: the
            // span sees none of the window's data and the window none
            // of the span.
            let _window_span = self
                .trace
                .as_ref()
                .map(|t| t.start(SpanKind::CaptureIngest, None, ticks.len() as u64));
            let drain_at = (window as f64 + 1.0) * config.period_s;
            // Ingest everything that arrives before this window closes.
            while let Some(arrival) = pending {
                if arrival.at >= drain_at {
                    break;
                }
                last_at = arrival.at;
                arrival_log.push(arrival);
                let report = ring.push(arrival.beam, arrival.seq, arrival.at);
                let stored_bytes = match report.stored {
                    Fidelity::Downsampled => (ring.bytes_per_block() / 2).max(1),
                    _ => ring.bytes_per_block(),
                };
                ledger.arrivals += 1;
                log.push(&TelemetryEvent::Capture(CaptureEvent::Arrival {
                    beam: arrival.beam,
                    seq: arrival.seq,
                    at: arrival.at,
                    bytes: stored_bytes,
                }));
                if report.stored.is_degraded() {
                    ledger.degrade_events += 1;
                    log.push(&TelemetryEvent::Capture(CaptureEvent::Degrade {
                        beam: arrival.beam,
                        seq: arrival.seq,
                        at: arrival.at,
                        policy: config.policy,
                    }));
                }
                for (old, cause) in report.evicted {
                    ledger.dropped += 1;
                    match cause {
                        super::policy::CaptureDropCause::Evicted => ledger.drops_evicted += 1,
                        super::policy::CaptureDropCause::Overflow => ledger.drops_overflow += 1,
                    }
                    log.push(&TelemetryEvent::Capture(CaptureEvent::Drop {
                        beam: old.beam,
                        seq: old.seq,
                        at: arrival.at,
                        cause,
                        bytes: old.bytes,
                    }));
                }
                pending = validate(source.next_arrival(), &config, last_at)?;
            }
            // Close the window: drain one batch.
            let batch = ring.drain_oldest(config.drain_max_blocks);
            if !batch.is_empty() {
                let release = batch.iter().map(|b| b.at).fold(f64::NEG_INFINITY, f64::max);
                let oldest = batch.iter().map(|b| b.at).fold(f64::INFINITY, f64::min);
                let deadline = release.max(oldest + survival_s);
                let narrowed = batch.iter().any(|b| b.fidelity == Fidelity::Narrowed);
                for block in &batch {
                    if block.fidelity.is_degraded() {
                        ledger.degraded += 1;
                    } else {
                        ledger.scheduled += 1;
                    }
                }
                ledger.batches += 1;
                log.push(&TelemetryEvent::Capture(CaptureEvent::Drain {
                    tick: ticks.len(),
                    at: drain_at,
                    blocks: batch.len(),
                    release,
                    deadline,
                    backlog_blocks: ring.backlog_blocks(),
                    ring_bytes: ring.bytes(),
                }));
                // One drain window, one sealed batch: downstream batch
                // consumers see the capture cadence block-for-block.
                log.seal();
                ticks.push(BatchTick {
                    blocks: batch.len(),
                    release,
                    deadline,
                });
                ceilings.push(if narrowed {
                    kept_for_narrow
                } else {
                    config.trials
                });
            }
            if pending.is_none() && ring.is_empty() {
                break;
            }
            // Advance to the next window with work in it: skip ahead
            // over idle stretches instead of emitting empty drains.
            window = match (ring.is_empty(), pending) {
                (true, Some(next)) => ((next.at / config.period_s) as usize).max(window + 1),
                _ => window + 1,
            };
        }
        ledger.final_backlog = ring.backlog_blocks();
        ledger.peak_bytes = ring.peak_bytes();
        log.seal();
        Ok(CaptureRun {
            load: CaptureLoad {
                trials: config.trials,
                ticks,
                ceilings,
            },
            ledger,
            log,
            arrival_log,
        })
    }
}

/// The admission ceiling (kept trials) for a batch carrying narrowed
/// blocks: shed the policy's trailing tiers off the ladder.
fn narrowed_ceiling(config: &CaptureConfig) -> usize {
    match config.policy {
        BackpressurePolicy::NarrowDmPlan { tiers } => {
            (config.trials * (SHED_TIERS - tiers) / SHED_TIERS).max(1)
        }
        _ => config.trials,
    }
}

/// Enforces the [`PacketSource`] contract on one arrival.
fn validate(
    arrival: Option<Arrival>,
    config: &CaptureConfig,
    last_at: f64,
) -> Result<Option<Arrival>, FleetError> {
    let Some(a) = arrival else { return Ok(None) };
    if a.beam >= config.beams {
        return Err(FleetError::new("capture arrival for an out-of-range beam"));
    }
    if !a.at.is_finite() || a.at < 0.0 {
        return Err(FleetError::new(
            "capture arrival timestamp must be finite and non-negative",
        ));
    }
    if a.at < last_at {
        return Err(FleetError::new("capture arrival stream went backwards"));
    }
    Ok(Some(a))
}

#[cfg(test)]
mod tests {
    use super::super::arrivals::{ArrivalPattern, ArrivalProcess, ArrivalTrace};
    use super::*;

    fn config(beams: usize, policy: BackpressurePolicy) -> CaptureConfig {
        CaptureConfig {
            policy,
            ..CaptureConfig::new(beams, BlockFormat::new(4, 25), 800)
        }
    }

    fn ingest(config: CaptureConfig, pattern: ArrivalPattern, ticks: usize) -> CaptureRun {
        let source = ArrivalProcess::new(config.beams, ticks, config.period_s, pattern, 11);
        CaptureSession::new(config).unwrap().ingest(source).unwrap()
    }

    #[test]
    fn steady_feasible_ingest_schedules_everything_cleanly() {
        let run = ingest(
            config(3, BackpressurePolicy::DropOldest),
            ArrivalPattern::Steady,
            5,
        );
        let ledger = run.ledger;
        assert!(ledger.conservation_ok());
        assert_eq!(ledger.arrivals, 15);
        assert_eq!(ledger.scheduled, 15);
        assert_eq!(ledger.dropped, 0);
        assert_eq!(ledger.degraded, 0);
        assert_eq!(ledger.final_backlog, 0);
        // One batch per window, each a full wavefront.
        assert_eq!(run.load.ticks(), 5);
        assert_eq!(run.load.total_beams(), 15);
        assert!(run.load.ceilings().iter().all(|&c| c == 800));
    }

    #[test]
    fn load_source_contract_holds() {
        let run = ingest(
            config(4, BackpressurePolicy::DropOldest),
            ArrivalPattern::Jittered { max_jitter_s: 0.7 },
            6,
        );
        let load = &run.load;
        for tick in 0..load.ticks() {
            assert!(load.deadline(tick) >= load.release(tick));
            if tick > 0 {
                assert!(
                    load.release(tick) >= load.release(tick - 1),
                    "releases must be non-decreasing"
                );
            }
        }
        assert_eq!(load.trials(), 800);
        assert_eq!(load.setup(), "capture");
    }

    #[test]
    fn deadlines_carry_the_ring_survival_budget() {
        let cfg = config(2, BackpressurePolicy::DropOldest);
        let run = ingest(cfg, ArrivalPattern::Steady, 4);
        let survival = cfg.capacity_blocks as f64 * cfg.period_s;
        for tick in 0..run.load.ticks() {
            // Feasible steady flow drains every block within its own
            // window: the deadline is oldest-arrival + survival.
            let slack = run.load.deadline(tick) - run.load.release(tick);
            assert!(slack > 0.0 && slack <= survival + 1e-9);
        }
    }

    #[test]
    fn slow_drain_fills_the_ring_and_drops_loudly() {
        // 4 blocks arrive per window, bandwidth is 2: the ring fills
        // and DropOldest must shed, but the bound holds and nothing is
        // silent.
        let cfg = CaptureConfig {
            drain_max_blocks: 2,
            ..config(4, BackpressurePolicy::DropOldest)
        };
        let run = ingest(cfg, ArrivalPattern::Steady, 8);
        let ledger = run.ledger;
        assert!(ledger.conservation_ok());
        assert_eq!(ledger.arrivals, 32);
        assert!(ledger.dropped > 0, "over-rate ingest must drop");
        assert_eq!(ledger.dropped, ledger.drops_evicted);
        assert_eq!(ledger.final_backlog, 0, "the flush leaves no silent queue");
        assert!(ledger.peak_bytes <= ledger.byte_bound);
        // The drop events carry the story.
        let drops = run
            .log
            .iter()
            .filter(|e| e.kind() == "capture_drop")
            .count();
        assert_eq!(drops, ledger.dropped);
    }

    #[test]
    fn bursty_overload_degrades_under_downsample() {
        let cfg = CaptureConfig {
            capacity_blocks: 2,
            high_watermark: 0.5,
            ..config(3, BackpressurePolicy::Downsample2x)
        };
        let run = ingest(cfg, ArrivalPattern::Bursty { cycle_ticks: 4 }, 8);
        let ledger = run.ledger;
        assert!(ledger.conservation_ok());
        assert!(ledger.degraded > 0, "the burst must hit the watermark");
        assert!(ledger.peak_bytes <= ledger.byte_bound);
        let degrade_events = run
            .log
            .iter()
            .filter(|e| e.kind() == "capture_degrade")
            .count();
        assert_eq!(degrade_events, ledger.degrade_events);
        assert!(ledger.degrade_events >= ledger.degraded);
    }

    #[test]
    fn narrow_policy_imposes_admission_ceilings() {
        let cfg = CaptureConfig {
            capacity_blocks: 2,
            high_watermark: 0.5,
            drain_max_blocks: 2,
            ..config(3, BackpressurePolicy::NarrowDmPlan { tiers: 2 })
        };
        let run = ingest(cfg, ArrivalPattern::Bursty { cycle_ticks: 4 }, 8);
        assert!(run.ledger.conservation_ok());
        assert!(run.ledger.degraded > 0);
        // 2 of 8 tiers shed: ceilings drop to 600 of 800 on narrowed
        // batches and stay at 800 on clean ones.
        assert_eq!(run.load.ceilings().len(), run.load.ticks());
        assert!(run.load.ceilings().contains(&600));
        assert!(run.load.ceilings().iter().all(|&c| c == 600 || c == 800));
    }

    #[test]
    fn replaying_the_arrival_log_is_ledger_identical() {
        let cfg = CaptureConfig {
            capacity_blocks: 2,
            drain_max_blocks: 2,
            ..config(4, BackpressurePolicy::Downsample2x)
        };
        let source = ArrivalProcess::new(
            4,
            7,
            cfg.period_s,
            ArrivalPattern::Jittered { max_jitter_s: 0.9 },
            99,
        );
        let first = CaptureSession::new(cfg).unwrap().ingest(source).unwrap();
        let replay = CaptureSession::new(cfg)
            .unwrap()
            .ingest(ArrivalTrace::new(&first.arrival_log))
            .unwrap();
        assert_eq!(replay.ledger, first.ledger);
        assert_eq!(replay.load, first.load);
        assert_eq!(replay.log, first.log);
        assert_eq!(replay.arrival_log, first.arrival_log);
    }

    #[test]
    fn idle_stretches_are_skipped_without_empty_ticks() {
        // Arrivals only in windows 0 and 90: the session must not emit
        // 90 empty batches (or spin) in between.
        let log = vec![
            Arrival {
                at: 0.5,
                beam: 0,
                seq: 0,
            },
            Arrival {
                at: 90.5,
                beam: 0,
                seq: 1,
            },
        ];
        let run = CaptureSession::new(config(1, BackpressurePolicy::DropOldest))
            .unwrap()
            .ingest(ArrivalTrace::new(&log))
            .unwrap();
        assert_eq!(run.load.ticks(), 2);
        assert!(run.ledger.conservation_ok());
        assert_eq!(run.ledger.scheduled, 2);
    }

    #[test]
    fn contract_violations_are_rejected() {
        let cfg = config(2, BackpressurePolicy::DropOldest);
        let bad_beam = vec![Arrival {
            at: 0.1,
            beam: 5,
            seq: 0,
        }];
        assert!(CaptureSession::new(cfg)
            .unwrap()
            .ingest(ArrivalTrace::new(&bad_beam))
            .is_err());
        let backwards = vec![
            Arrival {
                at: 1.0,
                beam: 0,
                seq: 0,
            },
            Arrival {
                at: 0.5,
                beam: 1,
                seq: 0,
            },
        ];
        assert!(CaptureSession::new(cfg)
            .unwrap()
            .ingest(ArrivalTrace::new(&backwards))
            .is_err());
        let negative = vec![Arrival {
            at: -0.1,
            beam: 0,
            seq: 0,
        }];
        assert!(CaptureSession::new(cfg)
            .unwrap()
            .ingest(ArrivalTrace::new(&negative))
            .is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = config(2, BackpressurePolicy::DropOldest);
        assert!(CaptureSession::new(CaptureConfig {
            period_s: 0.0,
            ..base
        })
        .is_err());
        assert!(CaptureSession::new(CaptureConfig {
            drain_max_blocks: 0,
            ..base
        })
        .is_err());
        assert!(CaptureSession::new(CaptureConfig { trials: 0, ..base }).is_err());
        assert!(CaptureSession::new(CaptureConfig {
            policy: BackpressurePolicy::NarrowDmPlan { tiers: 8 },
            ..base
        })
        .is_err());
        assert!(CaptureSession::new(CaptureConfig { beams: 0, ..base }).is_err());
    }
}
