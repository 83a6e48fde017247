//! Outcome accounting and the serializable fleet report.
//!
//! Every admitted beam-second ends in exactly one terminal state, and
//! every shed — partial (trailing DM tiers dropped to make a deadline)
//! or whole (no device left to run the beam, or its retry budget
//! exhausted) — is recorded. The [`FleetReport`] is the serde artifact
//! an operator would ship to a dashboard: per-device utilization,
//! queue depth, and health, deadline misses, the full shed ledger, and
//! the recovery ledger (bounces, retries, probes, canaries, and every
//! health-state transition).
//!
//! The report is a **fold over the telemetry stream**
//! ([`crate::TelemetryEvent`]): its counters, per-device bounces and
//! final health are those of one [`crate::StatusSnapshot`] folded over
//! the whole run — the same fold `/status` serves — and its itemized
//! shed and health ledgers are the stream's own columns, so the report
//! and the operator view cannot disagree.

use crate::batch::EventLog;
use crate::descriptor::ResolvedFleet;
use crate::load::LoadSource;
use crate::telemetry::StatusSnapshot;
use serde::{Deserialize, Serialize};

/// Terminal state of one beam-second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BeamOutcome {
    /// All trial DMs dedispersed before the deadline.
    Completed {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time.
        finish: f64,
    },
    /// Finished before the deadline, but with trailing DM tiers shed.
    Degraded {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time.
        finish: f64,
        /// Trial DMs actually dedispersed.
        kept_trials: usize,
        /// Trial DMs dropped.
        shed_trials: usize,
    },
    /// Finished after its deadline — a real-time miss.
    Missed {
        /// Device that ran the beam.
        device: usize,
        /// Virtual completion time (past the deadline).
        finish: f64,
        /// Trial DMs dedispersed (sheds cannot rescue a miss).
        kept_trials: usize,
    },
    /// Never ran to completion anywhere.
    ShedWhole {
        /// Virtual time the scheduler gave up on the beam.
        at: f64,
        /// Why it was dropped whole.
        reason: ShedReason,
    },
}

impl BeamOutcome {
    /// Virtual time the beam reached this state: its finish, or the
    /// time it was dropped whole.
    pub(crate) fn at(self) -> f64 {
        match self {
            BeamOutcome::Completed { finish, .. }
            | BeamOutcome::Degraded { finish, .. }
            | BeamOutcome::Missed { finish, .. } => finish,
            BeamOutcome::ShedWhole { at, .. } => at,
        }
    }
}

/// One beam's ledger row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeamRecord {
    /// Global job index.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick.
    pub beam: usize,
    /// How the beam ended.
    pub outcome: BeamOutcome,
}

/// Why DM trials were shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// Trailing tiers dropped so the beam could make its deadline.
    DeadlinePressure,
    /// The whole beam dropped: no eligible device remained.
    NoAliveDevices,
    /// The whole beam dropped: it bounced more times than the retry
    /// budget allows.
    RetryBudgetExhausted,
}

/// One recorded shed — nothing is dropped silently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShedRecord {
    /// Global job index of the beam.
    pub index: usize,
    /// Releasing tick.
    pub tick: usize,
    /// Beam number within the tick.
    pub beam: usize,
    /// Trial DMs dropped.
    pub shed_trials: usize,
    /// Trial DMs still dedispersed (0 for whole-beam sheds).
    pub kept_trials: usize,
    /// Why the shed happened.
    pub reason: ShedReason,
}

/// The dispatcher's belief about one device, from observed evidence
/// only — bounced work, late completions, probe replies — never from
/// reading the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HealthState {
    /// Taking work normally.
    #[default]
    Healthy,
    /// Produced suspicious evidence (a bounce, repeated late
    /// completions); receives no new work until probed.
    Suspect,
    /// A probe found it down; probed again after a growing backoff.
    Quarantined,
    /// A probe found it up; it must complete one canary beam on time
    /// to be trusted again.
    Probation,
}

/// What piece of evidence moved a device between health states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthCause {
    /// A beam bounced off the device.
    Bounce,
    /// Enough consecutive completions came in past their predicted
    /// finish.
    LateCompletion,
    /// A health probe was answered.
    ProbeUp,
    /// A health probe found the device down.
    ProbeDown,
    /// The probation canary beam completed on time.
    CanaryPassed,
    /// The probation canary bounced or finished late.
    CanaryFailed,
}

/// One health-state transition, as the dispatcher observed it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Virtual time of the evidence.
    pub at: f64,
    /// Device that transitioned.
    pub device: usize,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// The evidence that drove the transition.
    pub cause: HealthCause,
}

/// Per-device utilization and health over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceMetrics {
    /// Fleet-wide device index.
    pub id: usize,
    /// Instance name.
    pub name: String,
    /// Sustained rate used for placement, GFLOP/s.
    pub gflops: f64,
    /// Beams this device finished.
    pub beams_done: usize,
    /// Virtual seconds spent dedispersing.
    pub busy_s: f64,
    /// `busy_s / makespan` — fraction of the run spent working.
    pub utilization: f64,
    /// Always 0. The dispatcher handles a device's verdict before it
    /// places the next beam, so no device ever holds work it has not
    /// started; the field stays because serialized reports carry it.
    /// The placement backlog an operator would watch is the
    /// stream-folded `fleet_device_queue_depth_peak` gauge.
    pub max_queue_depth: usize,
    /// Beams that bounced off this device, as observed.
    pub bounces: usize,
    /// The dispatcher's final belief about the device.
    pub final_health: HealthState,
    /// Virtual time the fault plan killed it for good, if it did.
    pub died_at: Option<f64>,
}

/// The run summary an operator would export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Setup name.
    pub setup: String,
    /// Trial DMs per beam.
    pub trials: usize,
    /// Beams per tick (the largest tick, when the source varies).
    pub beams: usize,
    /// Ticks simulated.
    pub ticks: usize,
    /// Beam-seconds admitted over the whole horizon.
    pub admitted: usize,
    /// Beams fully dedispersed on time.
    pub completed: usize,
    /// Beams finished on time with tiers shed.
    pub degraded: usize,
    /// Beams finished after their deadline.
    pub deadline_misses: usize,
    /// Beams dropped whole (no eligible devices, or retries exhausted).
    pub shed_whole: usize,
    /// Total trial DMs shed across all beams.
    pub total_shed_trials: usize,
    /// Bounces observed across the run.
    pub bounced: usize,
    /// Re-placements of bounced beams.
    pub retries: usize,
    /// Beams shed whole because their retry budget ran out.
    pub retry_exhausted: usize,
    /// Health probes sent.
    pub probes: usize,
    /// Canary beams placed on probation devices.
    pub canaries: usize,
    /// Transitions back to [`HealthState::Healthy`].
    pub recoveries: usize,
    /// Every health-state transition, in observation order.
    pub health_events: Vec<HealthEvent>,
    /// Every shed, itemized.
    pub sheds: Vec<ShedRecord>,
    /// Per-device metrics, id order.
    pub devices: Vec<DeviceMetrics>,
    /// Virtual time the last beam finished (or was dropped).
    pub makespan: f64,
}

impl FleetReport {
    /// Builds the report from one [`StatusSnapshot`] fold of the
    /// telemetry stream, the ordered ledgers the stream carries, and
    /// the per-device statistics and fault context that never enter
    /// the stream.
    pub(crate) fn build(
        fleet: &ResolvedFleet,
        load: &dyn LoadSource,
        log: &EventLog,
        stats: &[DeviceStats],
        died_at: &[Option<f64>],
    ) -> Self {
        let mut sheds = Vec::new();
        let mut health_events = Vec::new();
        let mut makespan: f64 = 0.0;
        for batch in log.batches() {
            sheds.extend_from_slice(&batch.sheds);
            health_events.extend_from_slice(&batch.health);
            for record in &batch.beams {
                makespan = makespan.max(record.outcome.at());
            }
        }
        // The historical shed ledger is ordered by global beam index
        // (it was built by scanning the index-ordered record vector);
        // the stream emits sheds in observation order, so restore the
        // contract here.
        sheds.sort_by_key(|s| s.index);
        let mut devices: Vec<DeviceMetrics> = fleet
            .devices
            .iter()
            .map(|d| DeviceMetrics {
                id: d.id,
                name: d.name.clone(),
                gflops: d.gflops,
                beams_done: stats[d.id].beams_done,
                busy_s: stats[d.id].busy_s,
                utilization: if makespan > 0.0 {
                    stats[d.id].busy_s / makespan
                } else {
                    0.0
                },
                max_queue_depth: 0,
                bounces: 0,
                final_health: HealthState::Healthy,
                died_at: died_at[d.id],
            })
            .collect();
        // The snapshot is folded after every other allocation of the
        // report, so its per-device table is the newest heap block and
        // is freed on return. Held across the ledgers and the device
        // table instead, that transient fragmented the heap: the
        // `fleet_survey` benchmark's peak RSS read about 10 % higher.
        let snapshot = StatusSnapshot::from_log(fleet.len(), log);
        for (metrics, status) in devices.iter_mut().zip(&snapshot.devices) {
            metrics.bounces = status.bounces;
            metrics.final_health = status.health;
        }
        Self {
            setup: load.setup().to_string(),
            trials: load.trials(),
            beams: (0..load.ticks())
                .map(|t| load.beams_at(t))
                .max()
                .unwrap_or(0),
            ticks: load.ticks(),
            admitted: load.total_beams(),
            completed: snapshot.completed,
            degraded: snapshot.degraded,
            deadline_misses: snapshot.deadline_misses,
            shed_whole: snapshot.shed_whole,
            total_shed_trials: snapshot.total_shed_trials,
            bounced: snapshot.bounced,
            retries: snapshot.retries,
            retry_exhausted: sheds
                .iter()
                .filter(|s| s.reason == ShedReason::RetryBudgetExhausted)
                .count(),
            probes: snapshot.probes,
            canaries: snapshot.canaries,
            recoveries: snapshot.recoveries,
            health_events,
            sheds,
            devices,
            makespan,
        }
    }

    /// Whether every admitted beam is accounted for exactly once:
    /// completed, degraded, missed, or shed — never lost.
    pub fn conservation_ok(&self) -> bool {
        self.completed + self.degraded + self.deadline_misses + self.shed_whole == self.admitted
    }

    /// Mean utilization across surviving (never-killed) devices.
    pub fn mean_surviving_utilization(&self) -> f64 {
        let survivors: Vec<&DeviceMetrics> = self
            .devices
            .iter()
            .filter(|d| d.died_at.is_none())
            .collect();
        if survivors.is_empty() {
            return 0.0;
        }
        survivors.iter().map(|d| d.utilization).sum::<f64>() / survivors.len() as f64
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

/// What a device did over the run, read off it when the session ends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct DeviceStats {
    pub busy_s: f64,
    pub beams_done: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TickBatch;
    use crate::survey::SurveyLoad;
    use crate::telemetry::TelemetryEvent;

    #[test]
    fn report_json_roundtrip() {
        let fleet = ResolvedFleet::synthetic(100, &[0.2, 0.5]);
        let load = SurveyLoad::custom(100, 2, 1);
        let events = vec![
            TelemetryEvent::Beam(BeamRecord {
                index: 0,
                tick: 0,
                beam: 0,
                outcome: BeamOutcome::Completed {
                    device: 0,
                    finish: 0.2,
                },
            }),
            TelemetryEvent::Bounce {
                index: 1,
                device: 1,
                at: 0.4,
                attempt: 1,
            },
            TelemetryEvent::Health(HealthEvent {
                at: 0.4,
                device: 1,
                from: HealthState::Healthy,
                to: HealthState::Suspect,
                cause: HealthCause::Bounce,
            }),
            TelemetryEvent::Health(HealthEvent {
                at: 0.5,
                device: 1,
                from: HealthState::Suspect,
                to: HealthState::Quarantined,
                cause: HealthCause::ProbeDown,
            }),
            TelemetryEvent::Shed(ShedRecord {
                index: 1,
                tick: 0,
                beam: 1,
                shed_trials: 25,
                kept_trials: 75,
                reason: ShedReason::DeadlinePressure,
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 1,
                tick: 0,
                beam: 1,
                outcome: BeamOutcome::Degraded {
                    device: 1,
                    finish: 0.9,
                    kept_trials: 75,
                    shed_trials: 25,
                },
            }),
        ];
        let stats = vec![
            DeviceStats {
                busy_s: 0.2,
                beams_done: 1,
            },
            DeviceStats {
                busy_s: 0.5,
                beams_done: 1,
            },
        ];
        let log = EventLog::from_events(&events);
        let report = FleetReport::build(&fleet, &load, &log, &stats, &[None, Some(5.0)]);
        assert!(report.conservation_ok());
        assert_eq!(report.completed, 1);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.total_shed_trials, 25);
        assert_eq!(report.sheds.len(), 1);
        assert_eq!(report.sheds[0].reason, ShedReason::DeadlinePressure);
        assert_eq!(report.bounced, 1);
        assert_eq!(report.devices[1].bounces, 1);
        assert_eq!(report.devices[1].final_health, HealthState::Quarantined);
        assert_eq!(report.devices[0].final_health, HealthState::Healthy);
        assert_eq!(report.health_events.len(), 2);
        assert!((report.makespan - 0.9).abs() < 1e-12);
        let back = FleetReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn report_is_invariant_under_batch_boundaries() {
        use crate::fault::FaultPlan;
        use crate::scheduler::Scheduler;
        // A kill mid-run puts bounces, retries, probes, health
        // transitions and sheds in the stream beside the beams.
        let fleet = ResolvedFleet::synthetic(400, &[0.2, 0.2, 0.3]);
        let load = SurveyLoad::custom(400, 12, 4);
        let faults = FaultPlan::none().with_kill(1, 0.5);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .unwrap();
        let report = &run.report;
        assert!(report.bounced > 0 && !report.health_events.is_empty());
        let stats: Vec<DeviceStats> = report
            .devices
            .iter()
            .map(|d| DeviceStats {
                busy_s: d.busy_s,
                beams_done: d.beams_done,
            })
            .collect();
        let died_at: Vec<Option<f64>> = report.devices.iter().map(|d| d.died_at).collect();
        let mut singletons = EventLog::new();
        for event in run.log.iter() {
            singletons.push_batch(TickBatch::of(&event));
        }
        let per_tick = FleetReport::build(&fleet, &load, &run.log, &stats, &died_at);
        assert_eq!(&per_tick, report);
        let per_event = FleetReport::build(&fleet, &load, &singletons, &stats, &died_at);
        assert_eq!(per_event, per_tick);
    }

    #[test]
    fn conservation_detects_loss() {
        let fleet = ResolvedFleet::synthetic(10, &[0.5]);
        let load = SurveyLoad::custom(10, 2, 1);
        let stats = vec![DeviceStats::default()];
        // Only one of two admitted beams in the stream.
        let events = vec![
            TelemetryEvent::Shed(ShedRecord {
                index: 0,
                tick: 0,
                beam: 0,
                shed_trials: 10,
                kept_trials: 0,
                reason: ShedReason::NoAliveDevices,
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 0,
                tick: 0,
                beam: 0,
                outcome: BeamOutcome::ShedWhole {
                    at: 0.0,
                    reason: ShedReason::NoAliveDevices,
                },
            }),
        ];
        let log = EventLog::from_events(&events);
        let report = FleetReport::build(&fleet, &load, &log, &stats, &[None]);
        assert!(!report.conservation_ok());
        assert_eq!(report.shed_whole, 1);
        assert_eq!(report.total_shed_trials, 10);
        assert_eq!(report.sheds[0].reason, ShedReason::NoAliveDevices);
    }

    #[test]
    fn mean_surviving_utilization_is_zero_when_every_device_died() {
        let fleet = ResolvedFleet::synthetic(10, &[0.5, 0.5]);
        let load = SurveyLoad::custom(10, 1, 1);
        let stats = vec![DeviceStats::default(); 2];
        let report = FleetReport::build(
            &fleet,
            &load,
            &EventLog::new(),
            &stats,
            &[Some(0.1), Some(0.2)],
        );
        assert!(report.devices.iter().all(|d| d.died_at.is_some()));
        // No survivors: the mean must be 0.0, never NaN.
        let mean = report.mean_surviving_utilization();
        assert_eq!(mean, 0.0);
        assert!(!mean.is_nan());
    }
}
