//! The unified telemetry stream: one typed event per observable fact.
//!
//! Every layer of the control plane — dispatcher, shard supervisor,
//! grid — emits the same [`TelemetryEvent`] enum through the
//! [`Observer`] trait instead of keeping ad-hoc record vectors.
//! [`StatusSnapshot`] is the stream's one counting fold: it gives
//! operators a queryable point-in-time view (per-device health, queue
//! depths, the shed tier in force) derivable from **any prefix** of the
//! stream, and the reports ([`crate::FleetReport`],
//! [`crate::GridReport`]) take their counters from it.
//!
//! Events carry virtual times and are appended at the dispatcher's
//! deterministic synchronization points, so the stream itself is as
//! reproducible as the report it folds into.

use crate::batch::{EventKind, EventLog, TickBatch};
use crate::capture::policy::{BackpressurePolicy, CaptureDropCause};
use crate::descriptor::ResolvedFleet;
use crate::metrics::{BeamOutcome, BeamRecord, HealthEvent, HealthState, ShedRecord};
use manycore_sim::Algorithm;
use serde::{Deserialize, Serialize};

/// One observable fact from a scheduler, shard, or grid run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// The admission ruling for one tick's batch, before placement.
    Admission {
        /// Tick index.
        tick: usize,
        /// Batch release time.
        release: f64,
        /// Batch deadline.
        deadline: f64,
        /// Beams in the batch.
        beams: usize,
        /// Trial DMs per beam the policy admitted at (0 when the whole
        /// batch was shed).
        kept_trials: usize,
        /// Shed tiers in force for the tick.
        shed_tiers: usize,
    },
    /// A beam (or probation canary) was handed to a device queue.
    Placed {
        /// Global job index.
        index: usize,
        /// Device the beam was queued on.
        device: usize,
        /// Virtual time the device is predicted to start it.
        at: f64,
        /// Trial DMs the placement keeps.
        kept_trials: usize,
        /// Placement attempt (1 = first placement).
        attempt: usize,
        /// Whether this placement is a probation canary.
        canary: bool,
    },
    /// A beam reached its terminal state.
    Beam(BeamRecord),
    /// Trial DMs (or a whole beam) were shed.
    Shed(ShedRecord),
    /// A beam bounced off a device.
    Bounce {
        /// Global job index.
        index: usize,
        /// Device it bounced off.
        device: usize,
        /// Virtual time of the bounce.
        at: f64,
        /// The attempt that bounced.
        attempt: usize,
    },
    /// A bounced beam was queued for re-placement.
    Retry {
        /// Global job index.
        index: usize,
        /// Virtual release time of the retry (after backoff).
        at: f64,
        /// The upcoming attempt number.
        attempt: usize,
    },
    /// A health probe was answered.
    Probe {
        /// Device probed.
        device: usize,
        /// Virtual time the probe was sent.
        at: f64,
        /// Whether the device answered up.
        up: bool,
    },
    /// A device moved between health states.
    Health(HealthEvent),
    /// The grid moved a beam off its home shard (outage re-homing or a
    /// coordinated-admission route).
    Rebalance {
        /// Tick index.
        tick: usize,
        /// Global job index.
        index: usize,
        /// The shard the routing policy would have used.
        from_shard: usize,
        /// The shard that actually ran it.
        to_shard: usize,
    },
    /// An observable fact from the capture front-end (see
    /// [`crate::capture`]): the edge between the arrival stream and the
    /// fleet.
    Capture(CaptureEvent),
    /// The admission plane moved a device to a different dedispersion
    /// algorithm (a demotion under pressure, or a promotion back once
    /// the plan runs clean) — emitted only when the assignment actually
    /// changes, so single-algorithm fleets never see it.
    AlgorithmSwitch {
        /// Tick index the switch takes effect at.
        tick: usize,
        /// Device whose assignment changed.
        device: usize,
        /// Virtual time of the switch (the tick's release).
        at: f64,
        /// The algorithm the device was running.
        from: Algorithm,
        /// The algorithm the device runs from this tick on.
        to: Algorithm,
    },
}

/// One observable fact from the capture front-end's ingest path.
///
/// Capture events are emitted by [`crate::capture::CaptureSession`] as
/// the arrival stream runs through the ring, and replayed into a
/// scheduler session's telemetry stream (ahead of the scheduling
/// events) by [`crate::Session::capture`] — so the same observers that
/// watch the fleet watch the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CaptureEvent {
    /// One block arrived from the packet source and was pushed into
    /// the ring.
    Arrival {
        /// Beam the block belongs to.
        beam: usize,
        /// Per-beam arrival sequence number.
        seq: u64,
        /// Arrival timestamp, virtual seconds.
        at: f64,
        /// Bytes the block was stored at (post-policy).
        bytes: usize,
    },
    /// A block was dropped at capture — it will never reach the fleet.
    Drop {
        /// Beam the block belonged to.
        beam: usize,
        /// Per-beam arrival sequence number.
        seq: u64,
        /// Arrival timestamp of the dropped block.
        at: f64,
        /// Why capture gave it up.
        cause: CaptureDropCause,
        /// Bytes it had occupied in the ring.
        bytes: usize,
    },
    /// A block was degraded at capture (stored downsampled, or marked
    /// for a narrowed DM plan).
    Degrade {
        /// Beam the block belongs to.
        beam: usize,
        /// Per-beam arrival sequence number.
        seq: u64,
        /// Arrival timestamp of the degraded block.
        at: f64,
        /// The policy that degraded it.
        policy: BackpressurePolicy,
    },
    /// One drain tick: blocks left the ring as a schedulable batch.
    Drain {
        /// The load tick the batch became.
        tick: usize,
        /// Virtual time of the drain.
        at: f64,
        /// Blocks drained into the batch.
        blocks: usize,
        /// The batch's derived release time.
        release: f64,
        /// The batch's derived deadline.
        deadline: f64,
        /// Blocks still buffered after the drain.
        backlog_blocks: usize,
        /// Ring byte footprint after the drain.
        ring_bytes: usize,
    },
}

impl CaptureEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> f64 {
        match *self {
            CaptureEvent::Arrival { at, .. }
            | CaptureEvent::Drop { at, .. }
            | CaptureEvent::Degrade { at, .. }
            | CaptureEvent::Drain { at, .. } => at,
        }
    }
}

impl TelemetryEvent {
    /// A short stable label for the event's variant, used as the
    /// `kind` label of the observability layer's event counters
    /// ([`crate::obs::RegistryObserver`]).
    pub fn kind(&self) -> &'static str {
        EventKind::of(self).label()
    }
}

/// A consumer of the telemetry stream.
///
/// Observers see events in emission order — the dispatcher's
/// deterministic virtual-time order — and must not assume they see the
/// whole run: any prefix is valid (that is what makes
/// [`StatusSnapshot`] a point-in-time view).
pub trait Observer {
    /// Consumes one block of events, in emission order.
    ///
    /// This is the only seam: the dispatcher flushes one [`TickBatch`]
    /// per deterministic tick boundary, so a sink pays its
    /// per-delivery costs (locks, dispatch, allocation) once per tick
    /// instead of once per event. Batch boundaries carry no meaning —
    /// a fold must give the same result however the stream is chunked,
    /// down to one event per batch ([`TickBatch::of`]).
    fn observe_batch(&mut self, batch: &TickBatch);
}

/// A consumer of a *grid* run's telemetry, fed live from every shard
/// thread at once.
///
/// Where [`Observer`] sees one scheduler's stream serially,
/// a `GridObserver` is shared by reference across the grid's shard
/// threads (hence `Sync` and `&self`), receives each batch tagged with
/// its emitting shard (`None` for grid-front-end events such as
/// rebalances), and — like the post-run [`crate::ShardEvent`] stream —
/// sees beam identities already re-keyed to *global* indices. Batches
/// from one shard arrive in that shard's deterministic order; the
/// interleaving *across* shards follows the OS scheduler, so
/// implementations must be commutative across shards (fold per shard,
/// or count order-insensitively) to stay deterministic.
pub trait GridObserver: Sync {
    /// Consumes one shard-tagged batch, already re-keyed to global
    /// beam identity.
    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch);
}

/// The no-op observer used when a caller only wants the report.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn observe_batch(&mut self, _batch: &TickBatch) {}
}

impl GridObserver for NullObserver {
    fn observe_grid_batch(&self, _shard: Option<usize>, _batch: &TickBatch) {}
}

/// One device's live state, as folded from the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceStatus {
    /// Fleet-wide device index.
    pub device: usize,
    /// Current health belief.
    pub health: HealthState,
    /// Beams placed on the device and not yet resolved.
    pub queue_depth: usize,
    /// Bounces observed so far.
    pub bounces: usize,
    /// The dedispersion algorithm the device is running, as derived
    /// from the stream: the primary (brute force) until an
    /// [`TelemetryEvent::AlgorithmSwitch`] says otherwise.
    pub algorithm: Algorithm,
    /// The resolved device descriptor string (name plus tuned kernel
    /// variant when known). Empty when the snapshot was folded without
    /// fleet context — the stream itself never carries it; seed it with
    /// [`StatusSnapshot::for_fleet`].
    pub descriptor: String,
}

/// A queryable point-in-time view of a running fleet, folded from any
/// prefix of the telemetry stream.
///
/// This is the payload `/status` serves ([`crate::obs::ObsServer`]),
/// and the one fold that counts a stream's outcomes and recoveries:
/// [`crate::FleetReport`] and [`crate::GridReport`] take their counters
/// from it. It is serde round-trippable and every field is derivable
/// from the events alone (no access to dispatcher internals), so it can
/// be maintained incrementally by a live [`Observer`] or reconstructed
/// after the fact with [`StatusSnapshot::from_log`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Latest virtual time seen in the stream.
    pub at: f64,
    /// Events folded into this snapshot.
    pub events_folded: usize,
    /// Most recent tick with an admission ruling.
    pub tick: Option<usize>,
    /// Trial DMs per beam in force for that tick.
    pub kept_trials_in_force: Option<usize>,
    /// Shed tiers in force for that tick.
    pub shed_tiers_in_force: Option<usize>,
    /// Beams placed on device queues so far.
    pub placed: usize,
    /// Beams fully dedispersed on time so far.
    pub completed: usize,
    /// Beams finished on time with tiers shed so far.
    pub degraded: usize,
    /// Beams finished past their deadline so far.
    pub deadline_misses: usize,
    /// Beams dropped whole so far.
    pub shed_whole: usize,
    /// Trial DMs shed so far.
    pub total_shed_trials: usize,
    /// Bounces observed so far.
    pub bounced: usize,
    /// Re-placements of bounced beams so far.
    pub retries: usize,
    /// Probes answered so far.
    pub probes: usize,
    /// Canary placements so far.
    pub canaries: usize,
    /// Transitions back to [`HealthState::Healthy`] so far.
    pub recoveries: usize,
    /// Rebalance decisions seen so far (grid streams only).
    pub rebalances: usize,
    /// Algorithm switches seen so far.
    pub algorithm_switches: usize,
    /// Blocks that arrived at the capture front-end so far.
    pub capture_arrivals: usize,
    /// Blocks dropped at capture so far.
    pub capture_drops: usize,
    /// Blocks degraded at capture so far.
    pub capture_degraded: usize,
    /// Drain batches handed to the scheduler so far.
    pub capture_batches: usize,
    /// Blocks buffered in the capture ring as of the last drain.
    pub capture_backlog_blocks: usize,
    /// Capture ring byte footprint as of the last drain.
    pub capture_ring_bytes: usize,
    /// High-water capture ring byte footprint seen in the stream.
    pub capture_ring_peak_bytes: usize,
    /// Per-device live state, device order.
    pub devices: Vec<DeviceStatus>,
}

impl StatusSnapshot {
    /// An empty snapshot for a fleet of `devices` devices, all healthy
    /// and idle.
    pub fn new(devices: usize) -> Self {
        Self {
            at: 0.0,
            events_folded: 0,
            tick: None,
            kept_trials_in_force: None,
            shed_tiers_in_force: None,
            placed: 0,
            completed: 0,
            degraded: 0,
            deadline_misses: 0,
            shed_whole: 0,
            total_shed_trials: 0,
            bounced: 0,
            retries: 0,
            probes: 0,
            canaries: 0,
            recoveries: 0,
            rebalances: 0,
            algorithm_switches: 0,
            capture_arrivals: 0,
            capture_drops: 0,
            capture_degraded: 0,
            capture_batches: 0,
            capture_backlog_blocks: 0,
            capture_ring_bytes: 0,
            capture_ring_peak_bytes: 0,
            devices: (0..devices)
                .map(|device| DeviceStatus {
                    device,
                    health: HealthState::Healthy,
                    queue_depth: 0,
                    bounces: 0,
                    algorithm: Algorithm::BruteForce,
                    descriptor: String::new(),
                })
                .collect(),
        }
    }

    /// An empty snapshot seeded with fleet context: per-device
    /// descriptor strings (name plus tuned kernel variant when the rate
    /// came from a tuning run) and each device's primary algorithm.
    /// Fold the same stream into it and the operator view shows *which*
    /// device — by descriptor — is running *which* algorithm.
    pub fn for_fleet(fleet: &ResolvedFleet) -> Self {
        let mut snapshot = Self::new(fleet.len());
        for (status, device) in snapshot.devices.iter_mut().zip(&fleet.devices) {
            status.descriptor = device.name.clone();
            if let Some(primary) = device.rates.first() {
                status.algorithm = primary.algorithm;
            }
        }
        snapshot
    }

    /// Folds a stream prefix into a snapshot in one call (the prefix
    /// is encoded into one batch first: the fold only reads columns).
    pub fn from_events(devices: usize, events: &[TelemetryEvent]) -> Self {
        Self::from_log(devices, &EventLog::from_events(events))
    }

    /// Folds a whole [`EventLog`] into a snapshot, batch by batch.
    pub fn from_log(devices: usize, log: &EventLog) -> Self {
        let mut snapshot = Self::new(devices);
        log.replay(&mut snapshot);
        snapshot
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on plain data, which cannot
    /// happen for this type.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plain snapshot always serializes")
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    fn advance_clock(&mut self, at: f64) {
        if at > self.at {
            self.at = at;
        }
    }
}

impl Observer for StatusSnapshot {
    /// Columnar passes over the batch's row vectors, plus one slim
    /// ordered walk — no [`TelemetryEvent`] is materialized. Counts
    /// and shed sums are commutative, the clock is
    /// a running maximum, and every last-write-wins cell (admission
    /// state, per-device health, capture drain gauges) lands in a
    /// single column whose order is the stream order — so all of those
    /// fold column-by-column. Only the per-device `queue_depth` depends
    /// on the exact interleaving of placements and resolutions (the
    /// `saturating_sub` clips against the running value), so that alone
    /// replays the batch's `depth_steps` trajectory, touching nothing
    /// else. The result does not depend on where the batch boundaries
    /// fall — the batch proptest suite pins this on real scheduler and
    /// capture streams, down to one event per batch.
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.events_folded += batch.len();
        if let Some(last) = batch.admissions.last() {
            self.tick = Some(last.tick as usize);
            self.kept_trials_in_force = Some(last.kept_trials as usize);
            self.shed_tiers_in_force = Some(last.shed_tiers as usize);
            for r in &batch.admissions {
                self.advance_clock(r.release);
            }
        }
        self.placed += batch.placed.len();
        for r in &batch.placed {
            self.advance_clock(r.at);
            if r.canary {
                self.canaries += 1;
            }
        }
        for record in &batch.beams {
            self.advance_clock(record.outcome.at());
            match record.outcome {
                BeamOutcome::Completed { .. } => self.completed += 1,
                BeamOutcome::Degraded { .. } => self.degraded += 1,
                BeamOutcome::Missed { .. } => self.deadline_misses += 1,
                BeamOutcome::ShedWhole { .. } => self.shed_whole += 1,
            }
        }
        for shed in &batch.sheds {
            self.total_shed_trials += shed.shed_trials;
        }
        self.bounced += batch.bounces.len();
        for r in &batch.bounces {
            self.advance_clock(r.at);
            if let Some(d) = self.devices.get_mut(r.device as usize) {
                d.bounces += 1;
            }
        }
        self.retries += batch.retries.len();
        for r in &batch.retries {
            self.advance_clock(r.at);
        }
        self.probes += batch.probes.len();
        for r in &batch.probes {
            self.advance_clock(r.at);
        }
        for health in &batch.health {
            self.advance_clock(health.at);
            if health.to == HealthState::Healthy {
                self.recoveries += 1;
            }
            if let Some(d) = self.devices.get_mut(health.device) {
                d.health = health.to;
            }
        }
        self.rebalances += batch.rebalances.len();
        // Switch rows are in emission order, so the per-device last
        // write over the column is the stream's last write.
        self.algorithm_switches += batch.switches.len();
        for r in &batch.switches {
            self.advance_clock(r.at);
            if let Some(d) = self.devices.get_mut(r.device as usize) {
                d.algorithm = r.to;
            }
        }
        for capture in &batch.captures {
            self.advance_clock(capture.at());
            match *capture {
                CaptureEvent::Arrival { .. } => {
                    self.capture_arrivals += 1;
                }
                CaptureEvent::Drop { .. } => {
                    self.capture_drops += 1;
                }
                CaptureEvent::Degrade { .. } => {
                    self.capture_degraded += 1;
                }
                CaptureEvent::Drain {
                    backlog_blocks,
                    ring_bytes,
                    ..
                } => {
                    self.capture_batches += 1;
                    self.capture_backlog_blocks = backlog_blocks;
                    self.capture_ring_bytes = ring_bytes;
                    self.capture_ring_peak_bytes = self.capture_ring_peak_bytes.max(ring_bytes);
                }
            }
        }
        // The order-sensitive remainder: queue depths under the exact
        // placement/resolution interleaving, replayed off the batch's
        // dense precomputed trajectory.
        for &(device, up) in &batch.depth_steps {
            if let Some(d) = self.devices.get_mut(device as usize) {
                d.queue_depth = if up {
                    d.queue_depth + 1
                } else {
                    d.queue_depth.saturating_sub(1)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HealthCause, ShedReason};

    fn sample_stream() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::Admission {
                tick: 0,
                release: 0.0,
                deadline: 1.0,
                beams: 2,
                kept_trials: 75,
                shed_tiers: 1,
            },
            TelemetryEvent::Placed {
                index: 0,
                device: 0,
                at: 0.0,
                kept_trials: 75,
                attempt: 1,
                canary: false,
            },
            TelemetryEvent::Placed {
                index: 1,
                device: 1,
                at: 0.0,
                kept_trials: 75,
                attempt: 1,
                canary: false,
            },
            TelemetryEvent::Bounce {
                index: 1,
                device: 1,
                at: 0.2,
                attempt: 1,
            },
            TelemetryEvent::Health(HealthEvent {
                at: 0.2,
                device: 1,
                from: HealthState::Healthy,
                to: HealthState::Suspect,
                cause: HealthCause::Bounce,
            }),
            TelemetryEvent::Retry {
                index: 1,
                at: 0.2,
                attempt: 2,
            },
            TelemetryEvent::Placed {
                index: 1,
                device: 0,
                at: 0.3,
                kept_trials: 75,
                attempt: 2,
                canary: false,
            },
            TelemetryEvent::AlgorithmSwitch {
                tick: 0,
                device: 0,
                at: 0.2,
                from: Algorithm::BruteForce,
                to: Algorithm::Subband { factor: 32 },
            },
            TelemetryEvent::Shed(ShedRecord {
                index: 0,
                tick: 0,
                beam: 0,
                shed_trials: 25,
                kept_trials: 75,
                reason: ShedReason::DeadlinePressure,
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 0,
                tick: 0,
                beam: 0,
                outcome: BeamOutcome::Degraded {
                    device: 0,
                    finish: 0.6,
                    kept_trials: 75,
                    shed_trials: 25,
                },
            }),
            TelemetryEvent::Beam(BeamRecord {
                index: 1,
                tick: 0,
                beam: 1,
                outcome: BeamOutcome::Completed {
                    device: 0,
                    finish: 0.9,
                },
            }),
        ]
    }

    #[test]
    fn snapshot_folds_a_stream_into_live_state() {
        let events = sample_stream();
        let snapshot = StatusSnapshot::from_events(2, &events);
        assert_eq!(snapshot.events_folded, events.len());
        assert_eq!(snapshot.tick, Some(0));
        assert_eq!(snapshot.kept_trials_in_force, Some(75));
        assert_eq!(snapshot.shed_tiers_in_force, Some(1));
        assert_eq!(snapshot.placed, 3);
        assert_eq!(snapshot.completed, 1);
        assert_eq!(snapshot.degraded, 1);
        assert_eq!(snapshot.bounced, 1);
        assert_eq!(snapshot.retries, 1);
        assert_eq!(snapshot.total_shed_trials, 25);
        assert!((snapshot.at - 0.9).abs() < 1e-12);
        // Every placement resolved: queues drained back to zero.
        assert!(snapshot.devices.iter().all(|d| d.queue_depth == 0));
        assert_eq!(snapshot.devices[1].bounces, 1);
        assert_eq!(snapshot.devices[1].health, HealthState::Suspect);
        assert_eq!(snapshot.devices[0].health, HealthState::Healthy);
        assert_eq!(snapshot.algorithm_switches, 1);
        assert_eq!(
            snapshot.devices[0].algorithm,
            Algorithm::Subband { factor: 32 }
        );
        assert_eq!(snapshot.devices[1].algorithm, Algorithm::BruteForce);
    }

    #[test]
    fn for_fleet_seeds_descriptors_and_primary_algorithms() {
        let fleet = crate::descriptor::ResolvedFleet::synthetic_with_algorithms(
            1000,
            &[
                &[
                    (Algorithm::Subband { factor: 16 }, 0.2),
                    (Algorithm::BruteForce, 0.4),
                ],
                &[(Algorithm::BruteForce, 0.1)],
            ],
        );
        let snapshot = StatusSnapshot::for_fleet(&fleet);
        assert_eq!(snapshot.devices.len(), 2);
        assert_eq!(snapshot.devices[0].descriptor, fleet.devices[0].name);
        assert!(!snapshot.devices[0].descriptor.is_empty());
        assert_eq!(
            snapshot.devices[0].algorithm,
            Algorithm::Subband { factor: 16 }
        );
        assert_eq!(snapshot.devices[1].algorithm, Algorithm::BruteForce);
        // Without fleet context the snapshot stays descriptor-free: the
        // stream itself never carries the strings.
        let bare = StatusSnapshot::new(2);
        assert!(bare.devices.iter().all(|d| d.descriptor.is_empty()));
    }

    #[test]
    fn every_prefix_of_the_stream_folds_cleanly() {
        let events = sample_stream();
        for cut in 0..=events.len() {
            let snapshot = StatusSnapshot::from_events(2, &events[..cut]);
            assert_eq!(snapshot.events_folded, cut);
            // Mid-flight prefixes show in-flight work as queue depth.
            let in_flight: usize = snapshot.devices.iter().map(|d| d.queue_depth).sum();
            let resolved = snapshot.completed
                + snapshot.degraded
                + snapshot.deadline_misses
                + snapshot.shed_whole
                + snapshot.bounced;
            assert_eq!(in_flight, snapshot.placed - resolved.min(snapshot.placed));
        }
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let snapshot = StatusSnapshot::from_events(2, &sample_stream());
        let back = StatusSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn event_log_collects_the_stream_verbatim() {
        let events = sample_stream();
        let mut log = EventLog::default();
        for event in &events {
            log.observe_batch(&TickBatch::of(event));
        }
        assert_eq!(log.to_events(), events);
        assert_eq!(log, EventLog::from_events(&events));
    }

    #[test]
    fn one_event_per_batch_folds_like_one_batch() {
        let events = sample_stream();
        let mut singles = StatusSnapshot::new(2);
        for event in &events {
            singles.observe_batch(&TickBatch::of(event));
        }
        assert_eq!(singles, StatusSnapshot::from_events(2, &events));
    }
}
