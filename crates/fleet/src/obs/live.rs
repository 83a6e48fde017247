//! Continuously-folded live status.
//!
//! [`StatusSnapshot`] was built to fold from *any prefix* of the
//! telemetry stream; [`LiveStatus`] keeps one folding behind a
//! [`parking_lot::RwLock`] **while a run is in progress**, so the HTTP
//! endpoint (and any other reader) can take a consistent point-in-time
//! copy mid-run instead of waiting for the report. [`LiveGrid`] holds
//! one `LiveStatus` per shard plus a shard-less front-end fold, and
//! aggregates them into a [`GridStatusSnapshot`] on demand.

use crate::batch::TickBatch;
use crate::telemetry::{GridObserver, Observer, StatusSnapshot};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A cloneable handle to a continuously-folded [`StatusSnapshot`].
///
/// Attach it to a session with [`crate::Session::run_with`] (directly,
/// or inside a [`Fanout`]); any clone can take [`LiveStatus::snapshot`]
/// at any moment of the run. Writes are one short `RwLock` write
/// section per batch; readers never block writers for long (a snapshot
/// is a clone under the read lock).
#[derive(Debug, Clone)]
pub struct LiveStatus {
    inner: Arc<RwLock<StatusSnapshot>>,
}

impl LiveStatus {
    /// A live view over a fleet of `devices` devices, initially idle.
    pub fn new(devices: usize) -> Self {
        Self {
            inner: Arc::new(RwLock::new(StatusSnapshot::new(devices))),
        }
    }

    /// Folds a whole batch under one write section: one lock
    /// acquisition per tick.
    pub fn fold_batch(&self, batch: &TickBatch) {
        self.inner.write().observe_batch(batch);
    }

    /// A consistent point-in-time copy of the snapshot.
    pub fn snapshot(&self) -> StatusSnapshot {
        self.inner.read().clone()
    }
}

impl Observer for LiveStatus {
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.fold_batch(batch);
    }
}

/// The grid-wide aggregate the `/status` endpoint serves: summed
/// counters over every shard's live snapshot, plus the per-shard
/// snapshots themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridStatusSnapshot {
    /// Latest virtual time seen on any shard.
    pub at: f64,
    /// Events folded across all shards and the grid front-end.
    pub events_folded: usize,
    /// Beams placed on device queues, grid-wide.
    pub placed: usize,
    /// Beams fully dedispersed on time, grid-wide.
    pub completed: usize,
    /// Beams finished on time with tiers shed, grid-wide.
    pub degraded: usize,
    /// Beams finished past their deadline, grid-wide.
    pub deadline_misses: usize,
    /// Beams dropped whole, grid-wide.
    pub shed_whole: usize,
    /// Trial DMs shed, grid-wide.
    pub total_shed_trials: usize,
    /// Bounces observed, grid-wide.
    pub bounced: usize,
    /// Re-placements of bounced beams, grid-wide.
    pub retries: usize,
    /// Probes answered, grid-wide.
    pub probes: usize,
    /// Canary placements, grid-wide.
    pub canaries: usize,
    /// Transitions back to healthy, grid-wide.
    pub recoveries: usize,
    /// Grid front-end rebalance decisions.
    pub rebalances: usize,
    /// Blocks arrived at capture front-ends, grid-wide.
    pub capture_arrivals: usize,
    /// Blocks dropped at capture, grid-wide.
    pub capture_drops: usize,
    /// Blocks degraded at capture, grid-wide.
    pub capture_degraded: usize,
    /// The per-shard snapshots, shard order.
    pub shards: Vec<StatusSnapshot>,
}

impl GridStatusSnapshot {
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
}

/// Live status for a whole grid: one [`LiveStatus`] per shard plus a
/// shard-less fold for grid front-end events (rebalances).
///
/// Implements [`GridObserver`], so it attaches directly to
/// [`crate::GridSession::run_with`]; each shard thread writes only its
/// own shard's lock, so shards never contend with each other — only
/// with readers of the shard they serve.
#[derive(Debug, Clone)]
pub struct LiveGrid {
    shards: Vec<LiveStatus>,
    front: LiveStatus,
}

impl LiveGrid {
    /// A live grid view; `shard_devices[i]` is shard `i`'s device
    /// count.
    pub fn new(shard_devices: &[usize]) -> Self {
        Self {
            shards: shard_devices.iter().map(|&d| LiveStatus::new(d)).collect(),
            front: LiveStatus::new(0),
        }
    }

    /// A single-shard view — the shape a plain (non-grid) fleet
    /// session serves through the same endpoints.
    pub fn single(devices: usize) -> Self {
        Self::new(&[devices])
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The live handle for shard `s` (attachable to a single-fleet
    /// session via [`crate::Session::run_with`]).
    pub fn shard(&self, s: usize) -> Option<&LiveStatus> {
        self.shards.get(s)
    }

    /// A point-in-time copy of shard `s`'s snapshot.
    pub fn shard_snapshot(&self, s: usize) -> Option<StatusSnapshot> {
        self.shards.get(s).map(LiveStatus::snapshot)
    }

    /// The grid-wide aggregate: per-shard snapshots taken one at a
    /// time (each internally consistent) and summed.
    pub fn snapshot(&self) -> GridStatusSnapshot {
        let shards: Vec<StatusSnapshot> = self.shards.iter().map(LiveStatus::snapshot).collect();
        let front = self.front.snapshot();
        let sum = |f: fn(&StatusSnapshot) -> usize| shards.iter().map(f).sum::<usize>();
        GridStatusSnapshot {
            at: shards.iter().map(|s| s.at).fold(front.at, f64::max),
            events_folded: sum(|s| s.events_folded) + front.events_folded,
            placed: sum(|s| s.placed),
            completed: sum(|s| s.completed),
            degraded: sum(|s| s.degraded),
            deadline_misses: sum(|s| s.deadline_misses),
            shed_whole: sum(|s| s.shed_whole),
            total_shed_trials: sum(|s| s.total_shed_trials),
            bounced: sum(|s| s.bounced),
            retries: sum(|s| s.retries),
            probes: sum(|s| s.probes),
            canaries: sum(|s| s.canaries),
            recoveries: sum(|s| s.recoveries),
            rebalances: sum(|s| s.rebalances) + front.rebalances,
            capture_arrivals: sum(|s| s.capture_arrivals) + front.capture_arrivals,
            capture_drops: sum(|s| s.capture_drops) + front.capture_drops,
            capture_degraded: sum(|s| s.capture_degraded) + front.capture_degraded,
            shards,
        }
    }
}

impl GridObserver for LiveGrid {
    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        match shard {
            Some(s) => {
                if let Some(live) = self.shards.get(s) {
                    live.fold_batch(batch);
                }
            }
            None => self.front.fold_batch(batch),
        }
    }
}

/// Fans one telemetry stream out to several observers, in order.
///
/// The session API takes exactly one `&mut dyn Observer`; a `Fanout`
/// lets one run feed, say, a [`LiveStatus`], a
/// [`super::RegistryObserver`], and a [`super::FlightRecorder`] at
/// once.
#[derive(Default)]
pub struct Fanout<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> Fanout<'a> {
    /// An empty fanout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink (builder style).
    #[must_use]
    pub fn with(mut self, sink: &'a mut dyn Observer) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Observer for Fanout<'_> {
    fn observe_batch(&mut self, batch: &TickBatch) {
        for sink in &mut self.sinks {
            sink.observe_batch(batch);
        }
    }
}

/// The grid-side fanout: shares one live grid stream across several
/// [`GridObserver`]s.
#[derive(Default, Clone, Copy)]
pub struct GridFanout<'a> {
    sinks: &'a [&'a dyn GridObserver],
}

impl<'a> GridFanout<'a> {
    /// A fanout over `sinks`, fed in order.
    pub fn new(sinks: &'a [&'a dyn GridObserver]) -> Self {
        Self { sinks }
    }
}

impl GridObserver for GridFanout<'_> {
    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        for sink in self.sinks {
            sink.observe_grid_batch(shard, batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ResolvedFleet, Scheduler, SurveyLoad, TelemetryEvent};

    #[test]
    fn live_status_equals_the_post_run_fold_and_fanout_feeds_everyone() {
        let fleet = ResolvedFleet::synthetic(500, &[0.1, 0.1]);
        let load = SurveyLoad::custom(500, 4, 3);
        let live = LiveStatus::new(2);
        let mut live_handle = live.clone();
        let mut recorder = crate::obs::FlightRecorder::new(4096);
        let mut fanout = Fanout::new().with(&mut live_handle).with(&mut recorder);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .run_with(&mut fanout)
            .unwrap();
        // The clone shares the fold: the original handle sees the
        // whole run.
        assert_eq!(live.snapshot(), run.status());
        assert_eq!(recorder.recorded() as usize, run.log.len());
    }

    #[test]
    fn grid_snapshot_aggregates_shards_and_roundtrips() {
        let grid = LiveGrid::new(&[2, 1]);
        let probe = |at| {
            TickBatch::of(&TelemetryEvent::Probe {
                device: 0,
                at,
                up: true,
            })
        };
        grid.observe_grid_batch(Some(0), &probe(1.0));
        grid.observe_grid_batch(Some(1), &probe(2.0));
        grid.observe_grid_batch(
            None,
            &TickBatch::of(&TelemetryEvent::Rebalance {
                tick: 0,
                index: 3,
                from_shard: 0,
                to_shard: 1,
            }),
        );
        let snapshot = grid.snapshot();
        assert_eq!(snapshot.probes, 2);
        assert_eq!(snapshot.rebalances, 1);
        assert_eq!(snapshot.events_folded, 3);
        assert!((snapshot.at - 2.0).abs() < 1e-12);
        assert_eq!(snapshot.shards.len(), 2);
        let back = GridStatusSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back, snapshot);
        // Unknown shard tags are dropped, not a panic.
        grid.observe_grid_batch(Some(9), &probe(3.0));
        assert_eq!(grid.snapshot().probes, 2);
    }
}
