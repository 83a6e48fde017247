//! The flight recorder: a bounded ring of recent telemetry.
//!
//! A [`FlightRecorder`] keeps the last *N* [`TelemetryEvent`]s **per
//! shard** (plus a ring for the grid front-end's shard-less events),
//! each stamped with a globally monotone sequence number. Like the
//! post-run [`crate::ShardEvent`] stream, recorded events carry
//! *global* beam identity — the grid's live forwarding re-keys through
//! the same [`crate::GlobalBeam`] tables before the recorder sees
//! them — so a dump replays directly through the one stream fold,
//! [`StatusSnapshot`], whose counters the reports carry.
//!
//! Dumps are NDJSON (one [`RecordedEvent`] JSON object per line), the
//! format `GET /events` serves and [`FlightRecorder::from_ndjson`]
//! parses back for post-incident replay.

use crate::batch::{EventLog, TickBatch};
use crate::telemetry::{GridObserver, Observer, StatusSnapshot, TelemetryEvent};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// One recorded event: a sequence stamp, the emitting shard (`None`
/// for the grid front-end), and the globally re-keyed event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedEvent {
    /// Recorder-wide monotone sequence number (records arrive from
    /// concurrent shard threads; the sequence fixes one total order).
    pub seq: u64,
    /// Emitting shard; `None` for grid-level events such as rebalances.
    pub shard: Option<usize>,
    /// The event, with global beam identity.
    pub event: TelemetryEvent,
}

/// One run of contiguous recorded events in the columnar encoding: the
/// batched NDJSON dump format (`GET /events?format=batch`).
///
/// A batch stands for the events `start_seq .. start_seq + batch.len()`
/// under one shard tag; [`FlightRecorder::from_ndjson_batched`] expands
/// it back to exactly the [`RecordedEvent`]s the flat format carries.
/// For multi-process captures (many shards framing [`TickBatch`]
/// blocks concurrently) this keeps a dump's size proportional to the
/// columnar stream, not the per-event JSON expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedBatch {
    /// Emitting shard; `None` for grid-level events.
    pub shard: Option<usize>,
    /// Sequence number of the batch's first event.
    pub start_seq: u64,
    /// The events, columnar.
    pub batch: TickBatch,
}

/// One shard's bounded ring.
#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<RecordedEvent>,
}

#[derive(Debug)]
struct Recorder {
    capacity: usize,
    next_seq: u64,
    recorded: u64,
    /// Ring per shard tag, created on first event. Index 0 is the
    /// shard-less (grid front-end / single-fleet) ring; shard `s` maps
    /// to index `s + 1`.
    rings: Vec<Ring>,
}

impl Recorder {
    fn slot(shard: Option<usize>) -> usize {
        shard.map_or(0, |s| s + 1)
    }

    /// Records a whole batch. Because a ring keeps only the newest
    /// `capacity` events per shard and the entire batch lands in one
    /// ring, any event deeper than `capacity` from the batch's end
    /// would be evicted before the batch finished — so those are never
    /// decoded at all. The sequence stamps and the recorded/dropped
    /// accounting still advance exactly as if every event had been
    /// pushed and aged out, so `tail`, `recorded`, and `dropped` do
    /// not depend on where batch boundaries fall. Each kept event is
    /// decoded straight into the ring: materialized once, never cloned.
    fn record_batch(&mut self, shard: Option<usize>, batch: &TickBatch) {
        if batch.is_empty() {
            return;
        }
        let slot = Self::slot(shard);
        if slot >= self.rings.len() {
            self.rings.resize_with(slot + 1, Ring::default);
        }
        let ring = &mut self.rings[slot].buf;
        let skip = batch.len().saturating_sub(self.capacity);
        if skip > 0 {
            ring.clear();
        }
        for i in skip..batch.len() {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(RecordedEvent {
                seq: self.next_seq + i as u64,
                shard,
                event: batch.get(i).expect("order index in range"),
            });
        }
        self.next_seq += batch.len() as u64;
        self.recorded += batch.len() as u64;
    }
}

/// A bounded, thread-shareable flight recorder.
///
/// Cloning shares the ring. Recording takes one short
/// [`parking_lot::Mutex`] critical section per batch; the buffer holds
/// at most `capacity` events *per shard*, so memory stays bounded
/// however long a run is.
///
/// Use it as an [`Observer`] on a single-fleet session (events land in
/// the shard-less ring) or as a [`GridObserver`] on
/// [`crate::GridSession::run_with`] (each shard keeps its own ring).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<Recorder>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events per shard
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Recorder {
                capacity: capacity.max(1),
                next_seq: 0,
                recorded: 0,
                rings: Vec::new(),
            })),
        }
    }

    /// Records a whole batch under one lock acquisition, moving each
    /// decoded event straight into the ring. Events that the
    /// ring bound would evict before the batch finished are accounted
    /// for (sequence stamps and drop counts advance) but never
    /// decoded, so recording cost is bounded by the ring capacity, not
    /// the batch size.
    pub fn record_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        self.inner.lock().record_batch(shard, batch);
    }

    /// Events currently held across all rings.
    pub fn len(&self) -> usize {
        self.inner.lock().rings.iter().map(|r| r.buf.len()).sum()
    }

    /// Whether nothing has been recorded (or everything has aged out —
    /// impossible, rings only drop when they re-fill).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including those aged out).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().recorded
    }

    /// Events aged out of the rings so far.
    pub fn dropped(&self) -> u64 {
        let inner = self.inner.lock();
        inner.recorded - inner.rings.iter().map(|r| r.buf.len() as u64).sum::<u64>()
    }

    /// The last `n` recorded events across all shards, in sequence
    /// order (the total order the recorder stamped at arrival).
    pub fn tail(&self, n: usize) -> Vec<RecordedEvent> {
        let inner = self.inner.lock();
        let mut all: Vec<RecordedEvent> = inner
            .rings
            .iter()
            .flat_map(|r| r.buf.iter().cloned())
            .collect();
        drop(inner);
        all.sort_by_key(|e| e.seq);
        let skip = all.len().saturating_sub(n);
        all.split_off(skip)
    }

    /// Serializes events as NDJSON: one JSON object per line.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on plain data, which cannot
    /// happen for this type.
    pub fn to_ndjson(events: &[RecordedEvent]) -> String {
        let mut out = String::new();
        for event in events {
            out.push_str(&serde_json::to_string(event).expect("plain event always serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses an NDJSON dump back (blank lines ignored).
    ///
    /// # Errors
    ///
    /// Returns the serde error of the first malformed line.
    pub fn from_ndjson(text: &str) -> Result<Vec<RecordedEvent>, serde_json::Error> {
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }

    /// Serializes events as *batched* NDJSON: one [`RecordedBatch`]
    /// JSON object per line, each covering a maximal run of events
    /// with one shard tag and contiguous sequence numbers. Lossless
    /// with respect to [`FlightRecorder::from_ndjson_batched`]: the
    /// expansion reproduces the input events exactly, so a batched
    /// dump replays byte-identically to a flat one.
    ///
    /// # Panics
    ///
    /// Panics only if serde_json fails on plain data, which cannot
    /// happen for this type.
    pub fn to_ndjson_batched(events: &[RecordedEvent]) -> String {
        let mut out = String::new();
        let mut open: Option<RecordedBatch> = None;
        let flush = |b: Option<RecordedBatch>, out: &mut String| {
            if let Some(b) = b {
                out.push_str(&serde_json::to_string(&b).expect("plain batch always serializes"));
                out.push('\n');
            }
        };
        for event in events {
            let extends = open.as_ref().is_some_and(|b| {
                b.shard == event.shard && b.start_seq + b.batch.len() as u64 == event.seq
            });
            if !extends {
                flush(open.take(), &mut out);
                open = Some(RecordedBatch {
                    shard: event.shard,
                    start_seq: event.seq,
                    batch: TickBatch::new(),
                });
            }
            open.as_mut()
                .expect("an open batch exists here")
                .batch
                .push(&event.event);
        }
        flush(open, &mut out);
        out
    }

    /// Parses a batched NDJSON dump back to flat [`RecordedEvent`]s
    /// (blank lines ignored). Each batch is validated before being
    /// expanded — a corrupt columnar block is a loud error, never a
    /// mis-folded event.
    ///
    /// # Errors
    ///
    /// Returns the serde error of the first malformed or invalid line.
    pub fn from_ndjson_batched(text: &str) -> Result<Vec<RecordedEvent>, serde_json::Error> {
        let mut out = Vec::new();
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let recorded: RecordedBatch = serde_json::from_str(line)?;
            recorded
                .batch
                .validate()
                .map_err(|why| serde::DeError::new(format!("invalid recorded batch: {why}")))?;
            for (i, event) in recorded.batch.iter().enumerate() {
                out.push(RecordedEvent {
                    seq: recorded.start_seq + i as u64,
                    shard: recorded.shard,
                    event,
                });
            }
        }
        Ok(out)
    }

    /// Replays a dump through the [`StatusSnapshot`] fold, keeping
    /// only events tagged `shard` — the post-incident path: pull
    /// `/events`, filter to the shard under suspicion, and fold the
    /// tail into the same operator view the live endpoint serves.
    pub fn replay(
        events: &[RecordedEvent],
        shard: Option<usize>,
        devices: usize,
    ) -> StatusSnapshot {
        let kept = events.iter().filter(|e| e.shard == shard);
        StatusSnapshot::from_log(devices, &EventLog::from_events(kept.map(|e| &e.event)))
    }
}

impl Observer for FlightRecorder {
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.record_batch(None, batch);
    }
}

impl GridObserver for FlightRecorder {
    fn observe_grid_batch(&self, shard: Option<usize>, batch: &TickBatch) {
        self.record_batch(shard, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(device: usize, at: f64) -> TickBatch {
        TickBatch::of(&TelemetryEvent::Probe {
            device,
            at,
            up: true,
        })
    }

    #[test]
    fn ring_is_bounded_per_shard_and_keeps_the_newest() {
        let recorder = FlightRecorder::new(3);
        for i in 0..5 {
            recorder.record_batch(Some(0), &probe(i, i as f64));
        }
        recorder.record_batch(Some(1), &probe(9, 9.0));
        assert_eq!(recorder.len(), 4, "shard 0 capped at 3, shard 1 holds 1");
        assert_eq!(recorder.recorded(), 6);
        assert_eq!(recorder.dropped(), 2);
        let tail = recorder.tail(10);
        assert_eq!(tail.len(), 4);
        // Sequence order, oldest surviving first; the dropped events
        // are the two oldest of shard 0.
        assert_eq!(tail[0].seq, 2);
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
        let tail2 = recorder.tail(2);
        assert_eq!(tail2.len(), 2);
        assert_eq!(tail2[1].shard, Some(1));
    }

    #[test]
    fn ndjson_round_trips_and_replays_through_the_snapshot_fold() {
        use crate::{ResolvedFleet, Scheduler, SurveyLoad};
        let fleet = ResolvedFleet::synthetic(400, &[0.1, 0.1]);
        let load = SurveyLoad::custom(400, 4, 2);
        let mut recorder = FlightRecorder::new(4096);
        let run = Scheduler::session(&fleet)
            .load(&load)
            .run_with(&mut recorder)
            .unwrap();
        assert_eq!(recorder.recorded() as usize, run.log.len());
        let tail = recorder.tail(usize::MAX);
        let text = FlightRecorder::to_ndjson(&tail);
        let back = FlightRecorder::from_ndjson(&text).unwrap();
        assert_eq!(back, tail, "NDJSON round-trips losslessly");
        // The replayed snapshot agrees with the run's own fold.
        let replayed = FlightRecorder::replay(&back, None, 2);
        assert_eq!(replayed, run.status());
        // A malformed line is a loud error, not a silent skip.
        assert!(FlightRecorder::from_ndjson("{\"seq\":}").is_err());
    }

    #[test]
    fn batched_ndjson_round_trips_byte_identically() {
        use crate::{Grid, ResolvedFleet, SurveyLoad};
        // A grid run drives the recorder the way a multi-process
        // capture does: many shards, interleaved batch arrivals.
        let shards = vec![
            ResolvedFleet::synthetic(400, &[0.1, 0.1]),
            ResolvedFleet::synthetic(400, &[0.1]),
        ];
        let load = SurveyLoad::custom(400, 6, 3);
        let recorder = FlightRecorder::new(4096);
        Grid::session(&shards)
            .load(&load)
            .run_with(&recorder)
            .unwrap();
        let tail = recorder.tail(usize::MAX);
        assert!(!tail.is_empty());

        let batched = FlightRecorder::to_ndjson_batched(&tail);
        let expanded = FlightRecorder::from_ndjson_batched(&batched).unwrap();
        assert_eq!(expanded, tail, "batched dump expands losslessly");
        // Byte-identical replay: the expanded events re-serialize to
        // exactly the flat dump of the original tail.
        assert_eq!(
            FlightRecorder::to_ndjson(&expanded),
            FlightRecorder::to_ndjson(&tail)
        );
        // The batched form actually batches: fewer lines than events.
        assert!(batched.lines().count() < tail.len());

        // Corrupt columnar blocks are loud. An order table pointing at
        // a missing row must not expand.
        let bogus = "{\"shard\":null,\"start_seq\":0,\"batch\":{\"admissions\":[],\"beams\":[],\"bounces\":[],\"captures\":[],\"depth_steps\":[],\"health\":[],\"order\":[[\"probe\",0]],\"placed\":[],\"probes\":[],\"rebalances\":[],\"retries\":[],\"sheds\":[]}}";
        assert!(FlightRecorder::from_ndjson_batched(bogus).is_err());

        // Mixed single events (rebalance tagged shard-less between
        // shard batches) still group and round-trip.
        let single = FlightRecorder::to_ndjson_batched(&tail[..1]);
        assert_eq!(
            FlightRecorder::from_ndjson_batched(&single).unwrap(),
            &tail[..1]
        );
    }
}
