//! Batched, arena-backed telemetry encoding: the hot-path event block.
//!
//! PR 4 made every observable fact a [`TelemetryEvent`] — correct, but
//! the hot path paid for it: one virtual `observe` dispatch, one
//! `Vec<enum>` push, and (for every attached sink) one lock
//! acquisition *per event, per beam*. At the ROADMAP's target scale —
//! order-of-millions beams per tick — that per-event tax is the
//! bottleneck.
//!
//! This module is the batched replacement:
//!
//! * [`EventKind`] — a dense discriminant for the 14 event variants,
//!   usable as an array index (the metrics layer's per-kind counters
//!   stop scanning label strings).
//! * [`TickBatch`] — one tick's events in struct-of-arrays form:
//!   per-variant row vectors of compact `Copy` rows with beam/device
//!   identities interned as `u32`, plus an order table preserving
//!   exact emission order. Encoding is a row append; decoding
//!   ([`TickBatch::get`] / [`TickBatch::iter`]) reconstructs the
//!   original [`TelemetryEvent`] values bit-for-bit, which is what
//!   keeps reports, snapshots, determinism fingerprints, and capture
//!   ledgers byte-identical across the encoding swap.
//! * [`EventLog`] — the stream handle run results carry: a sequence
//!   of sealed batches that iterates, replays, and compares as a flat
//!   event sequence regardless of where its batch boundaries fall.
//!
//! Sinks consume batches through the one observer seam
//! ([`Observer::observe_batch`] / [`GridObserver::observe_grid_batch`]).
//! The dispatcher emits *only* batches, flushed at its deterministic
//! tick boundaries, so every sink ([`crate::obs::LiveStatus`],
//! [`crate::obs::FlightRecorder`], [`crate::obs::RegistryObserver`])
//! pays its lock once per tick instead of once per beam. A single
//! event is delivered as a batch of one ([`TickBatch::of`]) — an input
//! to the same fold, never a second implementation of it.
//!
//! Phase spans ([`crate::obs::trace`]) deliberately stay *outside*
//! this stream: a [`TickBatch`] holds only deterministic scheduling
//! facts, while spans are wall-clock timings that must never reach a
//! ledger, fingerprint, or report. Spans travel their own channels —
//! the [`crate::obs::TraceSink`] rings in-process, the
//! `ShardFrame::Trace` sidecar across the process boundary — so the
//! batch encoding (and everything replayed from it) stays
//! byte-identical whether or not tracing is attached.
//!
//! [`GridObserver::observe_grid_batch`]: crate::GridObserver::observe_grid_batch

use crate::metrics::{BeamOutcome, BeamRecord, HealthEvent, ShedRecord};
use crate::telemetry::{CaptureEvent, Observer, TelemetryEvent};
use manycore_sim::Algorithm;
use serde::{Deserialize, Serialize};

/// Dense discriminant for [`TelemetryEvent`] variants (capture events
/// split by sub-variant, matching [`TelemetryEvent::kind`] labels).
///
/// The discriminant is stable and array-indexable:
/// `EventKind::ALL[k as usize] == k`, so per-kind tables (counters,
/// histograms) index directly instead of matching label strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// [`TelemetryEvent::Admission`].
    Admission = 0,
    /// [`TelemetryEvent::Placed`].
    Placed = 1,
    /// [`TelemetryEvent::Beam`].
    Beam = 2,
    /// [`TelemetryEvent::Shed`].
    Shed = 3,
    /// [`TelemetryEvent::Bounce`].
    Bounce = 4,
    /// [`TelemetryEvent::Retry`].
    Retry = 5,
    /// [`TelemetryEvent::Probe`].
    Probe = 6,
    /// [`TelemetryEvent::Health`].
    Health = 7,
    /// [`TelemetryEvent::Rebalance`].
    Rebalance = 8,
    /// [`CaptureEvent::Arrival`].
    CaptureArrival = 9,
    /// [`CaptureEvent::Drop`].
    CaptureDrop = 10,
    /// [`CaptureEvent::Degrade`].
    CaptureDegrade = 11,
    /// [`CaptureEvent::Drain`].
    CaptureDrain = 12,
    /// [`TelemetryEvent::AlgorithmSwitch`].
    AlgorithmSwitch = 13,
}

impl EventKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 14;

    /// Every kind, in discriminant order (the metrics layer builds its
    /// `fleet_events_total` counters from this table).
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::Admission,
        EventKind::Placed,
        EventKind::Beam,
        EventKind::Shed,
        EventKind::Bounce,
        EventKind::Retry,
        EventKind::Probe,
        EventKind::Health,
        EventKind::Rebalance,
        EventKind::CaptureArrival,
        EventKind::CaptureDrop,
        EventKind::CaptureDegrade,
        EventKind::CaptureDrain,
        EventKind::AlgorithmSwitch,
    ];

    /// The kind of one event.
    pub fn of(event: &TelemetryEvent) -> Self {
        match event {
            TelemetryEvent::Admission { .. } => EventKind::Admission,
            TelemetryEvent::Placed { .. } => EventKind::Placed,
            TelemetryEvent::Beam(_) => EventKind::Beam,
            TelemetryEvent::Shed(_) => EventKind::Shed,
            TelemetryEvent::Bounce { .. } => EventKind::Bounce,
            TelemetryEvent::Retry { .. } => EventKind::Retry,
            TelemetryEvent::Probe { .. } => EventKind::Probe,
            TelemetryEvent::Health(_) => EventKind::Health,
            TelemetryEvent::Rebalance { .. } => EventKind::Rebalance,
            TelemetryEvent::Capture(CaptureEvent::Arrival { .. }) => EventKind::CaptureArrival,
            TelemetryEvent::Capture(CaptureEvent::Drop { .. }) => EventKind::CaptureDrop,
            TelemetryEvent::Capture(CaptureEvent::Degrade { .. }) => EventKind::CaptureDegrade,
            TelemetryEvent::Capture(CaptureEvent::Drain { .. }) => EventKind::CaptureDrain,
            TelemetryEvent::AlgorithmSwitch { .. } => EventKind::AlgorithmSwitch,
        }
    }

    /// The kind of one capture sub-event.
    pub fn of_capture(event: &CaptureEvent) -> Self {
        match event {
            CaptureEvent::Arrival { .. } => EventKind::CaptureArrival,
            CaptureEvent::Drop { .. } => EventKind::CaptureDrop,
            CaptureEvent::Degrade { .. } => EventKind::CaptureDegrade,
            CaptureEvent::Drain { .. } => EventKind::CaptureDrain,
        }
    }

    /// The stable string label — identical to
    /// [`TelemetryEvent::kind`] for the corresponding variant.
    pub const fn label(self) -> &'static str {
        match self {
            EventKind::Admission => "admission",
            EventKind::Placed => "placed",
            EventKind::Beam => "beam",
            EventKind::Shed => "shed",
            EventKind::Bounce => "bounce",
            EventKind::Retry => "retry",
            EventKind::Probe => "probe",
            EventKind::Health => "health",
            EventKind::Rebalance => "rebalance",
            EventKind::CaptureArrival => "capture_arrival",
            EventKind::CaptureDrop => "capture_drop",
            EventKind::CaptureDegrade => "capture_degrade",
            EventKind::CaptureDrain => "capture_drain",
            EventKind::AlgorithmSwitch => "algorithm_switch",
        }
    }

    /// The kind as a dense array index.
    pub const fn index(self) -> usize {
        self as usize
    }
}

// Hand-written serde (the derive stub cannot parse explicit
// discriminants): a kind crosses the wire as its stable string label,
// the same convention the derive uses for unit variants.
impl serde::Serialize for EventKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

impl serde::Deserialize for EventKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Str(s) = value else {
            return Err(serde::DeError::new("EventKind: expected a string label"));
        };
        EventKind::ALL
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| serde::DeError::new(format!("EventKind: unknown label `{s}`")))
    }
}

/// Interns a `usize` identity into the 32-bit row encoding.
///
/// Every identity a batch interns (beam/job indices, device ids, tick
/// numbers, shard numbers, trial counts) is bounded far below `u32` in
/// any feasible deployment; overflowing the encoding is a programming
/// error worth a loud panic rather than a silent wrap.
#[inline]
fn intern(value: usize) -> u32 {
    u32::try_from(value).expect("telemetry identity exceeds the u32 batch encoding")
}

/// [`TelemetryEvent::Admission`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AdmissionRow {
    pub(crate) tick: u32,
    pub(crate) release: f64,
    pub(crate) deadline: f64,
    pub(crate) beams: u32,
    pub(crate) kept_trials: u32,
    pub(crate) shed_tiers: u32,
}

/// [`TelemetryEvent::Placed`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct PlacedRow {
    pub(crate) index: u32,
    pub(crate) device: u32,
    pub(crate) at: f64,
    pub(crate) kept_trials: u32,
    pub(crate) attempt: u32,
    pub(crate) canary: bool,
}

/// [`TelemetryEvent::Bounce`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct BounceRow {
    pub(crate) index: u32,
    pub(crate) device: u32,
    pub(crate) at: f64,
    pub(crate) attempt: u32,
}

/// [`TelemetryEvent::Retry`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RetryRow {
    pub(crate) index: u32,
    pub(crate) at: f64,
    pub(crate) attempt: u32,
}

/// [`TelemetryEvent::Probe`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ProbeRow {
    pub(crate) device: u32,
    pub(crate) at: f64,
    pub(crate) up: bool,
}

/// [`TelemetryEvent::Rebalance`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RebalanceRow {
    pub(crate) tick: u32,
    pub(crate) index: u32,
    pub(crate) from_shard: u32,
    pub(crate) to_shard: u32,
}

/// [`TelemetryEvent::AlgorithmSwitch`] in row form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AlgorithmSwitchRow {
    pub(crate) tick: u32,
    pub(crate) device: u32,
    pub(crate) at: f64,
    pub(crate) from: Algorithm,
    pub(crate) to: Algorithm,
}

/// One block of telemetry events in struct-of-arrays form.
///
/// A `TickBatch` holds the events the dispatcher emitted between two
/// deterministic flush points (in practice: one tick). Events are
/// encoded on [`push`] into per-variant row vectors — compact `Copy`
/// rows with identities interned as `u32` — while an order table
/// `(kind, row)` preserves exact emission order, so [`get`]/[`iter`]
/// decode the original [`TelemetryEvent`] values losslessly.
///
/// Batches are the unit of delivery on the observer seam
/// ([`Observer::observe_batch`]): a sink amortizes its per-delivery
/// costs (locks, dispatch) over the whole block.
///
/// [`push`]: TickBatch::push
/// [`get`]: TickBatch::get
/// [`iter`]: TickBatch::iter
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickBatch {
    /// Emission order: `(kind, row index into that kind's vector)`.
    ///
    /// Columns are `pub(crate)` so incremental sinks
    /// ([`crate::StatusSnapshot`], the metrics registry) can fold
    /// straight off the rows without materializing events.
    pub(crate) order: Vec<(EventKind, u32)>,
    pub(crate) admissions: Vec<AdmissionRow>,
    pub(crate) placed: Vec<PlacedRow>,
    pub(crate) beams: Vec<BeamRecord>,
    pub(crate) sheds: Vec<ShedRecord>,
    pub(crate) bounces: Vec<BounceRow>,
    pub(crate) retries: Vec<RetryRow>,
    pub(crate) probes: Vec<ProbeRow>,
    pub(crate) health: Vec<HealthEvent>,
    pub(crate) rebalances: Vec<RebalanceRow>,
    pub(crate) captures: Vec<CaptureEvent>,
    pub(crate) switches: Vec<AlgorithmSwitchRow>,
    /// Denormalized queue-depth trajectory: one `(device, up)` step per
    /// depth-affecting event (`Placed` raises, `Bounce` and
    /// device-resolved `Beam` lower), in emission order. Precomputed on
    /// [`push`] — the variant is already matched there — so the two
    /// order-sensitive sinks (status snapshot, metrics registry) fold
    /// depths off one dense column instead of each re-walking the
    /// order table.
    ///
    /// [`push`]: TickBatch::push
    pub(crate) depth_steps: Vec<(u32, bool)>,
}

impl TickBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch of one: how a single event reaches a batch-only sink.
    pub fn of(event: &TelemetryEvent) -> Self {
        let mut batch = Self::new();
        batch.push(event);
        batch
    }

    /// Events encoded in the batch.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// How many events of `kind` the batch holds.
    pub fn count_kind(&self, kind: EventKind) -> usize {
        match kind {
            EventKind::Admission => self.admissions.len(),
            EventKind::Placed => self.placed.len(),
            EventKind::Beam => self.beams.len(),
            EventKind::Shed => self.sheds.len(),
            EventKind::Bounce => self.bounces.len(),
            EventKind::Retry => self.retries.len(),
            EventKind::Probe => self.probes.len(),
            EventKind::Health => self.health.len(),
            EventKind::Rebalance => self.rebalances.len(),
            EventKind::AlgorithmSwitch => self.switches.len(),
            // The four capture kinds share the `captures` column, so
            // count there — never by scanning the full order table.
            _ => self
                .captures
                .iter()
                .filter(|c| EventKind::of_capture(c) == kind)
                .count(),
        }
    }

    /// Checks the structural invariants [`TickBatch::push`] maintains,
    /// for batches that arrive from *outside* the process (deserialized
    /// from a frame or a dump) rather than being encoded in-tree.
    ///
    /// [`TickBatch::get`] indexes row vectors directly off the order
    /// table, so a corrupt or adversarial batch could otherwise panic
    /// mid-decode — or worse, mis-fold silently by referencing rows out
    /// of emission order. This verifies, in one pass:
    ///
    /// * the `i`-th occurrence of each kind in the order table points
    ///   at row `i` of that kind's vector (the exact invariant `push`
    ///   maintains — in-range, no duplicates, no gaps, no reordering);
    /// * every row vector is fully referenced (no orphan rows);
    /// * capture order entries agree with the sub-variant actually
    ///   stored at their row of the shared `captures` column;
    /// * the denormalized `depth_steps` column matches the
    ///   depth-affecting rows exactly, step for step.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut counts = [0u32; EventKind::COUNT];
        let mut depth = 0usize;
        let step = |expected: usize, got: Option<&(u32, bool)>, device: u32, up: bool| match got {
            Some(&(d, u)) if d == device && u == up => Ok(()),
            _ => Err(format!(
                "depth step {expected} disagrees with its source row (device {device}, up {up})"
            )),
        };
        for (i, &(kind, row)) in self.order.iter().enumerate() {
            let k = kind.index();
            if row != counts[k] {
                return Err(format!(
                    "order entry {i} ({}) references row {row}, expected {}",
                    kind.label(),
                    counts[k]
                ));
            }
            counts[k] += 1;
            let row = row as usize;
            match kind {
                EventKind::Placed => {
                    let r = self
                        .placed
                        .get(row)
                        .ok_or_else(|| format!("order entry {i} (placed) beyond its column"))?;
                    step(depth, self.depth_steps.get(depth), r.device, true)?;
                    depth += 1;
                }
                EventKind::Bounce => {
                    let r = self
                        .bounces
                        .get(row)
                        .ok_or_else(|| format!("order entry {i} (bounce) beyond its column"))?;
                    step(depth, self.depth_steps.get(depth), r.device, false)?;
                    depth += 1;
                }
                EventKind::Beam => {
                    let r = self
                        .beams
                        .get(row)
                        .ok_or_else(|| format!("order entry {i} (beam) beyond its column"))?;
                    match r.outcome {
                        BeamOutcome::Completed { device, .. }
                        | BeamOutcome::Degraded { device, .. }
                        | BeamOutcome::Missed { device, .. } => {
                            let device = u32::try_from(device).map_err(|_| {
                                format!("order entry {i} (beam) device exceeds the u32 encoding")
                            })?;
                            step(depth, self.depth_steps.get(depth), device, false)?;
                            depth += 1;
                        }
                        BeamOutcome::ShedWhole { .. } => {}
                    }
                }
                EventKind::CaptureArrival
                | EventKind::CaptureDrop
                | EventKind::CaptureDegrade
                | EventKind::CaptureDrain => {
                    let c = self
                        .captures
                        .get(row)
                        .ok_or_else(|| format!("order entry {i} (capture) beyond its column"))?;
                    if EventKind::of_capture(c) != kind {
                        return Err(format!(
                            "order entry {i} claims {} but row {row} holds {}",
                            kind.label(),
                            EventKind::of_capture(c).label()
                        ));
                    }
                }
                _ => {}
            }
        }
        // Capture kinds share one column; sum their counts before the
        // per-column orphan check.
        let capture_count = counts[EventKind::CaptureArrival.index()]
            + counts[EventKind::CaptureDrop.index()]
            + counts[EventKind::CaptureDegrade.index()]
            + counts[EventKind::CaptureDrain.index()];
        let columns: [(&str, usize, usize); 11] = [
            ("admission", self.admissions.len(), counts[0] as usize),
            ("placed", self.placed.len(), counts[1] as usize),
            ("beam", self.beams.len(), counts[2] as usize),
            ("shed", self.sheds.len(), counts[3] as usize),
            ("bounce", self.bounces.len(), counts[4] as usize),
            ("retry", self.retries.len(), counts[5] as usize),
            ("probe", self.probes.len(), counts[6] as usize),
            ("health", self.health.len(), counts[7] as usize),
            ("rebalance", self.rebalances.len(), counts[8] as usize),
            ("capture", self.captures.len(), capture_count as usize),
            (
                "algorithm_switch",
                self.switches.len(),
                counts[EventKind::AlgorithmSwitch.index()] as usize,
            ),
        ];
        for (label, len, referenced) in columns {
            if len != referenced {
                return Err(format!(
                    "{label} column holds {len} rows but the order table references {referenced}"
                ));
            }
        }
        if depth != self.depth_steps.len() {
            return Err(format!(
                "depth_steps holds {} entries but the rows imply {depth}",
                self.depth_steps.len()
            ));
        }
        Ok(())
    }

    /// Pre-sizes the batch for a tick of roughly `beams` beams.
    ///
    /// The dispatcher emits about two events per placed beam (a
    /// `Placed` and a terminal `Beam`) plus a thin tail of admission,
    /// bounce, retry, probe, and health traffic, so this reserves the
    /// order table and the two dominant columns up front. Purely a
    /// throughput hint — growth still works without it — but at
    /// order-of-millions beams per tick the doubling reallocations are
    /// a measurable slice of the encode cost.
    pub fn reserve_tick(&mut self, beams: usize) {
        self.order.reserve(2 * beams + 16);
        self.placed.reserve(beams);
        self.beams.reserve(beams);
        self.depth_steps.reserve(2 * beams);
    }

    /// Encodes one event onto the end of the batch.
    pub fn push(&mut self, event: &TelemetryEvent) {
        let (kind, row) = match *event {
            TelemetryEvent::Admission {
                tick,
                release,
                deadline,
                beams,
                kept_trials,
                shed_tiers,
            } => {
                self.admissions.push(AdmissionRow {
                    tick: intern(tick),
                    release,
                    deadline,
                    beams: intern(beams),
                    kept_trials: intern(kept_trials),
                    shed_tiers: intern(shed_tiers),
                });
                (EventKind::Admission, self.admissions.len() - 1)
            }
            TelemetryEvent::Placed {
                index,
                device,
                at,
                kept_trials,
                attempt,
                canary,
            } => {
                self.placed.push(PlacedRow {
                    index: intern(index),
                    device: intern(device),
                    at,
                    kept_trials: intern(kept_trials),
                    attempt: intern(attempt),
                    canary,
                });
                self.depth_steps.push((intern(device), true));
                (EventKind::Placed, self.placed.len() - 1)
            }
            TelemetryEvent::Beam(record) => {
                match record.outcome {
                    BeamOutcome::Completed { device, .. }
                    | BeamOutcome::Degraded { device, .. }
                    | BeamOutcome::Missed { device, .. } => {
                        self.depth_steps.push((intern(device), false));
                    }
                    BeamOutcome::ShedWhole { .. } => {}
                }
                self.beams.push(record);
                (EventKind::Beam, self.beams.len() - 1)
            }
            TelemetryEvent::Shed(ref shed) => {
                self.sheds.push(shed.clone());
                (EventKind::Shed, self.sheds.len() - 1)
            }
            TelemetryEvent::Bounce {
                index,
                device,
                at,
                attempt,
            } => {
                self.bounces.push(BounceRow {
                    index: intern(index),
                    device: intern(device),
                    at,
                    attempt: intern(attempt),
                });
                self.depth_steps.push((intern(device), false));
                (EventKind::Bounce, self.bounces.len() - 1)
            }
            TelemetryEvent::Retry { index, at, attempt } => {
                self.retries.push(RetryRow {
                    index: intern(index),
                    at,
                    attempt: intern(attempt),
                });
                (EventKind::Retry, self.retries.len() - 1)
            }
            TelemetryEvent::Probe { device, at, up } => {
                self.probes.push(ProbeRow {
                    device: intern(device),
                    at,
                    up,
                });
                (EventKind::Probe, self.probes.len() - 1)
            }
            TelemetryEvent::Health(health) => {
                self.health.push(health);
                (EventKind::Health, self.health.len() - 1)
            }
            TelemetryEvent::Rebalance {
                tick,
                index,
                from_shard,
                to_shard,
            } => {
                self.rebalances.push(RebalanceRow {
                    tick: intern(tick),
                    index: intern(index),
                    from_shard: intern(from_shard),
                    to_shard: intern(to_shard),
                });
                (EventKind::Rebalance, self.rebalances.len() - 1)
            }
            TelemetryEvent::Capture(capture) => {
                self.captures.push(capture);
                (EventKind::of_capture(&capture), self.captures.len() - 1)
            }
            TelemetryEvent::AlgorithmSwitch {
                tick,
                device,
                at,
                from,
                to,
            } => {
                self.switches.push(AlgorithmSwitchRow {
                    tick: intern(tick),
                    device: intern(device),
                    at,
                    from,
                    to,
                });
                (EventKind::AlgorithmSwitch, self.switches.len() - 1)
            }
        };
        self.order.push((kind, intern(row)));
    }

    /// Decodes the `i`th event (emission order) back to its original
    /// [`TelemetryEvent`] value.
    pub fn get(&self, i: usize) -> Option<TelemetryEvent> {
        let &(kind, row) = self.order.get(i)?;
        let row = row as usize;
        Some(match kind {
            EventKind::Admission => {
                let r = self.admissions[row];
                TelemetryEvent::Admission {
                    tick: r.tick as usize,
                    release: r.release,
                    deadline: r.deadline,
                    beams: r.beams as usize,
                    kept_trials: r.kept_trials as usize,
                    shed_tiers: r.shed_tiers as usize,
                }
            }
            EventKind::Placed => {
                let r = self.placed[row];
                TelemetryEvent::Placed {
                    index: r.index as usize,
                    device: r.device as usize,
                    at: r.at,
                    kept_trials: r.kept_trials as usize,
                    attempt: r.attempt as usize,
                    canary: r.canary,
                }
            }
            EventKind::Beam => TelemetryEvent::Beam(self.beams[row]),
            EventKind::Shed => TelemetryEvent::Shed(self.sheds[row].clone()),
            EventKind::Bounce => {
                let r = self.bounces[row];
                TelemetryEvent::Bounce {
                    index: r.index as usize,
                    device: r.device as usize,
                    at: r.at,
                    attempt: r.attempt as usize,
                }
            }
            EventKind::Retry => {
                let r = self.retries[row];
                TelemetryEvent::Retry {
                    index: r.index as usize,
                    at: r.at,
                    attempt: r.attempt as usize,
                }
            }
            EventKind::Probe => {
                let r = self.probes[row];
                TelemetryEvent::Probe {
                    device: r.device as usize,
                    at: r.at,
                    up: r.up,
                }
            }
            EventKind::Health => TelemetryEvent::Health(self.health[row]),
            EventKind::Rebalance => {
                let r = self.rebalances[row];
                TelemetryEvent::Rebalance {
                    tick: r.tick as usize,
                    index: r.index as usize,
                    from_shard: r.from_shard as usize,
                    to_shard: r.to_shard as usize,
                }
            }
            EventKind::CaptureArrival
            | EventKind::CaptureDrop
            | EventKind::CaptureDegrade
            | EventKind::CaptureDrain => TelemetryEvent::Capture(self.captures[row]),
            EventKind::AlgorithmSwitch => {
                let r = self.switches[row];
                TelemetryEvent::AlgorithmSwitch {
                    tick: r.tick as usize,
                    device: r.device as usize,
                    at: r.at,
                    from: r.from,
                    to: r.to,
                }
            }
        })
    }

    /// Decoded events in emission order.
    pub fn iter(&self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// Remaps beam identities in place: `map(local_index)` returns the
    /// `(global_index, global_beam)` pair for a shard-local job index,
    /// or `None` to leave it unchanged.
    ///
    /// This is the grid's re-keying to global beam identity:
    /// `Placed`/`Bounce`/`Retry` rows take the new index,
    /// `Beam`/`Shed` rows take both the new index and the new
    /// tick-wide beam number. Device indices and everything else pass
    /// through untouched — column updates over the row vectors, no
    /// event is decoded or rebuilt.
    pub fn rekey(&mut self, map: impl Fn(usize) -> Option<(usize, usize)>) {
        for r in &mut self.placed {
            if let Some((index, _)) = map(r.index as usize) {
                r.index = intern(index);
            }
        }
        for r in &mut self.bounces {
            if let Some((index, _)) = map(r.index as usize) {
                r.index = intern(index);
            }
        }
        for r in &mut self.retries {
            if let Some((index, _)) = map(r.index as usize) {
                r.index = intern(index);
            }
        }
        for r in &mut self.beams {
            if let Some((index, beam)) = map(r.index) {
                r.index = index;
                r.beam = beam;
            }
        }
        for r in &mut self.sheds {
            if let Some((index, beam)) = map(r.index) {
                r.index = index;
                r.beam = beam;
            }
        }
    }
}

/// The telemetry stream a run carries: a sequence of sealed
/// [`TickBatch`] blocks that reads as a flat event sequence.
///
/// `EventLog` replaces the raw `Vec<TelemetryEvent>` on run results
/// ([`crate::FleetRun::log`], [`crate::CaptureRun::log`]). It can be
/// fed either way — per event ([`EventLog::push`]) or per batch
/// ([`EventLog::push_batch`], or as an [`Observer`]) — and its
/// iteration, replay, and equality are all defined over the decoded
/// event sequence, so two logs compare equal exactly when they carry
/// the same events in the same order, regardless of batch boundaries.
/// That sequence equality is what the determinism and capture-replay
/// pins assert.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Sealed batches, in stream order.
    sealed: Vec<TickBatch>,
    /// The open tail batch per-event feeds append to.
    tail: TickBatch,
    /// Total events across `sealed` and `tail`.
    len: usize,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes a flat event sequence into a log (one batch).
    pub fn from_events<'e>(events: impl IntoIterator<Item = &'e TelemetryEvent>) -> Self {
        let mut log = Self::new();
        for event in events {
            log.push(event);
        }
        log.seal();
        log
    }

    /// Events in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encodes one event onto the end of the log.
    pub fn push(&mut self, event: &TelemetryEvent) {
        self.tail.push(event);
        self.len += 1;
    }

    /// Appends a whole batch (sealing any open per-event tail first,
    /// so stream order is preserved). Empty batches are dropped.
    pub fn push_batch(&mut self, batch: TickBatch) {
        if batch.is_empty() {
            return;
        }
        self.seal();
        self.len += batch.len();
        self.sealed.push(batch);
    }

    /// Seals the open tail batch, fixing a batch boundary at the
    /// current position (a no-op on an empty tail). Feeders with a
    /// natural block structure — the capture session's drain windows —
    /// seal per block so batch consumers see their cadence.
    pub fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.sealed.push(std::mem::take(&mut self.tail));
        }
    }

    /// The log's batches, in stream order (including the open tail).
    pub fn batches(&self) -> impl Iterator<Item = &TickBatch> {
        self.sealed
            .iter()
            .chain(std::iter::once(&self.tail).filter(|t| !t.is_empty()))
    }

    /// Decoded events in stream order.
    pub fn iter(&self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        self.batches().flat_map(TickBatch::iter)
    }

    /// The first event of the stream, decoded.
    pub fn first(&self) -> Option<TelemetryEvent> {
        self.batches().next().and_then(|b| b.get(0))
    }

    /// Materializes the stream as a flat vector — prefer
    /// [`EventLog::iter`] or [`EventLog::replay`], which never build
    /// the flat copy.
    pub fn to_events(&self) -> Vec<TelemetryEvent> {
        self.iter().collect()
    }

    /// Replays the stream through `observer`, batch by batch.
    pub fn replay(&self, observer: &mut dyn Observer) {
        for batch in self.batches() {
            observer.observe_batch(batch);
        }
    }
}

impl PartialEq for EventLog {
    /// Logs are equal when they decode to the same event sequence —
    /// batch boundaries are delivery detail, not content.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Observer for EventLog {
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.push_batch(batch.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BeamOutcome, HealthCause, HealthState, ShedReason};

    fn sample_events() -> Vec<TelemetryEvent> {
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
            TelemetryEvent::Bounce {
                index: 0,
                device: 0,
                at: 0.2,
                attempt: 1,
            },
            TelemetryEvent::Health(HealthEvent {
                at: 0.2,
                device: 0,
                from: HealthState::Healthy,
                to: HealthState::Suspect,
                cause: HealthCause::Bounce,
            }),
            TelemetryEvent::Retry {
                index: 0,
                at: 0.3,
                attempt: 2,
            },
            TelemetryEvent::Probe {
                device: 0,
                at: 0.4,
                up: true,
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
                    device: 1,
                    finish: 0.6,
                    kept_trials: 75,
                    shed_trials: 25,
                },
            }),
            TelemetryEvent::Rebalance {
                tick: 0,
                index: 1,
                from_shard: 0,
                to_shard: 1,
            },
            TelemetryEvent::Capture(CaptureEvent::Arrival {
                beam: 3,
                seq: 7,
                at: 0.1,
                bytes: 4096,
            }),
            TelemetryEvent::Capture(CaptureEvent::Drain {
                tick: 0,
                at: 1.0,
                blocks: 1,
                release: 0.1,
                deadline: 4.0,
                backlog_blocks: 0,
                ring_bytes: 0,
            }),
            TelemetryEvent::AlgorithmSwitch {
                tick: 1,
                device: 1,
                at: 1.0,
                from: Algorithm::BruteForce,
                to: Algorithm::Subband { factor: 32 },
            },
        ]
    }

    #[test]
    fn encode_decode_is_the_identity_on_every_variant() {
        let events = sample_events();
        let mut batch = TickBatch::new();
        for event in &events {
            batch.push(event);
        }
        assert_eq!(batch.len(), events.len());
        let decoded: Vec<TelemetryEvent> = batch.iter().collect();
        assert_eq!(decoded, events);
        // Per-index access agrees with iteration.
        for (i, event) in events.iter().enumerate() {
            assert_eq!(batch.get(i).as_ref(), Some(event));
        }
        assert_eq!(batch.get(events.len()), None);
    }

    #[test]
    fn kinds_match_the_string_labels_and_index_densely() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        for event in sample_events() {
            assert_eq!(EventKind::of(&event).label(), event.kind());
        }
    }

    #[test]
    fn count_kind_agrees_with_the_order_table() {
        let mut batch = TickBatch::new();
        for event in &sample_events() {
            batch.push(event);
        }
        for kind in EventKind::ALL {
            assert_eq!(
                batch.count_kind(kind),
                batch.iter().filter(|e| EventKind::of(e) == kind).count(),
                "{}",
                kind.label()
            );
        }
        assert_eq!(batch.count_kind(EventKind::CaptureArrival), 1);
        assert_eq!(batch.count_kind(EventKind::CaptureDrop), 0);
    }

    #[test]
    fn rekey_remaps_beam_identities_and_nothing_else() {
        let events = sample_events();
        let mut batch = TickBatch::new();
        for event in &events {
            batch.push(event);
        }
        // Local index 0 becomes global (40, 7); others untouched.
        batch.rekey(|index| (index == 0).then_some((40, 7)));
        for (original, rekeyed) in events.iter().zip(batch.iter()) {
            match rekeyed {
                TelemetryEvent::Placed { index, device, .. } => {
                    assert_eq!((index, device), (40, 0));
                }
                TelemetryEvent::Bounce { index, .. } | TelemetryEvent::Retry { index, .. } => {
                    assert_eq!(index, 40);
                }
                TelemetryEvent::Beam(r) => {
                    assert_eq!((r.index, r.beam, r.tick), (40, 7, 0));
                }
                TelemetryEvent::Shed(r) => {
                    assert_eq!((r.index, r.beam, r.kept_trials), (40, 7, 75));
                }
                // Rebalance carries a *global* index already: untouched.
                other => assert_eq!(&other, original),
            }
        }
    }

    #[test]
    fn log_equality_ignores_batch_boundaries() {
        let events = sample_events();
        // One big batch.
        let whole = EventLog::from_events(&events);
        // Per-event with a seal after every third event.
        let mut chopped = EventLog::new();
        for (i, event) in events.iter().enumerate() {
            chopped.push(event);
            if i % 3 == 2 {
                chopped.seal();
            }
        }
        // Mixed: a batch, then loose events.
        let mut mixed = EventLog::new();
        let mut head = TickBatch::new();
        for event in &events[..5] {
            head.push(event);
        }
        mixed.push_batch(head);
        for event in &events[5..] {
            mixed.push(event);
        }
        assert_eq!(whole.len(), events.len());
        assert_eq!(whole, chopped);
        assert_eq!(whole, mixed);
        assert!(whole.batches().count() < chopped.batches().count());
        // Different content is unequal even at the same length.
        let mut other = events.clone();
        other.reverse();
        assert_ne!(whole, EventLog::from_events(&other));
        // Iteration and materialization agree.
        assert_eq!(whole.to_events(), events);
        assert_eq!(whole.first(), events.first().cloned());
    }

    #[test]
    fn a_log_is_an_observer_and_a_single_event_is_a_batch_of_one() {
        let events = sample_events();
        let mut batch = TickBatch::new();
        for event in &events {
            batch.push(event);
        }
        let mut log = EventLog::new();
        log.observe_batch(&batch);
        log.observe_batch(&TickBatch::of(&events[0]));
        let mut expected = events.clone();
        expected.push(events[0].clone());
        assert_eq!(log.to_events(), expected);
        assert_eq!(log.len(), events.len() + 1);
    }
}
