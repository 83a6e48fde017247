//! The typed messages of the shard wire protocol.
//!
//! One conversation per child process, strictly alternating roles:
//!
//! 1. supervisor → child: one [`ShardSpec`] frame (everything the
//!    shard needs to run deterministically);
//! 2. child → supervisor: zero or more [`ShardFrame::Batch`] frames,
//!    one per dispatcher tick boundary — the same [`TickBatch`] blocks
//!    an in-thread shard hands its observer;
//! 3. child → supervisor: exactly one terminal frame —
//!    [`ShardFrame::Ledger`] on success, [`ShardFrame::Fatal`] for a
//!    deterministic scheduling error the supervisor must not retry.
//!
//! A stream that ends without a terminal frame *is* the crash signal:
//! the supervisor treats it as a dead shard and applies its
//! restart/backoff policy. Determinism is what makes that sound — a
//! restarted shard re-runs the identical spec and reproduces the
//! identical frame sequence, so already-forwarded batches are simply
//! skipped (see [`super::supervisor`]).

use crate::batch::TickBatch;
use crate::descriptor::ResolvedFleet;
use crate::fault::FaultPlan;
use crate::metrics::{BeamRecord, FleetReport};
use crate::obs::trace::{Span, TraceSink};
use crate::scheduler::{Scheduler, Session};
use crate::shard::ShardLoad;
use serde::{Deserialize, Serialize};

/// A deterministic crash injection for the child: after writing its
/// `kill_after_frames`-th batch frame, the child SIGKILLs itself —
/// `kill -9`, no unwinding, no goodbye frame. This is how the cluster
/// experiment makes "a shard actually died" reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Batch frames to write before the self-inflicted `kill -9`.
    pub kill_after_frames: u32,
}

/// Everything a child process needs to run one shard: the spec frame
/// the supervisor sends first.
///
/// The spec is self-contained and deterministic by construction — the
/// same spec always produces the same frame stream — which is the
/// foundation the supervisor's restart-and-dedupe machinery stands on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardSpec {
    /// The shard's index in the grid (for labeling and ledgers).
    pub shard: usize,
    /// The shard's resolved fleet.
    pub fleet: ResolvedFleet,
    /// The shard's slice of the survey, as partitioned by the grid
    /// front-end (beam re-homing already applied).
    pub load: ShardLoad,
    /// The shard's device-level fault schedule.
    pub plan: FaultPlan,
    /// Per-tick admission ceilings from a coordinated grid controller.
    pub ceilings: Option<Vec<usize>>,
    /// Crash injection, if this run is a chaos experiment. Stripped by
    /// the supervisor on restart — a chaos kill fires once.
    pub chaos: Option<ChaosSpec>,
    /// Whether the child records its phase spans and ships them as
    /// [`ShardFrame::Trace`] sidecars. Set by a tracing supervisor;
    /// the batches and the ledger are the same either way.
    pub trace: bool,
}

impl ShardSpec {
    /// The scheduler session this spec describes, its spans (if any)
    /// tagged with the shard and recorded into `trace`.
    pub(crate) fn session<'a>(&'a self, trace: Option<&TraceSink>) -> Session<'a> {
        let mut session = Scheduler::session(&self.fleet)
            .load(&self.load)
            .faults(&self.plan);
        if let Some(ceilings) = self.ceilings.as_deref() {
            session = session.admission_ceilings(ceilings);
        }
        if let Some(sink) = trace {
            session = session.trace(sink).trace_shard(self.shard);
        }
        session
    }
}

/// The final ledger a child reports: the shard's own aggregated report
/// plus the terminal outcome of every beam it owned (shard-local
/// identities; the supervisor re-keys through the same
/// [`crate::GlobalBeam`] tables the in-thread path uses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLedger {
    /// The shard's aggregated, serializable report.
    pub report: FleetReport,
    /// Terminal state of every admitted beam, in job-index order.
    pub records: Vec<BeamRecord>,
}

/// One child → supervisor frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShardFrame {
    /// One dispatcher tick's telemetry, in the columnar encoding.
    Batch(TickBatch),
    /// The successful terminal frame.
    Ledger(ShardLedger),
    /// A deterministic scheduling error: retrying the identical spec
    /// would fail identically, so the supervisor fails loudly instead.
    Fatal(String),
    /// A sidecar of the child's own wall-clock phase spans (see
    /// [`crate::obs::trace`]), sent only when the supervisor asked
    /// for tracing. Pure instrumentation, outside the conversation
    /// proper: never counted toward frame dedupe, chaos kill counts,
    /// or liveness progress accounting — a supervisor may drop every
    /// `Trace` frame and the run's ledgers do not change.
    Trace(Vec<Span>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::frame::{write_msg, FrameReader};
    use crate::telemetry::TelemetryEvent;

    #[test]
    fn protocol_messages_round_trip_through_frames() {
        let mut batch = TickBatch::new();
        batch.push(&TelemetryEvent::Probe {
            device: 1,
            at: 0.5,
            up: true,
        });
        let frames = vec![
            ShardFrame::Batch(batch),
            ShardFrame::Trace(vec![crate::obs::trace::Span {
                kind: crate::obs::trace::SpanKind::Admit,
                shard: Some(3),
                tick: 7,
                start_ns: 123,
                dur_ns: 456,
            }]),
            ShardFrame::Fatal("no load".to_string()),
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            write_msg(&mut buf, frame).unwrap();
        }
        let mut reader = FrameReader::new(buf.as_slice());
        let mut back = Vec::new();
        while let Some(frame) = reader.read_msg::<ShardFrame>().unwrap() {
            back.push(frame);
        }
        assert_eq!(back, frames);
    }

    #[test]
    fn spec_round_trips_with_and_without_chaos() {
        use crate::admission::GridAdmission;
        use crate::shard::{partition, GridFaultPlan, RebalancePolicy};
        use crate::survey::SurveyLoad;
        let shards = vec![
            ResolvedFleet::synthetic(100, &[0.2, 0.4]),
            ResolvedFleet::synthetic(100, &[0.2]),
        ];
        let load = SurveyLoad::custom(100, 4, 2);
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
            plan: FaultPlan::none().with_kill(1, 1.5),
            ceilings: Some(vec![100, 75]),
            chaos: Some(ChaosSpec {
                kill_after_frames: 2,
            }),
            trace: true,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ShardSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard, spec.shard);
        assert_eq!(back.fleet, spec.fleet);
        assert_eq!(back.load, spec.load);
        assert_eq!(back.plan, spec.plan);
        assert_eq!(back.ceilings, spec.ceilings);
        assert_eq!(back.chaos, spec.chaos);
        assert_eq!(back.trace, spec.trace);
    }
}
