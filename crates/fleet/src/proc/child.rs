//! The child side of the shard protocol: run one shard, frame the
//! stream.
//!
//! A shard child is any process that calls [`serve_stdio`] (the
//! cluster experiment's `--child` mode, the integration tests'
//! re-exec'd helper): it reads one [`ShardSpec`] frame from stdin,
//! runs the shard with a plain in-process [`crate::Scheduler`] session,
//! writes each dispatcher tick's [`TickBatch`] to stdout as a
//! [`ShardFrame::Batch`], and finishes with a [`ShardFrame::Ledger`]
//! (or [`ShardFrame::Fatal`] for a deterministic scheduling error, or
//! a spec frame that does not decode).
//!
//! The spec is the child's only input: it reads no environment
//! variable and no argument. Chaos injection lives here too: if the
//! spec's [`ChaosSpec`] says `kill_after_frames: n`, the child
//! SIGKILLs itself immediately after its `n`-th batch frame reaches
//! the pipe — a real `kill -9`, not a simulated flap, which is exactly
//! what makes the supervisor's restart path crash-real. If the spec
//! asks for tracing, the child records its phase spans and ships them
//! as [`ShardFrame::Trace`] sidecars.

use super::frame::{write_msg, FrameError, FrameReader};
use super::protocol::{ChaosSpec, ShardFrame, ShardLedger, ShardSpec};
use crate::batch::TickBatch;
use crate::descriptor::FleetError;
use crate::obs::trace::TraceSink;
use crate::telemetry::Observer;
use std::io::Write;

/// SIGKILLs the current process — the real thing, via `kill -9`.
/// Aborts as a fallback if the signal somehow fails to land, so a
/// chaos child never limps onward half-dead.
fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .arg("-9")
        .arg(&pid)
        .status();
    std::process::abort();
}

/// The child's observer: frames each tick batch onto `out` the moment
/// the dispatcher flushes it, and fires the chaos kill when its frame
/// budget is spent.
struct Framing<W: Write> {
    out: W,
    /// Batch frames written so far.
    frames: u32,
    chaos: Option<ChaosSpec>,
    /// First write failure; later writes are skipped so the run still
    /// terminates and the child can exit loudly.
    error: Option<FrameError>,
    /// The child's own span sink, drained into [`ShardFrame::Trace`]
    /// sidecars after each batch frame (tracing runs only).
    trace: Option<TraceSink>,
}

impl<W: Write> Framing<W> {
    fn send(&mut self, frame: &ShardFrame) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = write_msg(&mut self.out, frame) {
            self.error = Some(e);
            return;
        }
        // Only batch frames count toward the chaos budget: a trace
        // sidecar never perturbs where the kill lands, so a traced
        // chaos run dies after the same telemetry as an untraced one.
        if matches!(frame, ShardFrame::Batch(_)) {
            self.frames += 1;
            if let Some(chaos) = self.chaos {
                if self.frames >= chaos.kill_after_frames {
                    sigkill_self();
                }
            }
        }
    }

    /// Ships the spans buffered since the last flush as one sidecar
    /// frame (no frame when there is nothing to say).
    fn flush_trace(&mut self) {
        if let Some(sink) = self.trace.clone() {
            let spans = sink.drain();
            if !spans.is_empty() {
                self.send(&ShardFrame::Trace(spans));
            }
        }
    }
}

impl<W: Write> Observer for Framing<W> {
    fn observe_batch(&mut self, batch: &TickBatch) {
        self.send(&ShardFrame::Batch(batch.clone()));
        self.flush_trace();
    }
}

/// Runs one shard conversation over explicit streams: reads the spec
/// from `input`, streams frames to `output`.
///
/// # Errors
///
/// Returns a [`FleetError`] if the spec cannot be read (after a `Fatal`
/// frame when it arrived whole but does not decode), the run fails
/// (after a `Fatal` frame is written), or the pipe broke mid-stream.
pub fn serve(input: impl std::io::Read, mut output: impl Write) -> Result<(), FleetError> {
    let mut reader = FrameReader::new(input);
    let spec: ShardSpec = match reader.read_msg() {
        Ok(Some(spec)) => spec,
        Ok(None) => return Err(FleetError::new("stream ended before a shard spec arrived")),
        Err(e) => {
            let fatal = matches!(e, FrameError::Malformed(_));
            let e = FleetError::new(format!("reading shard spec: {e}"));
            if fatal {
                // A whole frame that does not decode (a zero kernel
                // configuration, say) never will: no retry.
                let _ = write_msg(&mut output, &ShardFrame::Fatal(e.to_string()));
            }
            return Err(e);
        }
    };
    let trace = spec.trace.then(TraceSink::default);
    let mut framing = Framing {
        out: output,
        frames: 0,
        chaos: spec.chaos,
        error: None,
        trace: trace.clone(),
    };
    match spec.session(trace.as_ref()).run_with(&mut framing) {
        Ok(run) => {
            // The last tick's flush-phase spans land after its batch
            // frame went out; ship them before the ledger closes the
            // conversation.
            framing.flush_trace();
            framing.send(&ShardFrame::Ledger(ShardLedger {
                report: run.report,
                records: run.records,
            }));
        }
        Err(e) => {
            // A deterministic scheduling error: tell the supervisor
            // not to bother restarting.
            framing.send(&ShardFrame::Fatal(e.to_string()));
            return Err(e);
        }
    }
    match framing.error {
        Some(e) => Err(FleetError::new(format!("writing shard frames: {e}"))),
        None => Ok(()),
    }
}

/// Runs one shard conversation over this process's stdin/stdout — the
/// child entry point.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_stdio() -> Result<(), FleetError> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::GridAdmission;
    use crate::descriptor::ResolvedFleet;
    use crate::fault::FaultPlan;
    use crate::proc::frame::write_frame;
    use crate::scheduler::Scheduler;
    use crate::shard::{partition, GridFaultPlan, RebalancePolicy};
    use crate::survey::SurveyLoad;

    fn spec_for_test() -> ShardSpec {
        let shards = vec![
            ResolvedFleet::synthetic(500, &[0.1, 0.1]),
            ResolvedFleet::synthetic(500, &[0.1, 0.1]),
        ];
        let load = SurveyLoad::custom(500, 6, 3);
        let part = partition(
            &load,
            &shards,
            RebalancePolicy::default(),
            &GridFaultPlan::none(),
            GridAdmission::default(),
        );
        ShardSpec {
            shard: 0,
            fleet: shards[0].clone(),
            load: part.shard_loads[0].clone(),
            plan: FaultPlan::none(),
            ceilings: None,
            chaos: None,
            trace: false,
        }
    }

    #[test]
    fn serve_streams_the_in_thread_run_exactly() {
        let spec = spec_for_test();
        let mut request = Vec::new();
        write_msg(&mut request, &spec).unwrap();
        let mut response = Vec::new();
        serve(request.as_slice(), &mut response).unwrap();

        // Decode the conversation: batches, then exactly one ledger.
        let mut reader = FrameReader::new(response.as_slice());
        let mut batches = Vec::new();
        let mut ledger = None;
        while let Some(frame) = reader.read_msg::<ShardFrame>().unwrap() {
            match frame {
                ShardFrame::Batch(b) => {
                    assert!(ledger.is_none(), "batches precede the ledger");
                    b.validate().unwrap();
                    batches.push(b);
                }
                ShardFrame::Ledger(l) => {
                    assert!(ledger.replace(l).is_none(), "exactly one ledger");
                }
                ShardFrame::Fatal(why) => panic!("unexpected fatal: {why}"),
                ShardFrame::Trace(spans) => {
                    panic!("untraced serve shipped {} spans", spans.len())
                }
            }
        }
        let ledger = ledger.expect("conversation ends with a ledger");

        // The conversation carries exactly what the same in-thread
        // session produces: same report, same records, same stream.
        let reference = Scheduler::session(&spec.fleet)
            .load(&spec.load)
            .faults(&spec.plan)
            .run()
            .unwrap();
        assert_eq!(ledger.report, reference.report);
        assert_eq!(ledger.records, reference.records);
        let mut log = crate::batch::EventLog::new();
        for batch in batches {
            log.push_batch(batch);
        }
        assert_eq!(log, reference.log);
    }

    #[test]
    fn traced_serve_ships_sidecars_and_an_identical_ledger() {
        let spec = spec_for_test();
        let serve_spec = |spec: &ShardSpec| {
            let mut request = Vec::new();
            write_msg(&mut request, spec).unwrap();
            let mut response = Vec::new();
            serve(request.as_slice(), &mut response).unwrap();
            response
        };
        let plain = serve_spec(&spec);
        let traced = serve_spec(&ShardSpec {
            trace: true,
            ..spec.clone()
        });

        // Stripping the sidecars from the traced conversation leaves
        // exactly the untraced conversation: same batches, same
        // ledger, byte for byte once re-framed.
        let strip = |bytes: &[u8]| {
            let mut reader = FrameReader::new(bytes);
            let mut kept = Vec::new();
            let mut spans = Vec::new();
            while let Some(frame) = reader.read_msg::<ShardFrame>().unwrap() {
                match frame {
                    ShardFrame::Trace(s) => spans.extend(s),
                    other => write_msg(&mut kept, &other).unwrap(),
                }
            }
            (kept, spans)
        };
        let (plain_frames, plain_spans) = strip(&plain);
        let (traced_frames, traced_spans) = strip(&traced);
        assert_eq!(plain_frames, traced_frames);
        assert!(plain_spans.is_empty());
        assert!(!traced_spans.is_empty(), "a traced run ships spans");
        assert!(
            traced_spans.iter().all(|s| s.shard == Some(spec.shard)),
            "child spans carry the shard tag"
        );
    }

    #[test]
    fn a_bad_spec_yields_a_fatal_frame_and_an_error() {
        let mut empty_window = spec_for_test();
        empty_window.plan = FaultPlan::none().with_flap(0, 2.0, 1.0);
        // A fleet whose ids do not match its positions — one past the
        // end used to panic the child while it built the report.
        let mut stray_id = spec_for_test();
        stray_id.fleet.devices[1].id = 5;
        for (spec, names) in [(empty_window, ""), (stray_id, "device 5 ")] {
            let mut request = Vec::new();
            write_msg(&mut request, &spec).unwrap();
            let mut response = Vec::new();
            assert!(serve(request.as_slice(), &mut response).is_err());
            let mut reader = FrameReader::new(response.as_slice());
            match reader.read_msg::<ShardFrame>().unwrap() {
                Some(ShardFrame::Fatal(why)) => {
                    assert!(!why.is_empty() && why.contains(names), "{why}");
                }
                other => panic!("expected a fatal frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_zero_kernel_configuration_yields_a_fatal_frame() {
        // It used to decode, then panic the child in `grid()`'s divide.
        // The synthetic devices' configurations are all 1 × 1 × 1 × 1.
        let json = serde_json::to_string(&spec_for_test()).unwrap();
        let zeroed = json.replace(r#""el_dm":1"#, r#""el_dm":0"#);
        assert_ne!(zeroed, json);
        let mut request = Vec::new();
        write_frame(&mut request, zeroed.as_bytes()).unwrap();
        let mut response = Vec::new();
        assert!(serve(request.as_slice(), &mut response).is_err());
        let mut reader = FrameReader::new(response.as_slice());
        match reader.read_msg::<ShardFrame>().unwrap() {
            Some(ShardFrame::Fatal(why)) => assert!(why.contains("el_dm"), "{why}"),
            other => panic!("expected a fatal frame, got {other:?}"),
        }
        assert!(reader.read_msg::<ShardFrame>().unwrap().is_none());
    }

    #[test]
    fn a_missing_spec_is_a_loud_error() {
        let mut out = Vec::new();
        assert!(serve(&b""[..], &mut out).is_err());
        assert!(out.is_empty());
    }
}
