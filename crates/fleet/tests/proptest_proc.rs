//! Property-based invariants for the shard wire protocol's frame
//! layer.
//!
//! The supervisor folds whatever the pipe hands it into grid ledgers,
//! so the frame layer carries the whole trust burden:
//!
//! 1. **Bijection** — an arbitrary stream of [`TickBatch`] frames
//!    decodes to exactly the batches that were encoded, in order.
//! 2. **Truncation is loud** — cutting the byte stream at *any*
//!    position yields a clean prefix of the original batches plus
//!    either a clean EOF (cut on a frame boundary, or short of the
//!    first magic) or a loud error — never a panic, never a batch that
//!    was not sent.
//! 3. **Corruption is loud** — flipping any byte (past the first
//!    magic, where leading-noise tolerance is documented behaviour)
//!    never panics and never lets the full original sequence decode
//!    silently; everything decoded before the error is still an exact
//!    prefix of the truth.
//! 4. **A truncated spec is loud** — the [`ShardSpec`] frame is a
//!    child's only input. Cut short anywhere, [`serve`] fails and
//!    writes nothing but, at most, one `Fatal` frame; whole, it streams
//!    exactly the batches and ledger of the same session run in-thread.

use dedisp_fleet::proc::{serve, write_msg, ChaosSpec, FrameReader, ShardFrame, ShardSpec};
use dedisp_fleet::{
    EventLog, FaultPlan, ResolvedFleet, Scheduler, ShardLoad, TelemetryEvent, TickBatch,
};
use proptest::prelude::*;

/// Raw material for one generated event:
/// `(kind, a, b, at, flag, count)`.
type RawEvent = (u8, usize, usize, f64, bool, usize);

fn event(raw: RawEvent) -> TelemetryEvent {
    let (kind, a, b, at, flag, count) = raw;
    match kind % 5 {
        0 => TelemetryEvent::Probe {
            device: a % 8,
            at,
            up: flag,
        },
        1 => TelemetryEvent::Retry {
            index: a,
            at,
            attempt: count % 5 + 1,
        },
        2 => TelemetryEvent::Bounce {
            index: a,
            device: b % 8,
            at,
            attempt: count % 5 + 1,
        },
        3 => TelemetryEvent::Placed {
            index: a,
            device: b % 8,
            at,
            kept_trials: count,
            attempt: count % 3 + 1,
            canary: flag,
        },
        _ => TelemetryEvent::Rebalance {
            tick: a % 16,
            index: b,
            from_shard: count % 4,
            to_shard: (count + 1) % 4,
        },
    }
}

/// Chunks generated events into non-empty batches whose sizes cycle
/// through `sizes`, then encodes each as one `ShardFrame::Batch`.
fn batches(raw: &[RawEvent], sizes: &[usize]) -> Vec<TickBatch> {
    let mut out = Vec::new();
    let mut batch = TickBatch::new();
    let mut cursor = 0usize;
    let mut target = sizes.first().copied().unwrap_or(1).max(1);
    for &r in raw {
        batch.push(&event(r));
        if batch.len() >= target {
            out.push(std::mem::take(&mut batch));
            cursor = (cursor + 1) % sizes.len().max(1);
            target = sizes.get(cursor).copied().unwrap_or(1).max(1);
        }
    }
    if !batch.is_empty() {
        out.push(batch);
    }
    out
}

/// Encodes each batch as its own frame, returning the per-frame byte
/// runs (so boundary offsets are computable) and the full stream.
fn encode(stream: &[TickBatch]) -> (Vec<Vec<u8>>, Vec<u8>) {
    let frames: Vec<Vec<u8>> = stream
        .iter()
        .map(|b| {
            let mut buf = Vec::new();
            write_msg(&mut buf, &ShardFrame::Batch(b.clone())).expect("encode");
            buf
        })
        .collect();
    let bytes = frames.concat();
    (frames, bytes)
}

/// Decodes until EOF or the first error, returning the decoded batches
/// and whether the stream ended in an error.
fn decode(bytes: &[u8]) -> (Vec<TickBatch>, bool) {
    let mut reader = FrameReader::new(bytes);
    let mut out = Vec::new();
    loop {
        match reader.read_msg::<ShardFrame>() {
            Ok(Some(ShardFrame::Batch(b))) => out.push(b),
            Ok(Some(_)) => return (out, true),
            Ok(None) => return (out, false),
            Err(_) => return (out, true),
        }
    }
}

/// A shard spec over `spb.len()` synthetic devices and `beams.len()`
/// one-second ticks. The load is written in its wire form, as a
/// supervisor would send it. A chaos count, when drawn, lies past the
/// last batch frame (a run frames at most one batch per tick), so it
/// rides the spec without firing.
fn spec(spb: &[f64], trials: usize, beams: &[usize], chaos: Option<u32>, trace: bool) -> ShardSpec {
    let mut index = 0usize;
    let ticks: Vec<String> = beams
        .iter()
        .enumerate()
        .map(|(tick, &n)| {
            let globals: Vec<String> = (0..n)
                .map(|beam| {
                    index += 1;
                    format!(r#"{{"index":{},"tick":{tick},"beam":{beam}}}"#, index - 1)
                })
                .collect();
            format!(
                r#"{{"release":{:?},"deadline":{:?},"beams":[{}]}}"#,
                tick as f64,
                tick as f64 + 1.0,
                globals.join(",")
            )
        })
        .collect();
    let load: ShardLoad = serde_json::from_str(&format!(
        r#"{{"setup":"synthetic","trials":{trials},"ticks":[{}]}}"#,
        ticks.join(",")
    ))
    .expect("a well-formed shard load");
    ShardSpec {
        shard: 0,
        fleet: ResolvedFleet::synthetic(trials, spb),
        load,
        plan: FaultPlan::none(),
        ceilings: None,
        chaos: chaos.map(|n| ChaosSpec {
            kill_after_frames: beams.len() as u32 + 1 + n,
        }),
        trace,
    }
}

/// Serves `request` and returns the result with the decoded reply.
fn served(request: &[u8]) -> (Result<(), String>, Vec<ShardFrame>) {
    let mut response = Vec::new();
    let result = serve(request, &mut response).map_err(|e| e.to_string());
    let mut reader = FrameReader::new(response.as_slice());
    let mut frames = Vec::new();
    while let Some(frame) = reader.read_msg::<ShardFrame>().expect("whole reply frames") {
        frames.push(frame);
    }
    (result, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: encode → decode is the identity on arbitrary batch
    /// streams, and every decoded batch still passes validation.
    #[test]
    fn frame_streams_are_a_bijection(
        raw in prop::collection::vec(
            (0u8..5, 0usize..64, 0usize..64, 0.0f64..10.0, any::<bool>(), 0usize..6),
            1..40,
        ),
        sizes in prop::collection::vec(1usize..8, 1..5),
    ) {
        let stream = batches(&raw, &sizes);
        let (_, bytes) = encode(&stream);
        let (back, errored) = decode(&bytes);
        prop_assert!(!errored);
        prop_assert_eq!(&back, &stream);
        for b in &back {
            prop_assert!(b.validate().is_ok());
        }
    }

    /// Property 2: truncation at any byte yields a clean prefix and —
    /// unless the cut lands on a frame boundary or short of the first
    /// magic — a loud error.
    #[test]
    fn truncation_decodes_a_prefix_and_errors_loudly(
        raw in prop::collection::vec(
            (0u8..5, 0usize..64, 0usize..64, 0.0f64..10.0, any::<bool>(), 0usize..6),
            1..24,
        ),
        sizes in prop::collection::vec(1usize..8, 1..4),
        cut_seed in 0usize..1_000_000,
    ) {
        let stream = batches(&raw, &sizes);
        let (frames, bytes) = encode(&stream);
        let cut = cut_seed % bytes.len();

        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + f.len());
        }

        let (back, errored) = decode(&bytes[..cut]);
        // Whatever decoded is an exact prefix of what was sent…
        prop_assert!(back.len() <= stream.len());
        prop_assert_eq!(&back[..], &stream[..back.len()]);
        // …and a cut inside a frame (past the first magic) is loud.
        let on_boundary = boundaries.contains(&cut);
        if on_boundary {
            prop_assert!(!errored);
            prop_assert_eq!(back.len(), boundaries.iter().position(|&b| b == cut).unwrap());
        } else if cut >= 4 {
            prop_assert!(errored, "mid-frame cut at {cut} decoded silently");
        }
    }

    /// Property 3: flipping any byte past the first magic never panics
    /// and never lets the original stream decode in full; the decoded
    /// prefix never contains an invented batch.
    #[test]
    fn corruption_never_decodes_silently(
        raw in prop::collection::vec(
            (0u8..5, 0usize..64, 0usize..64, 0.0f64..10.0, any::<bool>(), 0usize..6),
            1..24,
        ),
        sizes in prop::collection::vec(1usize..8, 1..4),
        pos_seed in 0usize..1_000_000,
        flip in 1u8..=255u8,
    ) {
        let stream = batches(&raw, &sizes);
        let (_, bytes) = encode(&stream);
        prop_assume!(bytes.len() > 4);
        let pos = 4 + pos_seed % (bytes.len() - 4);

        let mut bad = bytes.clone();
        bad[pos] ^= flip;

        let (back, errored) = decode(&bad);
        // The corruption was either caught or it truncated the decode;
        // a silent full decode would mean a corrupt byte mis-folded.
        prop_assert!(
            errored || back != stream,
            "flipped byte at {pos} decoded the full stream silently"
        );
        // And nothing invented: the decoded prefix is still the truth.
        prop_assert!(back.len() <= stream.len());
        prop_assert_eq!(&back[..], &stream[..back.len()]);
    }

    /// Property 4: a spec cut at no bytes, inside its length header, or
    /// one byte short fails loudly with at most one `Fatal` frame; the
    /// whole spec streams the in-thread run's batches and ledger, with
    /// trace sidecars exactly when the spec asks for them.
    #[test]
    fn a_truncated_spec_is_loud_and_a_whole_one_runs_in_thread(
        spb in prop::collection::vec(0.05f64..0.6, 1..=4),
        trials in 8usize..400,
        beams in prop::collection::vec(1usize..6, 1..=3),
        chaos in (any::<bool>(), 0u32..1_000),
        trace in any::<bool>(),
        header_cut in 5usize..8,
    ) {
        let spec = spec(&spb, trials, &beams, chaos.0.then_some(chaos.1), trace);
        let mut request = Vec::new();
        write_msg(&mut request, &spec).expect("encode");

        for cut in [0, header_cut, request.len() - 1] {
            let (result, frames) = served(&request[..cut]);
            prop_assert!(result.is_err(), "a spec cut at {cut} bytes was served");
            prop_assert!(frames.len() <= 1);
            prop_assert!(frames.iter().all(|f| matches!(f, ShardFrame::Fatal(_))));
        }

        let (result, frames) = served(&request);
        prop_assert_eq!(result, Ok(()));
        let reference = Scheduler::session(&spec.fleet)
            .load(&spec.load)
            .faults(&spec.plan)
            .run()
            .expect("the in-thread run");
        let mut log = EventLog::new();
        let mut ledger = None;
        let mut sidecars = false;
        for frame in frames {
            match frame {
                ShardFrame::Batch(batch) => log.push_batch(batch),
                ShardFrame::Trace(_) => sidecars = true,
                ShardFrame::Ledger(l) => ledger = Some(l),
                ShardFrame::Fatal(why) => prop_assert!(false, "fatal: {why}"),
            }
        }
        let ledger = ledger.expect("the conversation ends with a ledger");
        prop_assert_eq!(log, reference.log);
        prop_assert_eq!(ledger.report, reference.report);
        prop_assert_eq!(ledger.records, reference.records);
        prop_assert_eq!(sidecars, trace);
    }
}
