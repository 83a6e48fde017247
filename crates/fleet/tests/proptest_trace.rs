//! Property-based pins for the tracing plane's prime directive:
//! **observing a run never changes it**.
//!
//! Spans are wall-clock measurements and must stay strictly outside
//! the deterministic ledger surface. These properties run the same
//! inputs twice — once bare, once with a [`TraceSink`] attached (and,
//! for the grid, a [`BurnRate`] SLO observer folding every event) —
//! and require the whole reports, beam records, and telemetry logs to
//! be identical:
//!
//! 1. **Session transparency** — a traced single-fleet run reproduces
//!    the untraced run's report/records/log byte-for-byte, while the
//!    sink demonstrably recorded phase spans.
//! 2. **Grid transparency** — a traced in-thread grid run (with a
//!    `BurnRate` grid observer attached) reproduces the untraced
//!    grid's report, global records, and event stream.
//! 3. **Capture transparency** — a traced capture ingest reproduces
//!    the untraced ledger, load, log, and arrival log exactly.

use dedisp_fleet::capture::{Arrival, ArrivalTrace, BlockFormat, CaptureConfig, CaptureSession};
use dedisp_fleet::obs::{BurnRate, SloConfig, TraceSink};
use dedisp_fleet::{
    FaultPlan, Grid, GridFaultPlan, RebalancePolicy, ResolvedFleet, Scheduler, SurveyLoad,
};
use proptest::prelude::*;

/// Deals `spb` devices round-robin into shard fleets, skipping shards
/// that would end up empty.
fn shard_fleets(spb: &[f64], shards: usize, trials: usize) -> Vec<ResolvedFleet> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); shards.max(1)];
    for (i, &s) in spb.iter().enumerate() {
        per[i % shards.max(1)].push(s);
    }
    per.into_iter()
        .filter(|v| !v.is_empty())
        .map(|v| ResolvedFleet::synthetic(trials, &v))
        .collect()
}

/// Time-ordered arrivals with per-beam sequence numbers.
fn arrivals(raw: &[(usize, f64)], beams: usize) -> Vec<Arrival> {
    let mut at = 0.0;
    let mut seqs = vec![0u64; beams];
    raw.iter()
        .map(|&(beam, gap)| {
            let beam = beam % beams;
            at += gap;
            let seq = seqs[beam];
            seqs[beam] += 1;
            Arrival { at, beam, seq }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: attaching a trace sink to a single-fleet session is
    /// invisible in every deterministic output, byte for byte.
    #[test]
    fn traced_session_is_byte_identical_to_untraced(
        spb in prop::collection::vec(0.05f64..1.2, 1..6),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..4,
        with_kill in 0u8..2,
        kill_device in 0usize..6,
        kill_at in 0.2f64..2.0,
    ) {
        let fleet = ResolvedFleet::synthetic(trials, &spb);
        let load = SurveyLoad::custom(trials, beams, ticks);
        let mut faults = FaultPlan::none();
        if with_kill == 1 {
            faults = faults.with_kill(kill_device % spb.len(), kill_at);
        }

        let bare = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .run()
            .expect("valid inputs");
        let sink = TraceSink::new(1 << 14);
        let traced = Scheduler::session(&fleet)
            .load(&load)
            .faults(&faults)
            .trace(&sink)
            .run()
            .expect("valid inputs");

        // Byte-identity of the serialized report, exact equality of
        // records and of the decoded event stream.
        prop_assert_eq!(traced.report.to_json(), bare.report.to_json());
        prop_assert_eq!(&traced.records, &bare.records);
        prop_assert_eq!(&traced.log, &bare.log);
        // And the observation actually happened: every tick opened a
        // span, so the sink is non-empty whenever anything ran.
        prop_assert!(sink.recorded() > 0, "trace sink saw no spans");
    }

    /// Property 2: a traced grid run — with a burn-rate SLO observer
    /// folding every event on top — matches the untraced grid run.
    #[test]
    fn traced_grid_is_identical_to_untraced(
        spb in prop::collection::vec(0.05f64..1.2, 2..7),
        trials in 8usize..1024,
        beams in 1usize..16,
        ticks in 1usize..3,
        shards in 2usize..4,
        kill_shard in 0usize..8,
        kill_at in 0.2f64..2.0,
        with_fault in 0u8..2,
    ) {
        let fleets = shard_fleets(&spb, shards, trials);
        let load = SurveyLoad::custom(trials, beams, ticks);
        let mut faults = GridFaultPlan::none();
        if with_fault == 1 {
            faults = faults.with_shard_kill(kill_shard % fleets.len(), kill_at);
        }

        let bare = Grid::session(&fleets)
            .policy(RebalancePolicy::StaticHash)
            .load(&load)
            .faults(&faults)
            .run()
            .expect("valid inputs");
        let sink = TraceSink::new(1 << 14);
        let slo = BurnRate::new(SloConfig::default());
        let traced = Grid::session(&fleets)
            .policy(RebalancePolicy::StaticHash)
            .load(&load)
            .faults(&faults)
            .trace(&sink)
            .run_with(&slo)
            .expect("valid inputs");

        prop_assert_eq!(traced.report.to_json(), bare.report.to_json());
        prop_assert_eq!(&traced.records, &bare.records);
        prop_assert_eq!(&traced.events, &bare.events);
        prop_assert!(sink.recorded() > 0, "trace sink saw no spans");
    }

    /// Property 3: a traced capture ingest reproduces the untraced run
    /// exactly — ledger, derived load, event log, and arrival log.
    #[test]
    fn traced_capture_is_identical_to_untraced(
        beams in 1usize..5,
        capacity_blocks in 1usize..6,
        watermark in 0.2f64..1.0,
        raw in prop::collection::vec((0usize..8, 0.0f64..0.9), 1..60),
    ) {
        let config = CaptureConfig {
            capacity_blocks,
            high_watermark: watermark,
            ..CaptureConfig::new(beams, BlockFormat::new(4, 16), 800)
        };
        let stream = arrivals(&raw, beams);

        let bare = CaptureSession::new(config)
            .expect("valid config")
            .ingest(ArrivalTrace::new(&stream))
            .expect("ingest");
        let sink = TraceSink::new(1 << 12);
        let traced = CaptureSession::new(config)
            .expect("valid config")
            .trace(&sink)
            .ingest(ArrivalTrace::new(&stream))
            .expect("ingest");

        prop_assert_eq!(traced.ledger, bare.ledger);
        prop_assert_eq!(traced.load.ceilings(), bare.load.ceilings());
        prop_assert_eq!(&traced.log, &bare.log);
        prop_assert_eq!(&traced.arrival_log, &bare.arrival_log);
        prop_assert!(sink.recorded() > 0, "capture ingest opened no spans");
    }
}
