//! End-to-end tests for the process shard backend, with *real* child
//! processes.
//!
//! The child is this very test binary, re-executed: the `#[ignore]`d
//! `proc_child_serve` "test" below is the child entry point — it only
//! does anything when `DEDISP_PROC_CHILD` is set, in which case it
//! serves one shard conversation over stdio and returns. The
//! supervisor launches it with `--exact proc_child_serve --ignored
//! --nocapture`; the frame layer's leading-noise scan eats libtest's
//! banner, and the supervisor stops reading at the terminal frame, so
//! libtest's trailing chatter is never even read.

use dedisp_fleet::proc::{serve_stdio, ChaosSpec, ProcConfig, ProcOutcome};
use dedisp_fleet::{Grid, GridFaultPlan, GridRun, ResolvedFleet, ShardBackend, SurveyLoad};

/// The child entry point, disguised as an ignored test. Runs one shard
/// conversation over stdio when `DEDISP_PROC_CHILD` is set; a no-op
/// otherwise (so `--ignored` sweeps stay green).
#[test]
#[ignore = "child-process entry point, spawned by the supervisor tests"]
fn proc_child_serve() {
    if std::env::var("DEDISP_PROC_CHILD").is_err() {
        return;
    }
    serve_stdio().expect("child shard conversation failed");
}

/// A supervisor config re-executing this test binary as the child.
fn child_config() -> ProcConfig {
    ProcConfig::current_exe()
        .expect("current test binary resolves")
        .arg("--exact")
        .arg("proc_child_serve")
        .arg("--ignored")
        .arg("--nocapture")
        .env("DEDISP_PROC_CHILD", "1")
}

fn assert_same_run(proc_run: &GridRun, thread_run: &GridRun) {
    assert_eq!(proc_run.report, thread_run.report);
    assert_eq!(proc_run.records, thread_run.records);
    assert_eq!(proc_run.events, thread_run.events);
    assert!(proc_run.report.conservation_ok());
}

#[test]
fn process_grid_matches_in_thread() {
    let shards = vec![
        ResolvedFleet::synthetic(800, &[0.1, 0.12]),
        ResolvedFleet::synthetic(800, &[0.1]),
        ResolvedFleet::synthetic(800, &[0.11, 0.1]),
    ];
    let load = SurveyLoad::custom(800, 9, 4);

    let thread_run = Grid::session(&shards).load(&load).run().unwrap();
    let proc_run = Grid::session(&shards)
        .load(&load)
        .backend(ShardBackend::Process(child_config()))
        .run()
        .unwrap();

    assert_same_run(&proc_run, &thread_run);
    assert!(thread_run.proc.is_none(), "in-thread runs carry no ledger");

    let ledger = proc_run.proc.expect("process runs carry a ledger");
    assert_eq!(ledger.shards.len(), shards.len());
    assert_eq!(ledger.total_restarts(), 0);
    assert!(!ledger.any_degraded());
    for (shard, entry) in ledger.shards.iter().enumerate() {
        assert_eq!(entry.shard, shard);
        assert_eq!(entry.attempts.len(), 1);
        assert_eq!(entry.attempts[0].outcome, ProcOutcome::Completed);
        assert_eq!(entry.deduped_frames, 0);
        assert!(entry.frames_forwarded > 0, "shard {shard} framed nothing");
    }
}

#[test]
fn sigkilled_shard_restarts_dedupes_and_conserves() {
    let shards = vec![
        ResolvedFleet::synthetic(600, &[0.1, 0.1]),
        ResolvedFleet::synthetic(600, &[0.1]),
    ];
    let load = SurveyLoad::custom(600, 8, 5);
    let chaos = ChaosSpec {
        kill_after_frames: 2,
    };

    let thread_run = Grid::session(&shards).load(&load).run().unwrap();
    let run_chaos = || {
        Grid::session(&shards)
            .load(&load)
            .backend(ShardBackend::Process(child_config().chaos(0, chaos)))
            .run()
            .unwrap()
    };
    let proc_run = run_chaos();

    // The kill was real — and invisible in every grid-level ledger.
    assert_same_run(&proc_run, &thread_run);

    let ledger = proc_run.proc.as_ref().expect("process runs carry a ledger");
    let victim = &ledger.shards[0];
    assert_eq!(victim.restarts, 1);
    assert!(!victim.degraded_in_thread);
    assert_eq!(victim.attempts.len(), 2);
    assert_eq!(
        victim.attempts[0].outcome,
        ProcOutcome::Died { after_frames: 2 }
    );
    assert_eq!(victim.attempts[0].backoff_ms, Some(50));
    assert_eq!(victim.attempts[1].outcome, ProcOutcome::Completed);
    assert_eq!(victim.attempts[1].backoff_ms, None);
    // The replayed prefix was dropped, not double-forwarded.
    assert_eq!(victim.deduped_frames, 2);
    let bystander = &ledger.shards[1];
    assert_eq!(bystander.restarts, 0);
    assert_eq!(bystander.deduped_frames, 0);

    // Given a fixed chaos schedule the supervision ledger itself is
    // deterministic: run the same chaos again, get the same story.
    let again = run_chaos();
    assert_eq!(again.proc, proc_run.proc);
}

#[test]
fn process_backend_composes_with_simulated_shard_faults() {
    // A simulated whole-shard flap (the PR 5 re-homing path) and the
    // process backend at once: re-homing happens at partition time, so
    // the child processes simply receive the re-homed loads.
    let shards = vec![
        ResolvedFleet::synthetic(500, &[0.1, 0.1]),
        ResolvedFleet::synthetic(500, &[0.1, 0.1]),
    ];
    let load = SurveyLoad::custom(500, 8, 4);
    let faults = GridFaultPlan::none().with_shard_flap(1, 1.0, 3.0);

    let thread_run = Grid::session(&shards)
        .load(&load)
        .faults(&faults)
        .run()
        .unwrap();
    let proc_run = Grid::session(&shards)
        .load(&load)
        .faults(&faults)
        .backend(ShardBackend::Process(child_config()))
        .run()
        .unwrap();

    assert_same_run(&proc_run, &thread_run);
    assert!(!proc_run.report.supervisor.is_empty());
}
