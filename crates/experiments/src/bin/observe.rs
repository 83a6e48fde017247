//! The live operator plane, end to end: runs a chaos-schedule grid
//! with the full observability stack attached — metrics registry,
//! flight recorder, live grid status, and the hand-rolled HTTP
//! server — then polls its own endpoints **while the run is in
//! flight** and self-asserts every payload:
//!
//! * `/healthz` answers `ok`;
//! * `/status` JSON deserializes into a `GridStatusSnapshot` mid-run
//!   and, after the run, agrees with the merged `GridReport`;
//! * `/status/shard/<i>` serves each shard's own fold (and 404s past
//!   the last shard);
//! * `/metrics` parses as Prometheus text exposition format 0.0.4 and
//!   its counters sum to the ledger;
//! * `/events` NDJSON round-trips through `TelemetryEvent` and
//!   replays through the status fold.
//!
//! Finally the same grid is re-run *without* observers and the two
//! reports are diffed whole: live observation must never perturb
//! scheduling (the determinism guarantee of DESIGN.md §10).

use dedisp_fleet::obs::{
    self, FlightRecorder, GridFanout, GridRegistry, GridStatusSnapshot, LiveGrid, MetricsRegistry,
    ObsServer, ObsState,
};
use dedisp_fleet::{
    Grid, GridFaultPlan, GridObserver, GridRun, ResolvedFleet, StatusSnapshot, SurveyLoad,
};
use experiments::scaffold::{get_ok, headline, Throttle, MEASURED_SECONDS_PER_BEAM};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Trial DMs per beam (the paper's Apertif instance).
const TRIALS: usize = 2000;

/// Seconds of observation the grid simulates.
const TICKS: usize = 6;

/// Beams per second offered to the grid.
const BEAMS: usize = 30;

/// Devices per shard.
const SHARD_DEVICES: [usize; 2] = [3, 2];

/// Per-event pacing (real time) the throttle observer adds, so the
/// virtual-time run spans enough wall clock to be polled mid-flight.
const PACE: Duration = Duration::from_micros(400);

fn shards() -> Vec<ResolvedFleet> {
    SHARD_DEVICES
        .iter()
        .map(|&n| ResolvedFleet::synthetic(TRIALS, &vec![MEASURED_SECONDS_PER_BEAM / 2.0; n]))
        .collect()
}

/// The chaos schedule: a device flap on shard 0, a transient glitch on
/// shard 1, and a whole-shard flap forcing grid-level re-homing.
fn faults() -> GridFaultPlan {
    GridFaultPlan::none()
        .with_device_event(
            0,
            1,
            dedisp_fleet::FaultEvent::Flap {
                down_at: 0.4,
                up_at: 2.1,
            },
        )
        .with_device_event(
            1,
            0,
            dedisp_fleet::FaultEvent::Transient { at: 0.7, count: 2 },
        )
        .with_shard_flap(1, 2.3, 3.4)
}

/// A minimal exposition-format parser: `name{labels} value` samples,
/// keyed by the full series string. Asserts HELP/TYPE lines pair up.
fn parse_metrics(body: &str) -> Vec<(String, f64)> {
    let mut helps = 0usize;
    let mut types = 0usize;
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.starts_with("# HELP ") {
            helps += 1;
        } else if line.starts_with("# TYPE ") {
            types += 1;
        } else if !line.is_empty() {
            let (series, value) = line
                .rsplit_once(' ')
                .expect("sample lines are `series value`");
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse()
                    .unwrap_or_else(|_| panic!("bad sample value: {line}")),
            };
            samples.push((series.to_string(), value));
        }
    }
    assert_eq!(helps, types, "every family has one HELP and one TYPE line");
    assert!(helps > 0, "the registry is not empty");
    samples
}

/// Sums every sample whose series starts with `prefix`.
fn sum_samples(samples: &[(String, f64)], prefix: &str) -> f64 {
    samples
        .iter()
        .filter(|(s, _)| s.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

fn main() {
    let shards = shards();
    let load = SurveyLoad::custom(TRIALS, BEAMS, TICKS);
    let plan = faults();

    // --- wire the operator plane -------------------------------------
    let registry = MetricsRegistry::new();
    let metrics = GridRegistry::new(&registry, &SHARD_DEVICES);
    let recorder = FlightRecorder::new(1 << 14);
    let live = LiveGrid::new(&SHARD_DEVICES);
    let server = ObsServer::bind(
        "127.0.0.1:0",
        ObsState::new(registry.clone(), recorder.clone(), live.clone()),
    )
    .expect("loopback bind");
    let addr = server.addr();
    headline(&format!("operator plane up on http://{addr}"));

    // --- run the chaos grid with the stack attached ------------------
    let done = AtomicBool::new(false);
    let throttle = Throttle { pace: PACE };
    let sinks: [&dyn GridObserver; 4] = [&metrics, &recorder, &live, &throttle];
    let run: GridRun = std::thread::scope(|scope| {
        let fanout = GridFanout::new(&sinks);
        let shards = &shards;
        let load = &load;
        let plan = &plan;
        let done = &done;
        let handle = scope.spawn(move || {
            let run = Grid::session(shards)
                .load(load)
                .faults(plan)
                .run_with(&fanout)
                .expect("observed chaos grid run completes");
            done.store(true, Ordering::SeqCst);
            run
        });

        // Poll the endpoints while the shard threads are scheduling.
        let mut polls = 0usize;
        let mut mid_run_polls = 0usize;
        while !done.load(Ordering::SeqCst) {
            let status = get_ok(addr, "/status");
            let snapshot = GridStatusSnapshot::from_json(&status.body)
                .expect("mid-run /status JSON deserializes");
            let mid_run = !done.load(Ordering::SeqCst);
            polls += 1;
            if mid_run {
                mid_run_polls += 1;
                // A mid-run snapshot is a valid prefix fold: terminal
                // outcomes never exceed placements plus sheds.
                assert!(
                    snapshot.completed + snapshot.degraded + snapshot.deadline_misses
                        <= snapshot.placed,
                    "prefix fold: outcomes cannot outrun placements"
                );
            }
            let health = get_ok(addr, "/healthz");
            assert_eq!(health.body, "ok\n");
            let _ = parse_metrics(&get_ok(addr, "/metrics").body);
            std::thread::sleep(Duration::from_millis(25));
        }
        println!(
            "polled /status {polls} times, {mid_run_polls} strictly mid-run \
             (every payload parsed)"
        );
        assert!(
            mid_run_polls > 0,
            "the endpoints must be served *during* the run, not only after it"
        );
        handle.join().expect("grid thread panicked")
    });

    let report = &run.report;
    assert!(report.conservation_ok(), "chaos grid conserves every beam");

    // --- /status agrees with the merged ledger -----------------------
    headline("/status vs the merged GridReport");
    let snapshot = GridStatusSnapshot::from_json(&get_ok(addr, "/status").body)
        .expect("final /status JSON deserializes");
    assert_eq!(snapshot.completed, report.completed);
    assert_eq!(snapshot.degraded, report.degraded);
    assert_eq!(snapshot.deadline_misses, report.deadline_misses);
    assert_eq!(snapshot.shed_whole, report.shed_whole);
    assert_eq!(snapshot.total_shed_trials, report.total_shed_trials);
    assert_eq!(snapshot.rebalances, report.rehomed);
    assert_eq!(snapshot.shards.len(), report.shards.len());
    println!(
        "completed {} | degraded {} | missed {} | shed whole {} | rebalances {} — \
         all equal across endpoint and report",
        snapshot.completed,
        snapshot.degraded,
        snapshot.deadline_misses,
        snapshot.shed_whole,
        snapshot.rebalances
    );

    // --- per-shard endpoints -----------------------------------------
    for (s, shard_report) in report.shards.iter().enumerate() {
        let body = get_ok(addr, &format!("/status/shard/{s}")).body;
        let shard_snapshot =
            StatusSnapshot::from_json(&body).expect("shard /status JSON deserializes");
        assert_eq!(shard_snapshot.completed, shard_report.completed);
        assert_eq!(shard_snapshot.bounced, shard_report.bounced);
        assert_eq!(shard_snapshot.devices.len(), shard_report.devices.len());
        assert!(
            shard_snapshot.devices.iter().all(|d| d.queue_depth == 0),
            "finished shards have drained queues"
        );
    }
    let missing = obs::get(addr, &format!("/status/shard/{}", report.shards.len()))
        .expect("request succeeds");
    assert_eq!(missing.status, 404, "past-the-end shard is a 404");
    println!("per-shard endpoints agree with per-shard sub-reports; shard 2 is 404");

    // --- /metrics parses and sums to the ledger ----------------------
    headline("/metrics exposition");
    let metrics_body = get_ok(addr, "/metrics").body;
    let samples = parse_metrics(&metrics_body);
    let outcomes = sum_samples(&samples, "fleet_beams_total{");
    assert_eq!(
        outcomes as usize, report.admitted,
        "terminal-outcome counters sum to every admitted beam"
    );
    let sheds = sum_samples(&samples, "fleet_shed_trials_total");
    assert_eq!(sheds as usize, report.total_shed_trials);
    let rebalances = sum_samples(&samples, "fleet_grid_rebalances_total");
    assert_eq!(rebalances as usize, report.rehomed);
    // Histogram invariant straight off the wire: +Inf bucket == count.
    let inf_buckets = samples
        .iter()
        .filter(|(s, _)| s.starts_with("fleet_tick_drain_seconds_bucket") && s.contains("+Inf"));
    for (series, inf) in inf_buckets {
        let scope = series
            .split_once('{')
            .map(|(_, l)| l.split(",le=").next().unwrap_or(""))
            .unwrap_or("");
        let count_series = format!("fleet_tick_drain_seconds_count{{{scope}}}");
        let count = samples
            .iter()
            .find(|(s, _)| *s == count_series)
            .unwrap_or_else(|| panic!("no count series for {series}"))
            .1;
        assert_eq!(*inf, count, "+Inf bucket equals _count for {series}");
    }
    println!(
        "{} samples parsed; outcome counters sum to {} admitted beams",
        samples.len(),
        report.admitted
    );

    // --- /events round-trips and replays -----------------------------
    headline("/events NDJSON");
    let events_body = get_ok(addr, "/events?n=500").body;
    let tail = FlightRecorder::from_ndjson(&events_body).expect("NDJSON parses");
    assert!(!tail.is_empty());
    assert!(tail.len() <= 500);
    assert_eq!(
        FlightRecorder::to_ndjson(&tail),
        events_body,
        "NDJSON round-trips byte-for-byte through TelemetryEvent serde"
    );
    // The full recorder contents replay through the same fold the
    // status endpoint serves: replayed per-shard snapshots equal the
    // live ones.
    let everything = recorder.tail(usize::MAX);
    assert_eq!(everything.len(), run.events.len(), "ring dropped nothing");
    for (s, &devices) in SHARD_DEVICES.iter().enumerate() {
        let replayed = FlightRecorder::replay(&everything, Some(s), devices);
        let live_shard = live.shard_snapshot(s).expect("shard exists");
        assert_eq!(
            replayed, live_shard,
            "post-incident replay of shard {s} equals its live fold"
        );
    }
    println!(
        "{} recorded events; tail of {} round-tripped; per-shard replays equal live folds",
        everything.len(),
        tail.len()
    );

    // --- observation never perturbs scheduling -----------------------
    headline("determinism with the observer attached");
    let unobserved = Grid::session(&shards)
        .load(&load)
        .faults(&plan)
        .run()
        .expect("unobserved chaos grid run completes");
    assert_eq!(
        report.to_json(),
        unobserved.report.to_json(),
        "observed and unobserved runs agree byte-for-byte"
    );
    println!("observed ≡ unobserved: live observation is ledger-invisible");

    server.shutdown();
    experiments::out::write_json_report(report);
    println!("\nall endpoint assertions passed");
}
