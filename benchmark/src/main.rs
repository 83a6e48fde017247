//! The repo's end-to-end benchmark.
//!
//! ```text
//! dedisp-benchmark run --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//! dedisp-benchmark run --quick [--workload <name>]
//! dedisp-benchmark aa [--sets 2] [--runs 5] [--seconds <n>]
//! ```
//!
//! `run` measures one workload in this process (so `VmHWM` is that
//! workload's) and prints every metric by name with its unit, then one
//! JSON object on the last line. With `--trace 1` it instead replays
//! the workload stage by stage under spans, prints the per-layer
//! metrics and writes `benchmark/out/<workload>.trace.json`. `aa` runs
//! every workload in sets of fresh processes and checks that two sets
//! of the same code agree within the bounds of `BENCHMARK.json`.
//!
//! See `benchmark/README.md` for the layers, the workloads and which
//! end-to-end metric each per-layer metric should move.

mod aa;
mod fleet;
mod harness;
mod host;
mod stats;
mod stream;
mod trace;
mod tune;

use std::process::ExitCode;

use harness::{measure, Workload};
use host::CpuMask;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "stream_apertif",
    "stream_lofar",
    "tune_paper",
    "fleet_survey",
];

/// The seed a run uses when none is given. Fixed, so two people who
/// type the same command measure the same inputs.
pub const DEFAULT_SEED: u64 = 20_140_519;

/// Seconds of round time a run measures unless told otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Every per-layer metric, with its unit, in the order printed. A layer
/// the workload's replay never calls reads 0.
const LAYERS: [(&str, &str); 42] = [
    ("core.plan_build_ms", "ms"),
    ("core.kernel_ms_p50", "ms"),
    ("core.kernel_gflops", "GFLOP/s"),
    ("core.kernel_gbs_computed", "GB/s"),
    ("core.ai_flop_per_byte", "flop/B"),
    ("core.kernel_roofline_frac", "ratio"),
    ("host.triad_gbs", "GB/s"),
    ("host.machine_speed", "ratio"),
    ("core.naive_ms_p50", "ms"),
    ("core.tiled_ms_p50", "ms"),
    ("core.subband_ms_p50", "ms"),
    ("cpuref.kernel_ms_p50", "ms"),
    ("core.parallel_speedup", "ratio"),
    ("core.window_push_ms_p50", "ms"),
    ("feeder.push_ms_p50", "ms"),
    ("feeder.bytes_copied_per_chunk", "B"),
    ("astro.detect_ms_p50", "ms"),
    ("astro.signal_gen_ms", "ms"),
    ("pipeline.spawn_ms", "ms"),
    ("pipeline.overhead_frac", "ratio"),
    ("sim.evaluate_ns_p50", "ns"),
    ("sim.evaluations", "count"),
    ("tune.meaningful_ms_p50", "ms"),
    ("tune.tune_cell_ms_p50", "ms"),
    ("tune.configs_evaluated", "count"),
    ("tune.fixed_compare_ms", "ms"),
    ("tune.db_roundtrip_ms", "ms"),
    ("fleet.resolve_ms", "ms"),
    ("fleet.run_null_ms_p50", "ms"),
    ("fleet.run_observed_ms_p50", "ms"),
    ("fleet.observer_overhead_frac", "ratio"),
    ("fleet.events_per_run", "count"),
    ("fleet.deadline_misses", "count"),
    ("fleet.shed_trials", "count"),
    ("fleet.batch_encode_meps", "Mevents/s"),
    ("fleet.observe_batch_meps", "Mevents/s"),
    ("fleet.snapshot_fold_ms", "ms"),
    ("fleet.metrics_render_ms_p50", "ms"),
    ("fleet.frame_roundtrip_mbs", "MB/s"),
    ("fleet.capture_push_drain_mops", "Mops/s"),
    ("trace.span_cost_ns", "ns"),
    ("trace.coverage_frac", "ratio"),
];

/// Parsed command line of `run`.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// The value following `flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(at + 1).ok_or(format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn build(
    name: &str,
    seed: u64,
    quick: bool,
    unpinned: Option<CpuMask>,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "stream_apertif" => Box::new(stream::Stream::apertif(seed, quick, unpinned)),
        "stream_lofar" => Box::new(stream::Stream::lofar(seed, quick, unpinned)),
        "tune_paper" => Box::new(tune::TunePaper::new(quick)),
        "fleet_survey" => Box::new(fleet::FleetSurvey::new(quick)),
        _ => return None,
    })
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Cost of one empty span, nanoseconds, on a tracer of its own so the
/// probe does not bloat the trace written out.
fn span_cost_ns() -> f64 {
    const SPANS: u64 = 100_000;
    let mut probe = Tracer::new();
    let (_, ms) = harness::timed_ms(|| {
        for i in 0..SPANS {
            probe.span("empty", i, |_| ());
        }
    });
    std::hint::black_box(probe.spans().len());
    ms * 1e6 / SPANS as f64
}

/// `run --trace 1`: the staged replay and its per-layer metrics.
fn run_traced(name: &str, workload: &dyn Workload, seconds: f64) -> Result<u64, String> {
    let mut tracer = Tracer::new();
    let (staged, _, speed) = harness::calibrated(|| workload.staged(&mut tracer, seconds));
    let mut found = staged.layers;
    // Per-layer timings are plain wall clock; this says how disturbed
    // the machine was while they were taken (1 = quiet).
    found.push(("host.machine_speed", speed));
    found.push(("trace.span_cost_ns", span_cost_ns()));
    found.push(("trace.coverage_frac", tracer.coverage(workload.root())));

    let out = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = out.join(format!("{name}.trace.json"));
    let written =
        std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, tracer.chrome_json()));
    match written {
        Ok(()) => println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => return Err(format!("cannot write {}: {e}", path.display())),
    }

    let metrics: Vec<(&str, f64, &str)> = LAYERS
        .iter()
        .map(|&(layer, unit)| {
            let value = found
                .iter()
                .find(|(n, _)| *n == layer)
                .map_or(0.0, |(_, v)| *v);
            (layer, value, unit)
        })
        .collect();
    for (layer, value, unit) in &metrics {
        println!("{layer:<32} {value:>16.4} {unit}");
    }
    let attempted = staged.attempted.max(1);
    println!("{}", result_line(attempted, staged.failed, &metrics));
    Ok(staged.failed)
}

/// `run --trace 0`: the end-to-end metrics.
fn run_measured(workload: &dyn Workload, seconds: f64, quick: bool) -> u64 {
    let e = measure(workload, seconds, quick);
    println!("# work unit: {}", workload.work_unit());
    println!("# result: {}", workload.result());
    println!("{:<32} {:>16} count", "rounds", e.rounds);
    println!("{:<32} {:>16} count", "setups", e.setups);
    println!("{:<32} {:>16} count", "results", e.results);
    println!("{:<32} {:>16} count", "ops_attempted", e.attempted);
    println!("{:<32} {:>16} count", "ops_failed", e.failed);
    if quick {
        println!("# --quick: one set-up, one short round; no numbers recorded");
        return e.failed;
    }
    println!("# information only: the wall clock, the machine's speed, the tail");
    println!("{:<32} {:>16.4} s", "setup_wall_s", e.setup_wall_s);
    println!("{:<32} {:>16.4} 1/s", "work_per_wall_s", e.work_per_wall_s);
    println!(
        "{:<32} {:>16.4} ms",
        "result_wall_p50_ms", e.result_wall_p50_ms
    );
    println!("{:<32} {:>16.4} ms", "result_p95_ms", e.result_p95_ms);
    println!("{:<32} {:>16.4} ratio", "machine_speed", e.machine_speed);
    println!("# end to end, in calibrated seconds");
    let metrics = [
        ("setup_s", e.setup_s, "s"),
        ("work_per_s", e.work_per_s, "1/s"),
        ("result_p50_ms", e.result_p50_ms, "ms"),
        ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", result_line(e.attempted, e.failed, &metrics));
    e.failed
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = RunArgs {
        workload: flag(args, "--workload")?,
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        quick: args.iter().any(|a| a == "--quick"),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None if args.quick => WORKLOADS.to_vec(),
        None => return Err(format!("--workload is one of {WORKLOADS:?}")),
    };

    // Pinned before anything spawns a thread: every thread the program
    // starts inherits the mask, and the rayon stand-in, seeing one
    // CPU, runs inline. The benchmark scores work per core.
    let (unpinned, pinned) = host::pin_to_first_cpu();
    match pinned {
        Some(cpu) => println!("{:<32} {cpu:>16}", "pinned_cpu"),
        None => println!(
            "{:<32} {:>16} (pin failed; timings include scaling noise)",
            "pinned_cpu", "none"
        ),
    }
    println!("{:<32} {:>16}", "seed", args.seed);

    let mut all_ok = true;
    for name in names {
        println!("{:<32} {name:>16}", "workload");
        let workload = build(name, args.seed, args.quick, unpinned)
            .ok_or(format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?;
        let failed = if args.trace {
            run_traced(name, workload.as_ref(), args.seconds)?
        } else {
            run_measured(workload.as_ref(), args.seconds, args.quick)
        };
        all_ok &= failed == 0;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("aa") => aa::run(&args[1..]),
        _ => Err("usage: dedisp-benchmark run|aa ... (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dedisp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
