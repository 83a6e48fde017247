//! `dedisp` — command-line driver for the dedispersion workspace.
//!
//! ```text
//! dedisp info      --setup apertif|lofar [--rate N] [--trials N]
//! dedisp generate  --setup apertif|lofar --out FILE [--rate N] [--seed N]
//!                  [--pulse DM:SAMPLE:AMP]...
//! dedisp search    --setup apertif|lofar --in FILE [--trials N]
//!                  [--threshold SNR]
//! dedisp tune      --setup apertif|lofar [--trials N] [--device NAME]
//! dedisp plan-dms  --setup apertif|lofar --max-dm DM [--width SECONDS]
//! ```
//!
//! Observations are stored in the workspace filterbank format
//! (`radioastro::Filterbank`).

use std::collections::HashMap;
use std::process::ExitCode;

use dedisp_repro::autotune::{ConfigSpace, SimExecutor, Tuner};
use dedisp_repro::dedisp_core::{Dedisperser, KernelConfig, OutputBuffer, ParallelKernel};
use dedisp_repro::manycore_sim::{all_devices, CostModel, Workload};
use dedisp_repro::radioastro::{
    detect_best_trial, DmPlanner, Filterbank, ObservationalSetup, PulseSpec, SignalGenerator,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  dedisp info      --setup apertif|lofar [--rate N] [--trials N]
  dedisp generate  --setup apertif|lofar --out FILE [--rate N] [--seed N] [--trials N] [--pulse DM:SAMPLE:AMP]...
  dedisp search    --setup apertif|lofar --in FILE [--trials N] [--threshold SNR]
  dedisp tune      --setup apertif|lofar [--trials N] [--device NAME]
  dedisp plan-dms  --setup apertif|lofar --max-dm DM [--width SECONDS]";

/// Parsed flags: `--key value` pairs plus repeatable `--pulse` specs.
struct Flags {
    values: HashMap<String, String>,
    pulses: Vec<PulseSpec>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut values = HashMap::new();
    let mut pulses = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        if key == "pulse" {
            pulses.push(parse_pulse(value)?);
        } else {
            values.insert(key.to_string(), value.clone());
        }
        i += 2;
    }
    Ok(Flags { values, pulses })
}

fn parse_pulse(spec: &str) -> Result<PulseSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("--pulse expects DM:SAMPLE:AMP, got `{spec}`"));
    }
    let dm: f64 = parts[0]
        .parse()
        .map_err(|_| format!("bad pulse DM `{}`", parts[0]))?;
    let sample: usize = parts[1]
        .parse()
        .map_err(|_| format!("bad pulse sample `{}`", parts[1]))?;
    let amplitude: f32 = parts[2]
        .parse()
        .map_err(|_| format!("bad pulse amplitude `{}`", parts[2]))?;
    Ok(PulseSpec::impulse(dm, sample, amplitude))
}

impl Flags {
    fn setup(&self) -> Result<ObservationalSetup, String> {
        let name = self.values.get("setup").ok_or("missing required --setup")?;
        let mut setup = match name.to_lowercase().as_str() {
            "apertif" => ObservationalSetup::apertif(),
            "lofar" => ObservationalSetup::lofar(),
            other => return Err(format!("unknown setup `{other}` (apertif|lofar)")),
        };
        if let Some(rate) = self.values.get("rate") {
            let rate: u32 = rate.parse().map_err(|_| format!("bad --rate `{rate}`"))?;
            setup = setup.scaled(rate);
        }
        Ok(setup)
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} `{v}`")),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} `{v}`")),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required --{key}"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "info" => cmd_info(&flags),
        "generate" => cmd_generate(&flags),
        "search" => cmd_search(&flags),
        "tune" => cmd_tune(&flags),
        "plan-dms" => cmd_plan_dms(&flags),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_info(flags: &Flags) -> Result<(), String> {
    let setup = flags.setup()?;
    let trials = flags.usize_or("trials", 64)?;
    let plan = setup.plan(trials).map_err(|e| e.to_string())?;
    println!("setup        {}", setup.name);
    println!(
        "band         {:.2}-{:.2} MHz in {} channels of {:.4} MHz",
        setup.band.low_mhz(),
        setup.band.high_mhz(),
        setup.band.channels(),
        setup.band.channel_width_mhz()
    );
    println!("time         {} samples/s", setup.sample_rate);
    println!(
        "trials       {} (DM {:.2}..{:.2} step {:.2} pc/cm3)",
        trials,
        plan.dm_grid().first(),
        plan.dm_grid().max_dm(),
        plan.dm_grid().step()
    );
    println!(
        "buffers      input {}x{} ({:.1} MiB), output {}x{} ({:.1} MiB)",
        plan.channels(),
        plan.in_samples(),
        plan.input_bytes() as f64 / (1 << 20) as f64,
        plan.trials(),
        plan.out_samples(),
        plan.output_bytes() as f64 / (1 << 20) as f64
    );
    println!("max delay    {} samples", plan.delays().max_delay());
    println!("work         {:.1} MFLOP per DM", setup.mflop_per_dm());
    println!(
        "real-time    needs {:.2} GFLOP/s sustained",
        plan.realtime_gflops()
    );
    Ok(())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let setup = flags.setup()?;
    let trials = flags.usize_or("trials", 64)?;
    let seed = flags.usize_or("seed", 1)? as u64;
    let out_path = flags.required("out")?;
    let plan = setup.plan(trials).map_err(|e| e.to_string())?;
    let mut generator = SignalGenerator::new(seed).noise_sigma(1.0);
    for pulse in &flags.pulses {
        generator = generator.pulse(*pulse);
    }
    let data = generator.generate(&plan);
    let fb = Filterbank::new(setup.band, setup.sample_rate, data).map_err(|e| e.to_string())?;
    let bytes = fb.to_bytes();
    std::fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!(
        "wrote {out_path}: {} channels x {} samples, {} pulse(s), {:.1} MiB",
        fb.band.channels(),
        fb.data.samples(),
        flags.pulses.len(),
        bytes.len() as f64 / (1 << 20) as f64
    );
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    let setup = flags.setup()?;
    let trials = flags.usize_or("trials", 64)?;
    let threshold = flags.f64_or("threshold", 6.0)? as f32;
    let in_path = flags.required("in")?;
    let bytes = std::fs::read(in_path).map_err(|e| format!("reading {in_path}: {e}"))?;
    let fb = Filterbank::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let plan = setup.plan(trials).map_err(|e| e.to_string())?;
    fb.data.check_plan(&plan).map_err(|e| {
        format!("{e}; does --setup/--rate/--trials match how the file was generated?")
    })?;

    let mut output = OutputBuffer::for_plan(&plan);
    ParallelKernel::new(KernelConfig::new(25, 2, 4, 2).map_err(|e| e.to_string())?)
        .dedisperse(&plan, &fb.data, &mut output)
        .map_err(|e| e.to_string())?;
    let det = detect_best_trial(&output);
    let best = det.best();
    println!(
        "best trial: DM {:.2} pc/cm3, sample {}, S/N {:.2}",
        plan.dm_grid().dm(best.trial),
        best.peak_sample,
        best.snr
    );
    let mut above = 0;
    for stat in &det.trials {
        if stat.snr >= threshold {
            above += 1;
            println!(
                "  candidate: DM {:>8.2}  sample {:>7}  S/N {:>6.2}",
                plan.dm_grid().dm(stat.trial),
                stat.peak_sample,
                stat.snr
            );
        }
    }
    if above == 0 {
        println!("no candidates above S/N {threshold}");
    }
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let setup = flags.setup()?;
    let trials = flags.usize_or("trials", 1024)?;
    let filter = flags.values.get("device").map(|s| s.to_lowercase());
    let grid = setup.dm_grid(trials).map_err(|e| e.to_string())?;
    let workload = Workload::analytic(setup.name.clone(), &setup.band, &grid, setup.sample_rate)
        .map_err(|e| e.to_string())?;
    let space = ConfigSpace::paper();
    let mut matched = false;
    for device in all_devices() {
        if let Some(f) = &filter {
            if !device.name.to_lowercase().contains(f) {
                continue;
            }
        }
        matched = true;
        let model = CostModel::new(device);
        let result = Tuner.tune(&SimExecutor::new(&model, &workload, &space));
        println!(
            "{:22} {:>22}  {:>8.1} GFLOP/s  (space {}, SNR {:.2})",
            model.device().name,
            result.best_config().to_string(),
            result.best_gflops(),
            result.samples.len(),
            result.stats().snr_of_max()
        );
    }
    if !matched {
        return Err(format!(
            "no device matches `{}`",
            filter.unwrap_or_default()
        ));
    }
    Ok(())
}

fn cmd_plan_dms(flags: &Flags) -> Result<(), String> {
    let setup = flags.setup()?;
    let max_dm = flags.f64_or("max-dm", 0.0)?;
    if max_dm <= 0.0 {
        return Err("missing or invalid --max-dm".to_string());
    }
    let width = flags.f64_or("width", 1e-3)?;
    let planner = DmPlanner::new(max_dm, width);
    let plan = planner.plan(&setup).map_err(|e| e.to_string())?;
    println!(
        "{} trial DMs to DM {:.1} (pulse width {:.3} ms):",
        plan.total_trials(),
        plan.max_dm(),
        width * 1e3
    );
    for seg in &plan.segments {
        println!(
            "  {:>6} trials  DM {:>9.3}..{:>9.3}  step {:>8.4}  smear {:>7.3} ms",
            seg.grid.count(),
            seg.grid.first(),
            seg.grid.max_dm(),
            seg.grid.step(),
            seg.smear_at_end_s * 1e3
        );
    }
    Ok(())
}
