//! The A/A check: does the ruler move by itself?
//!
//! `aa --sets 2 --runs 5` measures every workload `runs` times per set,
//! each run a fresh process of this same binary with a seed no other
//! run uses, and prints — as a Markdown table, committed as
//! `benchmark/AA.md` — each end-to-end metric's per-set medians, how
//! much worse the second set reads than the first, the spread of all
//! runs (interquartile distance over median) and the bound from
//! `BENCHMARK.json`. It fails if any difference exceeds its bound. A
//! bound may only be widened with this evidence; a metric that needs
//! more than a tenth wants a longer or reshaped workload instead.

use std::process::Command;

use crate::stats::{iqr_share, median};
use crate::{flag, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

/// The end-to-end metrics and whether lower is better.
const METRICS: [(&str, bool); 4] = [
    ("setup_s", true),
    ("work_per_s", false),
    ("result_p50_ms", true),
    ("peak_rss_mb", true),
];

/// The number after `"<key>": ` that follows the first `anchor` in
/// `text`. The benchmark only reads JSON it (or `BENCHMARK.json`)
/// wrote, so a scan is enough.
fn number_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(anchor)? + anchor.len()..];
    let key = format!("\"{key}\": ");
    let rest = &rest[rest.find(&key)? + key.len()..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
    rest[..end].parse().ok()
}

/// The bound `BENCHMARK.json` fixes for `metric`.
fn bound_of(benchmark_json: &str, metric: &str) -> Option<f64> {
    number_after(benchmark_json, &format!("\"name\": \"{metric}\""), "bound")
}

/// One fresh-process run; the four end-to-end values, in `METRICS` order.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<[f64; 4], String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} failed: {last}"));
    }
    let mut values = [0.0; 4];
    for (value, (metric, _)) in values.iter_mut().zip(METRICS) {
        *value = number_after(last, &format!("\"{metric}\""), "value")
            .ok_or(format!("{workload} seed {seed}: no {metric} in {last:?}"))?;
    }
    Ok(values)
}

/// Runs the check; `Ok(false)` if a pair disagrees beyond its bound.
pub fn run(args: &[String]) -> Result<bool, String> {
    let sets: usize = flag(args, "--sets")?.unwrap_or(2);
    let runs: usize = flag(args, "--runs")?.unwrap_or(5);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if sets == 0 || runs == 0 {
        return Err("--sets and --runs must be at least 1".into());
    }
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark_json =
        std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;

    // values[set][workload][run] = the four metrics.
    let mut values = vec![vec![Vec::new(); WORKLOADS.len()]; sets];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for run in 0..runs {
            let seed = DEFAULT_SEED + (set * runs + run) as u64;
            for (workload, results) in WORKLOADS.iter().zip(per_workload.iter_mut()) {
                eprintln!("set {set} run {run} {workload} seed {seed}");
                results.push(run_once(workload, seed, seconds)?);
            }
        }
    }

    println!("# A/A: {sets} sets x {runs} runs x {seconds} s, seeds {DEFAULT_SEED}..");
    println!();
    println!("`worse` is how much worse the last set's median reads than the first's;");
    println!("`spread` is the interquartile distance of all runs over their median.");
    println!();
    println!("| workload | metric | set medians | worse | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut agree = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, (metric, lower_is_better)) in METRICS.iter().enumerate() {
            let column =
                |set: &Vec<Vec<[f64; 4]>>| -> Vec<f64> { set[w].iter().map(|v| v[m]).collect() };
            let medians: Vec<f64> = values.iter().map(|set| median(&column(set))).collect();
            let (first, last) = (medians[0], medians[sets - 1]);
            let change = (last - first) / first;
            let worse = if *lower_is_better { change } else { -change };
            let all: Vec<f64> = values.iter().flat_map(column).collect();
            let bound = bound_of(&benchmark_json, metric)
                .ok_or(format!("BENCHMARK.json fixes no bound for {metric}"))?;
            let pass = worse <= bound;
            agree &= pass;
            let medians: Vec<String> = medians.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {workload} | {metric} | {} | {:+.2} % | {} | {:.0} % | {} |",
                medians.join(" / "),
                worse * 100.0,
                iqr_share(&all).map_or("n/a".into(), |s| format!("{:.2} %", s * 100.0)),
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDS" },
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_the_result_line_and_the_bounds() {
        let line = crate::result_line(
            7,
            0,
            &[("setup_s", 0.25, "s"), ("work_per_s", 1.5e3, "1/s")],
        );
        assert_eq!(number_after(&line, "\"setup_s\"", "value"), Some(0.25));
        assert_eq!(number_after(&line, "\"work_per_s\"", "value"), Some(1500.0));
        assert_eq!(number_after(&line, "\"absent\"", "value"), None);
        let json = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
                      {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}"#;
        assert_eq!(bound_of(json, "setup_s"), Some(0.1));
        assert_eq!(bound_of(json, "peak_rss_mb"), Some(0.05));
        assert_eq!(bound_of(json, "work_per_s"), None);
    }
}
