//! Subband dedispersion: trading exactness for a large flop reduction.
//!
//! ```sh
//! cargo run --release --example subband
//! ```
//!
//! An extension beyond the paper: its successor pipelines (e.g. AMBER)
//! use a two-stage *subband* scheme. This example quantifies the
//! trade-off on an Apertif-flavored problem: flop reduction, measured
//! wall-clock speedup against the exact kernel, worst-case smearing, and
//! the effect on the recovered pulse's S/N.

use std::time::Instant;

use dedisp_repro::dedisp_core::prelude::*;
use dedisp_repro::radioastro::{detect_best_trial, PulseSpec, SignalGenerator};

fn main() {
    // 128 channels over the Apertif band, 2,000 samples/s, 64 trials.
    let plan = DedispersionPlan::builder()
        .band(FrequencyBand::from_edges(1420.0, 1720.0, 128).expect("valid band"))
        .dm_grid(DmGrid::new(0.0, 2.0, 64).expect("valid grid"))
        .sample_rate(2_000)
        .build()
        .expect("valid plan");

    let true_dm = 50.0;
    let input = SignalGenerator::new(31)
        .noise_sigma(1.0)
        .pulse(PulseSpec::impulse(true_dm, 900, 2.0))
        .generate(&plan);

    // Exact brute force.
    let mut exact_out = OutputBuffer::for_plan(&plan);
    let start = Instant::now();
    ParallelKernel::new(KernelConfig::new(25, 4, 4, 2).expect("valid config"))
        .dedisperse(&plan, &input, &mut exact_out)
        .expect("buffers match");
    let exact_time = start.elapsed();
    let exact_det = detect_best_trial(&exact_out);

    println!(
        "{:<22} {:>10} {:>12} {:>10} {:>8} {:>8}",
        "kernel", "flop", "flop-reduction", "time", "smear", "S/N"
    );
    println!(
        "{:<22} {:>10.2e} {:>14} {:>8.1?} {:>8} {:>8.1}",
        "exact (brute force)",
        plan.flop() as f64,
        "1.00x",
        exact_time,
        "0",
        exact_det.best().snr
    );

    for (subbands, stride) in [(32usize, 2usize), (16, 4), (8, 8), (4, 16)] {
        let config = SubbandConfig::new(subbands, stride).expect("valid subband config");
        let kernel = SubbandKernel::new(config);
        let smear = kernel
            .max_smear_samples(&plan)
            .expect("subbands divide the channels");
        let mut out = OutputBuffer::for_plan(&plan);
        let start = Instant::now();
        kernel
            .dedisperse(&plan, &input, &mut out)
            .expect("buffers match");
        let elapsed = start.elapsed();
        let det = detect_best_trial(&out);
        println!(
            "{:<22} {:>10.2e} {:>13.2}x {:>8.1?} {:>8} {:>8.1}",
            format!("subband {subbands}x (stride {stride})"),
            config.flop(plan.channels(), plan.out_samples(), plan.trials()) as f64,
            config.speedup_factor(plan.channels(), plan.out_samples(), plan.trials()),
            elapsed,
            smear,
            det.best().snr
        );
        // Sanity: the pulse is found within the scheme's DM quantization —
        // fine trials sharing one coarse trial are near-degenerate, so the
        // peak may land anywhere within a stride of the truth.
        let found = plan.dm_grid().dm(det.best_trial);
        let tolerance = stride as f64 * plan.dm_grid().step();
        assert!(
            (found - true_dm).abs() <= tolerance,
            "subband {subbands}: found {found}, tolerance {tolerance}"
        );
    }

    println!();
    println!(
        "exact detection: DM {:.1}, sample {}, S/N {:.1}",
        plan.dm_grid().dm(exact_det.best_trial),
        exact_det.best().peak_sample,
        exact_det.best().snr
    );
    println!("coarser subbanding buys flop at the price of smearing (S/N column).");
}
