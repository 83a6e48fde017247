//! Cross-crate kernel equivalence: the CPU baseline, the tiled kernel,
//! the parallel kernel, the subband kernel with one channel per subband
//! and no DM decimation, and the sequential reference all compute the
//! identical transform — into an output buffer and slab by slab into a
//! sink — and the multi-row detection statistics equal the scalar ones
//! on what they compute.

use std::sync::Mutex;

use dedisp_repro::cpu_baseline::OpenMpAvxKernel;
use dedisp_repro::dedisp_core::prelude::*;
use dedisp_repro::dedisp_core::{SubbandConfig, SubbandKernel};
use dedisp_repro::radioastro::detect::{scan_rows, trial_stat};
use dedisp_repro::radioastro::{detect_best_trial, ObservationalSetup, SignalGenerator};

fn all_kernels(config: KernelConfig, plan: &DedispersionPlan) -> Vec<Box<dyn Dedisperser>> {
    let exact_subband = SubbandConfig::new(plan.channels(), 1).unwrap();
    vec![
        Box::new(NaiveKernel),
        Box::new(TiledKernel::new(config)),
        Box::new(ParallelKernel::new(config)),
        Box::new(OpenMpAvxKernel::default()),
        Box::new(SubbandKernel::new(exact_subband)),
    ]
}

/// The plane `kernel` delivers through `dedisperse_slabs`, reassembled,
/// after checking that the slabs are whole series and that every trial
/// arrived exactly once.
fn plane_from_slabs(
    kernel: &dyn Dedisperser,
    plan: &DedispersionPlan,
    input: &InputBuffer,
) -> OutputBuffer {
    // Poisoned: a trial that never arrives cannot pass for a zero row.
    let mut plane = OutputBuffer::for_plan(plan);
    plane.as_mut_slice().fill(f32::NAN);
    let state = Mutex::new((plane, vec![0u32; plan.trials()]));
    let name = kernel.name();
    kernel
        .dedisperse_slabs(plan, input, &|first, rows| {
            assert_eq!(rows.len() % plan.out_samples(), 0, "{name}");
            let mut state = state.lock().unwrap();
            for (r, row) in rows.chunks(plan.out_samples()).enumerate() {
                state.0.series_mut(first + r).copy_from_slice(row);
                state.1[first + r] += 1;
            }
        })
        .unwrap();
    let (plane, arrivals) = state.into_inner().unwrap();
    assert!(arrivals.iter().all(|&n| n == 1), "{name}");
    plane
}

#[test]
fn five_implementations_agree_bitwise() {
    for setup in [
        ObservationalSetup::apertif().scaled(400),
        ObservationalSetup::lofar().scaled(400),
    ] {
        let plan = setup.plan(12).expect("valid plan");
        let input = SignalGenerator::new(77).generate(&plan);
        let config = KernelConfig::new(8, 3, 5, 2).unwrap();

        let mut outputs = Vec::new();
        for kernel in all_kernels(config, &plan) {
            let mut out = OutputBuffer::for_plan(&plan);
            kernel.dedisperse(&plan, &input, &mut out).unwrap();
            // The default sink path delivers that very plane; the tiled
            // kernels build it slab by slab.
            assert!(
                plane_from_slabs(kernel.as_ref(), &plan, &input).bits_eq(&out),
                "{} delivers other bits than it writes",
                kernel.name()
            );
            outputs.push((kernel.name(), out));
        }
        let (ref_name, reference) = &outputs[0];
        for (name, out) in &outputs[1..] {
            assert_eq!(
                out.max_abs_diff(reference),
                0.0,
                "{name} differs from {ref_name} on {}",
                setup.name
            );
        }
    }
}

#[test]
fn benchmark_shapes_agree_bitwise_under_the_benchmark_tile() {
    // The two shapes `BENCHMARK.json`'s stream workloads run, at 20 of
    // their 256 trials, under the tile their pipeline is configured
    // with: 1,024 channels are 32 channel blocks with small delays and
    // one slab holds every trial; 32 channels are one block with delays
    // longer than the second, and 80 kB rows make slabs of 8, 8 and 4.
    let config = KernelConfig::new(25, 4, 4, 2).unwrap();
    for (setup, input, reference) in benchmark_shapes() {
        let plan = setup.plan(20).expect("valid plan");
        let kernels: [Box<dyn Dedisperser>; 2] = [
            Box::new(TiledKernel::new(config)),
            Box::new(ParallelKernel::new(config)),
        ];
        for kernel in kernels {
            let mut out = OutputBuffer::for_plan(&plan);
            kernel.dedisperse(&plan, &input, &mut out).unwrap();
            assert!(
                out.bits_eq(&reference),
                "{} differs from naive on {}",
                kernel.name(),
                setup.name
            );
            assert!(
                plane_from_slabs(kernel.as_ref(), &plan, &input).bits_eq(&reference),
                "{}'s slabs differ from naive on {}",
                kernel.name(),
                setup.name
            );
        }
    }
}

/// The benchmark's two stream shapes at 20 trials, each with an input and
/// the reference kernel's output for it.
fn benchmark_shapes() -> Vec<(ObservationalSetup, InputBuffer, OutputBuffer)> {
    [
        ObservationalSetup::apertif().scaled(2_000),
        ObservationalSetup::lofar().scaled(20_000),
    ]
    .into_iter()
    .map(|setup| {
        let plan = setup.plan(20).expect("valid plan");
        let input = SignalGenerator::new(20_140_519).generate(&plan);
        let mut reference = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut reference)
            .unwrap();
        (setup, input, reference)
    })
    .collect()
}

#[test]
fn detection_on_the_benchmark_shapes_equals_the_scalar_statistics() {
    // What the benchmark compares `Candidate`s with is `detect_best_trial`
    // on `NaiveKernel`'s plane: the multi-row routine behind it must
    // report, for each of these series, the bits `trial_stat` does.
    for (setup, _, reference) in benchmark_shapes() {
        let scalar: Vec<_> = (0..reference.trials())
            .map(|t| trial_stat(t, reference.series(t)))
            .collect();
        let bits = |s: &dedisp_repro::radioastro::TrialStat| {
            (
                s.trial,
                s.peak_sample,
                [s.mean, s.sigma, s.peak_value, s.snr].map(f32::to_bits),
            )
        };
        let mut rows = Vec::new();
        scan_rows(0, reference.as_slice(), reference.samples(), |s| {
            rows.push(bits(&s))
        });
        let scalar_bits: Vec<_> = scalar.iter().map(bits).collect();
        assert_eq!(rows, scalar_bits, "{}", setup.name);

        let detection = detect_best_trial(&reference);
        let detected: Vec<_> = detection.trials.iter().map(bits).collect();
        assert_eq!(detected, scalar_bits, "{}", setup.name);
        let best = scalar
            .iter()
            .max_by(|a, b| a.snr.total_cmp(&b.snr))
            .expect("twenty trials");
        assert_eq!(detection.best_trial, best.trial, "{}", setup.name);
    }
}

#[test]
fn every_kernel_overwrites_a_poisoned_output() {
    // `Dedisperser::dedisperse` promises to overwrite every element, so
    // callers reuse one buffer without clearing it: a NaN left behind
    // would survive any sum.
    let setup = ObservationalSetup::apertif().scaled(400);
    let plan = setup.plan(12).expect("valid plan");
    let input = SignalGenerator::new(77).generate(&plan);
    let mut kernels = all_kernels(KernelConfig::new(8, 3, 5, 2).unwrap(), &plan);
    let subband = SubbandConfig::new(8, 4).unwrap();
    kernels.push(Box::new(SubbandKernel::new(subband)));
    for kernel in kernels {
        let mut fresh = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut fresh).unwrap();
        let mut poisoned = OutputBuffer::for_plan(&plan);
        poisoned.as_mut_slice().fill(f32::NAN);
        kernel.dedisperse(&plan, &input, &mut poisoned).unwrap();
        assert!(poisoned.bits_eq(&fresh), "{}", kernel.name());
    }
}

#[test]
fn repeated_invocations_are_idempotent() {
    let setup = ObservationalSetup::lofar().scaled(300);
    let plan = setup.plan(6).expect("valid plan");
    let input = SignalGenerator::new(7).generate(&plan);
    let kernel = ParallelKernel::new(KernelConfig::new(10, 2, 3, 3).unwrap());
    let mut out = OutputBuffer::for_plan(&plan);
    kernel.dedisperse(&plan, &input, &mut out).unwrap();
    let first = out.clone();
    // Reusing the same output buffer must overwrite, not accumulate.
    kernel.dedisperse(&plan, &input, &mut out).unwrap();
    assert_eq!(out.max_abs_diff(&first), 0.0);
}

#[test]
fn generated_source_tracks_host_kernel_structure() {
    // The generated OpenCL and the host kernels are driven by the same
    // KernelConfig: spot-check that the source embeds the plan and tile
    // the host actually used.
    let setup = ObservationalSetup::apertif().scaled(500);
    let plan = setup.plan(16).expect("valid plan");
    let config = KernelConfig::new(25, 4, 2, 2).unwrap();
    let src = dedisp_repro::dedisp_core::codegen::generate_opencl(&plan, &config).unwrap();
    assert!(src.contains(&format!("#define CHANNELS {}u", plan.channels())));
    assert!(src.contains(&format!("#define OUT_SAMPLES {}u", plan.out_samples())));
    assert!(src.contains(&format!("#define TILE_TIME {}u", config.tile_time())));
    assert!(src.contains(&format!("#define TILE_DM {}u", config.tile_dm())));
    assert!(src.contains("reqd_work_group_size(25, 4, 1)"));
}
