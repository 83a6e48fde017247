//! Cross-crate kernel equivalence: the CPU baseline, the tiled kernel,
//! the parallel kernel, and the sequential reference all compute the
//! identical transform.

use dedisp_repro::cpu_baseline::OpenMpAvxKernel;
use dedisp_repro::dedisp_core::prelude::*;
use dedisp_repro::dedisp_core::{SubbandConfig, SubbandKernel};
use dedisp_repro::radioastro::{ObservationalSetup, SignalGenerator};

fn all_kernels(config: KernelConfig) -> Vec<Box<dyn Dedisperser>> {
    vec![
        Box::new(NaiveKernel),
        Box::new(TiledKernel::new(config)),
        Box::new(ParallelKernel::new(config)),
        Box::new(OpenMpAvxKernel::default()),
        Box::new(OpenMpAvxKernel::with_block(64)),
    ]
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
        for kernel in all_kernels(config) {
            let mut out = OutputBuffer::for_plan(&plan);
            kernel.dedisperse(&plan, &input, &mut out).unwrap();
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
    // The two shapes `BENCHMARK.json`'s stream workloads run, at 16 of
    // their 256 trials, under the tile their pipeline is configured
    // with: 1,024 channels are 32 channel blocks with small delays,
    // 32 channels are one block with delays longer than the second.
    let config = KernelConfig::new(25, 4, 4, 2).unwrap();
    for setup in [
        ObservationalSetup::apertif().scaled(2_000),
        ObservationalSetup::lofar().scaled(20_000),
    ] {
        let plan = setup.plan(16).expect("valid plan");
        let input = SignalGenerator::new(20_140_519).generate(&plan);
        let mut reference = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut reference)
            .unwrap();
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
        }
    }
}

#[test]
fn every_kernel_overwrites_a_poisoned_output() {
    // `Dedisperser::dedisperse` promises to overwrite every element, so
    // the streaming worker never clears its buffer: a NaN left behind
    // would survive any sum.
    let setup = ObservationalSetup::apertif().scaled(400);
    let plan = setup.plan(12).expect("valid plan");
    let input = SignalGenerator::new(77).generate(&plan);
    let mut kernels = all_kernels(KernelConfig::new(8, 3, 5, 2).unwrap());
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
