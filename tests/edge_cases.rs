//! Cross-crate edge cases: minimal problems, degenerate configurations,
//! and error-path behavior a downstream user will eventually hit.

use dedisp_repro::autotune::{ConfigSpace, SimExecutor, Tuner};
use dedisp_repro::dedisp_core::prelude::*;
use dedisp_repro::manycore_sim::{all_devices, CostModel, Workload};
use dedisp_repro::radioastro::{ObservationalSetup, SignalGenerator};

#[test]
fn one_by_one_problem_works_end_to_end() {
    // A single channel, a single trial, a handful of samples.
    let plan = DedispersionPlan::builder()
        .band(FrequencyBand::new(1000.0, 1.0, 1).unwrap())
        .dm_grid(DmGrid::new(0.0, 0.25, 1).unwrap())
        .sample_rate(8)
        .build()
        .unwrap();
    let mut input = InputBuffer::for_plan(&plan);
    input
        .channel_mut(0)
        .copy_from_slice(&[1., 2., 3., 4., 5., 6., 7., 8.]);
    let out = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
    // One channel, zero delay: the output is the input's first second.
    assert_eq!(out.series(0), input.channel(0));

    // Every kernel agrees even here.
    let config = KernelConfig::scalar();
    for kernel in [
        Box::new(TiledKernel::new(config)) as Box<dyn Dedisperser>,
        Box::new(ParallelKernel::new(config)),
    ] {
        let mut o = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut o).unwrap();
        assert_eq!(o.max_abs_diff(&out), 0.0);
    }
}

#[test]
fn single_trial_instance_tunes_on_every_device() {
    // d = 1: the DM dimension offers nothing; the tuner must still
    // produce a meaningful optimum on all five devices.
    let setup = ObservationalSetup::apertif();
    let grid = setup.dm_grid(1).unwrap();
    let w = Workload::analytic("Apertif", &setup.band, &grid, setup.sample_rate).unwrap();
    let space = ConfigSpace::paper();
    for dev in all_devices() {
        let model = CostModel::new(dev);
        let r = Tuner.tune(&SimExecutor::new(&model, &w, &space));
        assert_eq!(r.best_config().tile_dm(), 1, "{}", r.label);
        assert!(r.best_gflops() > 0.0);
    }
}

#[test]
fn highest_trial_pulse_sits_at_buffer_edge() {
    // A pulse whose delayed tail lands on the very last input sample:
    // indexing must stay in bounds and the pulse must be recovered.
    let setup = ObservationalSetup::lofar().scaled(500);
    let plan = setup.plan(8).unwrap();
    let last_trial = plan.trials() - 1;
    let dm = plan.dm_grid().dm(last_trial);
    let last_sample = plan.out_samples() - 1;
    let mut input = InputBuffer::for_plan(&plan);
    for ch in 0..plan.channels() {
        let shift = plan.delays().delay(last_trial, ch);
        input.channel_mut(ch)[last_sample + shift] = 1.0;
    }
    let out = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
    assert!(
        (out.series(last_trial)[last_sample] - plan.channels() as f32).abs() < 1e-3,
        "got {}",
        out.series(last_trial)[last_sample]
    );
    let _ = dm; // documented intent: this is the max-DM trial
}

#[test]
fn subband_and_exact_agree_when_smear_is_zero() {
    // A zero-DM plan has identical delays everywhere: the two-stage
    // scheme is exact by construction for any configuration.
    let setup = ObservationalSetup::lofar().scaled(400);
    let plan = setup.plan_zero_dm(8).unwrap();
    let input = SignalGenerator::new(3).generate(&plan);
    let exact = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
    for (subbands, stride) in [(4usize, 2usize), (8, 4), (16, 8)] {
        let kernel = SubbandKernel::new(SubbandConfig::new(subbands, stride).unwrap());
        assert_eq!(kernel.max_smear_samples(&plan).unwrap(), 0);
        let mut out = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut out).unwrap();
        assert!(
            out.max_abs_diff(&exact) < 1e-3,
            "subbands {subbands} stride {stride}: {}",
            out.max_abs_diff(&exact)
        );
    }
}

#[test]
fn error_messages_name_the_problem() {
    let plan = ObservationalSetup::apertif().scaled(200).plan(4).unwrap();
    let input = InputBuffer::zeroed(3, 3);
    let mut out = OutputBuffer::for_plan(&plan);
    let err = NaiveKernel
        .dedisperse(&plan, &input, &mut out)
        .unwrap_err()
        .to_string();
    assert!(err.contains("shape mismatch"), "{err}");

    let cfg_err = KernelConfig::new(0, 1, 1, 1).unwrap_err().to_string();
    assert!(cfg_err.contains("wi_time"), "{cfg_err}");

    let band_err = FrequencyBand::new(-1.0, 1.0, 4).unwrap_err().to_string();
    assert!(band_err.contains("low_mhz"), "{band_err}");
}

#[test]
fn generated_kernels_cover_full_paper_space_shapes() {
    // Codegen must handle every meaningful configuration the tuner can
    // select for the real observational setups.
    let setup = ObservationalSetup::apertif();
    let plan = setup.scaled(2_000).plan(64).unwrap();
    let space = ConfigSpace::reduced();
    for config in space.raw_configs() {
        if config
            .validate_for(plan.out_samples(), plan.trials())
            .is_ok()
        {
            let src = dedisp_repro::dedisp_core::codegen::generate_opencl(&plan, &config)
                .expect("codegen succeeds for any valid config");
            assert!(src.contains("__kernel"));
        }
    }
}
