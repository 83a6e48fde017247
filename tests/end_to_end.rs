//! End-to-end integration: tune on the device model, execute the tuned
//! configuration with the host kernels on synthetic telescope data, and
//! recover injected astrophysics.

use std::sync::Arc;

use dedisp_repro::autotune::{ConfigSpace, SimExecutor, Tuner};
use dedisp_repro::dedisp_core::prelude::*;
use dedisp_repro::manycore_sim::{amd_hd7970, CostModel, Workload};
use dedisp_repro::pipeline::{Chunk, PipelineConfig, StreamingPipeline};
use dedisp_repro::radioastro::{
    detect_best_trial, Filterbank, ObservationalSetup, PulseSpec, SignalGenerator,
};

/// A fast LOFAR-shaped setup: real band, scaled time resolution.
fn mini_lofar() -> ObservationalSetup {
    ObservationalSetup::lofar().scaled(1_000)
}

#[test]
fn tune_then_execute_then_detect() {
    let setup = mini_lofar();
    let trials = 32;
    let plan = setup.plan(trials).expect("valid plan");

    // 1. Tune against the HD7970 model for this setup and instance.
    let grid = setup.dm_grid(trials).unwrap();
    let workload =
        Workload::analytic(setup.name.clone(), &setup.band, &grid, setup.sample_rate).unwrap();
    let model = CostModel::new(amd_hd7970());
    let space = ConfigSpace::reduced();
    let tuned = Tuner.tune(&SimExecutor::new(&model, &workload, &space));
    let mut config = tuned.best_config();

    // The tuned tile targets one second at full rate; shrink it until it
    // also fits the scaled plan used for host execution.
    while config.tile_time() as usize > plan.out_samples() {
        config = KernelConfig::new(
            (config.wi_time() / 2).max(1),
            config.wi_dm(),
            (config.el_time() / 2).max(1),
            config.el_dm(),
        )
        .unwrap();
    }
    config
        .validate_for(plan.out_samples(), plan.trials())
        .expect("shrunken config fits");

    // 2. Execute the tuned configuration on synthetic data with a pulse.
    let true_dm = 5.5;
    let input = SignalGenerator::new(99)
        .noise_sigma(1.0)
        .pulse(PulseSpec::impulse(true_dm, 400, 3.0))
        .generate(&plan);
    let mut out_tiled = OutputBuffer::for_plan(&plan);
    TiledKernel::new(config)
        .dedisperse(&plan, &input, &mut out_tiled)
        .unwrap();

    // 3. The tuned kernel agrees with the reference bit-for-bit.
    let reference = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
    assert_eq!(out_tiled.max_abs_diff(&reference), 0.0);

    // 4. And the pulse is recovered at the injected DM.
    let det = detect_best_trial(&out_tiled);
    let found = plan.dm_grid().dm(det.best_trial);
    assert!(
        (found - true_dm).abs() <= plan.dm_grid().step(),
        "found {found}"
    );
    assert_eq!(det.best().peak_sample, 400);
    assert!(det.best().snr > 6.0);
}

#[test]
fn filterbank_feeds_the_pipeline() {
    // Persist an observation as a filterbank blob, re-load it, and push
    // it through the streaming pipeline.
    let setup = mini_lofar();
    let plan = Arc::new(setup.plan(16).expect("valid plan"));
    let data = SignalGenerator::new(5)
        .noise_sigma(1.0)
        .pulse(PulseSpec::impulse(2.0, 123, 4.0))
        .generate(&plan);

    let blob = Filterbank::new(setup.band, setup.sample_rate, data)
        .unwrap()
        .to_bytes();
    let restored = Filterbank::from_bytes(&blob).unwrap();
    assert_eq!(restored.band.channels(), plan.channels());

    let pipeline = StreamingPipeline::spawn(Arc::clone(&plan), PipelineConfig::default());
    let tx = pipeline.sender();
    let candidates = pipeline.candidates();
    tx.send(Chunk {
        beam: 0,
        second: 0,
        data: restored.data,
    })
    .unwrap();
    drop(tx);
    assert_eq!(pipeline.join(), 1);

    let found: Vec<_> = candidates.try_iter().collect();
    assert_eq!(found.len(), 1);
    assert!((found[0].dm - 2.0).abs() <= plan.dm_grid().step());
    assert_eq!(found[0].best.peak_sample, 123);
}

#[test]
fn both_setups_run_the_same_code_paths() {
    // Apertif and LOFAR differ only in parameters, never in code.
    for setup in [
        ObservationalSetup::apertif().scaled(500),
        ObservationalSetup::lofar().scaled(500),
    ] {
        let plan = setup.plan(8).expect("valid plan");
        let input = SignalGenerator::new(1).generate(&plan);
        let reference = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let config = KernelConfig::new(10, 2, 5, 2).unwrap();
        let mut out = OutputBuffer::for_plan(&plan);
        ParallelKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        assert_eq!(out.max_abs_diff(&reference), 0.0, "{}", setup.name);
    }
}

#[test]
fn zero_dm_plan_equalizes_all_trials() {
    // Experiment 3's functional counterpart: with all delays zero every
    // dedispersed series is identical.
    let setup = mini_lofar();
    let plan = setup.plan_zero_dm(8).expect("valid plan");
    let input = SignalGenerator::new(3).generate(&plan);
    let out = dedisp_repro::dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
    let first = out.series(0).to_vec();
    for trial in 1..plan.trials() {
        assert_eq!(out.series(trial), &first[..], "trial {trial}");
    }
}
