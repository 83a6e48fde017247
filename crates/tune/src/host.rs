//! Tuning real host kernels by measurement.
//!
//! The tuner is executor-generic (see [`crate::tuner::Executor`]); this
//! module provides the executor that *actually runs* a dedispersion
//! kernel on this machine and scores it by measured wall-clock time —
//! the exact loop the paper runs on its accelerators (averaging over
//! repeated executions, Section IV). Useful to tune the rayon host
//! kernel for the local CPU, and as the template for wiring a real
//! OpenCL/CUDA device underneath the same tuner.

use std::time::Instant;

use dedisp_core::{
    Dedisperser, DedispersionPlan, InputBuffer, KernelConfig, OutputBuffer, ParallelKernel,
    TiledKernel,
};
use parking_lot::Mutex;

use crate::space::ConfigSpace;
use crate::tuner::Executor;

/// Which host kernel the executor measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKernel {
    /// Single-threaded tiled kernel.
    Tiled,
    /// Rayon-parallel tiled kernel.
    Parallel,
}

/// An [`Executor`] that measures real executions on the host CPU.
pub struct HostExecutor<'a> {
    plan: &'a DedispersionPlan,
    input: &'a InputBuffer,
    kind: HostKernel,
    repeats: u32,
    configs: Vec<KernelConfig>,
    scratch: Mutex<OutputBuffer>,
}

impl<'a> HostExecutor<'a> {
    /// Creates an executor over the configurations of `space` that fit
    /// `plan`. Each measurement averages `repeats` executions (the paper
    /// uses ten).
    ///
    /// # Panics
    ///
    /// Panics if `repeats` is zero.
    pub fn new(
        plan: &'a DedispersionPlan,
        input: &'a InputBuffer,
        space: &ConfigSpace,
        kind: HostKernel,
        repeats: u32,
    ) -> Self {
        assert!(repeats > 0, "need at least one repetition");
        let configs = space.collect(|c| c.validate_for(plan.out_samples(), plan.trials()).is_ok());
        Self {
            plan,
            input,
            kind,
            repeats,
            configs,
            scratch: Mutex::new(OutputBuffer::for_plan(plan)),
        }
    }
}

impl Executor for HostExecutor<'_> {
    fn label(&self) -> String {
        format!(
            "host-{} / {} trials",
            match self.kind {
                HostKernel::Tiled => "tiled",
                HostKernel::Parallel => "parallel",
            },
            self.plan.trials()
        )
    }

    fn configs(&self) -> &[KernelConfig] {
        &self.configs
    }

    fn measure(&self, config: &KernelConfig) -> Option<f64> {
        let kernel: Box<dyn Dedisperser> = match self.kind {
            HostKernel::Tiled => Box::new(TiledKernel::new(*config)),
            HostKernel::Parallel => Box::new(ParallelKernel::new(*config)),
        };
        // The parallel kernel already saturates the machine: serialize
        // measurements through one scratch buffer so timings are honest.
        let mut output = self.scratch.lock();
        // Warm-up execution (page faults, thread pool spin-up).
        kernel.dedisperse(self.plan, self.input, &mut output).ok()?;
        let start = Instant::now();
        for _ in 0..self.repeats {
            kernel.dedisperse(self.plan, self.input, &mut output).ok()?;
        }
        let mean_s = start.elapsed().as_secs_f64() / f64::from(self.repeats);
        Some(self.plan.flop() as f64 / mean_s / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::Tuner;
    use dedisp_core::{DmGrid, FrequencyBand, NaiveKernel};

    fn plan() -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 16).unwrap())
            .dm_grid(DmGrid::new(0.0, 1.0, 8).unwrap())
            .sample_rate(400)
            .build()
            .unwrap()
    }

    fn input(plan: &DedispersionPlan) -> InputBuffer {
        let mut buf = InputBuffer::for_plan(plan);
        for (i, v) in buf.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 17) as f32 * 0.25;
        }
        buf
    }

    #[test]
    fn tunes_a_real_kernel() {
        let plan = plan();
        let input = input(&plan);
        let space = ConfigSpace::reduced();
        let exec = HostExecutor::new(&plan, &input, &space, HostKernel::Tiled, 2);
        let result = Tuner.tune(&exec);
        assert!(result.best_gflops() > 0.0);
        assert!(result
            .best_config()
            .validate_for(plan.out_samples(), plan.trials())
            .is_ok());
        // Every scored configuration produced a positive rate.
        assert!(result.samples.iter().all(|s| s.gflops > 0.0));
    }

    #[test]
    fn tuned_config_actually_computes_the_transform() {
        let plan = plan();
        let input = input(&plan);
        let space = ConfigSpace::reduced();
        let exec = HostExecutor::new(&plan, &input, &space, HostKernel::Parallel, 1);
        let result = Tuner.tune(&exec);

        let mut out = OutputBuffer::for_plan(&plan);
        ParallelKernel::new(result.best_config())
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        let mut reference = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut reference)
            .unwrap();
        assert_eq!(out.max_abs_diff(&reference), 0.0);
    }

    #[test]
    fn space_is_filtered_to_fitting_configs() {
        let plan = plan(); // 8 trials, 400 samples
        let input = input(&plan);
        let space = ConfigSpace::paper();
        let exec = HostExecutor::new(&plan, &input, &space, HostKernel::Tiled, 1);
        let configs = exec.configs();
        assert!(!configs.is_empty());
        assert!(configs.iter().all(|c| c.tile_dm() <= 8));
        assert!(configs.iter().all(|c| c.tile_time() as usize <= 400));
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repeats_panics() {
        let plan = plan();
        let input = input(&plan);
        let space = ConfigSpace::reduced();
        let _ = HostExecutor::new(&plan, &input, &space, HostKernel::Tiled, 0);
    }
}
