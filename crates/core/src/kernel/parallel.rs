//! The rayon-parallel tiled kernel.
//!
//! Work-group strips along the DM dimension are independent — each owns a
//! disjoint set of output rows — so the strips are split into one
//! contiguous band per worker and the bands are executed by a rayon
//! thread pool, the host-side analog of the OpenCL work-group grid
//! launched across the compute units of an accelerator. Inside its band
//! a worker runs the same time-major loop nest as [`TiledKernel`]; on
//! one CPU the band is the whole output and the two kernels coincide.
//!
//! [`TiledKernel`]: crate::kernel::TiledKernel

use rayon::prelude::*;

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::config::KernelConfig;
use crate::error::Result;
use crate::kernel::tiled::{dedisperse_band, Isa};
use crate::kernel::Dedisperser;
use crate::plan::DedispersionPlan;

/// Multi-threaded execution of the tiled many-core algorithm.
#[derive(Debug, Clone, Copy)]
pub struct ParallelKernel {
    config: KernelConfig,
}

impl ParallelKernel {
    /// Creates a parallel kernel specialized for `config`.
    pub fn new(config: KernelConfig) -> Self {
        Self { config }
    }

    /// The configuration this kernel was specialized for.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// Splits the checked problem's strips into at most `workers` bands.
    /// Where the bands are cut cannot change a bit: an element's sum
    /// involves its own trial only.
    fn dedisperse_on(
        &self,
        workers: usize,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) {
        let tile_dm = self.config.tile_dm() as usize;
        let strips = plan.trials().div_ceil(tile_dm);
        let band = strips.div_ceil(workers.clamp(1, strips)) * tile_dm;
        let isa = Isa::detect();

        output
            .as_mut_slice()
            .par_chunks_mut(band * plan.out_samples())
            .enumerate()
            .for_each(|(i, rows)| dedisperse_band(isa, plan, input, &self.config, i * band, rows));
    }
}

impl Dedisperser for ParallelKernel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn dedisperse(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) -> Result<()> {
        input.check_plan(plan)?;
        output.check_plan(plan)?;
        self.config
            .validate_for(plan.out_samples(), plan.trials())?;

        self.dedisperse_on(rayon::current_num_threads(), plan, input, output);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::{hash_input, small_plan};
    use crate::kernel::NaiveKernel;

    #[test]
    fn matches_reference_exactly() {
        let plan = small_plan(16);
        let input = hash_input(&plan);
        let mut expected = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut expected)
            .unwrap();

        for (wt, wd, et, ed) in [(1, 1, 1, 1), (8, 2, 2, 2), (25, 1, 2, 16), (50, 16, 4, 1)] {
            let config = KernelConfig::new(wt, wd, et, ed).unwrap();
            let mut out = OutputBuffer::for_plan(&plan);
            ParallelKernel::new(config)
                .dedisperse(&plan, &input, &mut out)
                .unwrap();
            assert!(
                out.bits_eq(&expected),
                "config {config} diverges from the reference"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        // Thread scheduling must not affect results: strips own disjoint
        // output rows and accumulate in a fixed order.
        let plan = small_plan(9);
        let input = hash_input(&plan);
        let config = KernelConfig::new(16, 2, 2, 1).unwrap();
        let kernel = ParallelKernel::new(config);
        let mut first = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut first).unwrap();
        for _ in 0..3 {
            let mut out = OutputBuffer::for_plan(&plan);
            kernel.dedisperse(&plan, &input, &mut out).unwrap();
            assert!(out.bits_eq(&first));
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        // 9 trials under a DM tile of 2 are 5 strips: every worker count
        // cuts the bands elsewhere, and 64 asks for more bands than
        // there are strips.
        let plan = small_plan(9);
        let input = hash_input(&plan);
        let kernel = ParallelKernel::new(KernelConfig::new(16, 2, 2, 1).unwrap());
        let mut one = OutputBuffer::for_plan(&plan);
        kernel.dedisperse_on(1, &plan, &input, &mut one);
        for workers in [2, 3, 4, 5, 64] {
            let mut out = OutputBuffer::for_plan(&plan);
            out.as_mut_slice().fill(f32::NAN);
            kernel.dedisperse_on(workers, &plan, &input, &mut out);
            assert!(out.bits_eq(&one), "{workers} workers");
        }
    }

    #[test]
    fn rejects_oversized_tile() {
        let plan = small_plan(4);
        let input = hash_input(&plan);
        let mut out = OutputBuffer::for_plan(&plan);
        let config = KernelConfig::new(8, 8, 1, 1).unwrap();
        assert!(ParallelKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .is_err());
    }

    #[test]
    fn accessors() {
        let config = KernelConfig::new(8, 4, 2, 2).unwrap();
        let k = ParallelKernel::new(config);
        assert_eq!(k.config(), config);
        assert_eq!(k.name(), "parallel");
    }
}
