//! The rayon-parallel tiled kernel.
//!
//! Work-group strips along the DM dimension are independent — each owns a
//! disjoint set of output rows — so the strips are split into one
//! contiguous band per worker and the bands are executed by a rayon
//! thread pool, the host-side analog of the OpenCL work-group grid
//! launched across the compute units of an accelerator. Inside its band
//! a worker runs the same loop nest as [`TiledKernel`] — slab after slab,
//! time-major within a slab, into its rows of the output or, on the sink
//! path, into a scratch slab of its own; on one CPU the band is the whole
//! output and the two kernels coincide.
//!
//! [`TiledKernel`]: crate::kernel::TiledKernel

use rayon::prelude::*;

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::config::KernelConfig;
use crate::error::Result;
use crate::kernel::tiled::{dedisperse_band, sink_band, Isa, Slabs, Tile};
use crate::kernel::{Dedisperser, SlabSink};
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

    /// Trials per band when the checked problem's strips are split into
    /// at most `workers` bands. Where the bands are cut cannot change a
    /// bit: an element's sum involves its own trial only.
    fn band(&self, workers: usize, plan: &DedispersionPlan) -> usize {
        let tile_dm = self.config.tile_dm() as usize;
        let strips = plan.trials().div_ceil(tile_dm);
        strips.div_ceil(workers.clamp(1, strips)) * tile_dm
    }

    /// [`Dedisperser::dedisperse`] on `workers` bands.
    fn dedisperse_on(
        &self,
        workers: usize,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) {
        let band = self.band(workers, plan);
        let isa = Isa::detect();
        let tile = Tile::for_plan(plan, input);
        output
            .as_mut_slice()
            .par_chunks_mut(band * plan.out_samples())
            .enumerate()
            .for_each(|(i, rows)| {
                let trials = i * band..(i * band + rows.len() / plan.out_samples());
                dedisperse_band(isa, tile, &self.config, trials, Slabs::InPlace(rows));
            });
    }

    /// [`Dedisperser::dedisperse_slabs`] on `workers` bands, each worker
    /// with a scratch of its own.
    fn slabs_on(
        &self,
        workers: usize,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        sink: &SlabSink<'_>,
    ) {
        let band = self.band(workers, plan);
        let isa = Isa::detect();
        let tile = Tile::for_plan(plan, input);
        let bands: Vec<usize> = (0..plan.trials()).step_by(band).collect();
        bands.par_iter().for_each(|&lo| {
            let trials = lo..(lo + band).min(plan.trials());
            sink_band(isa, tile, &self.config, trials, sink);
        });
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

    fn dedisperse_slabs(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        sink: &SlabSink<'_>,
    ) -> Result<()> {
        input.check_plan(plan)?;
        self.config
            .validate_for(plan.out_samples(), plan.trials())?;

        self.slabs_on(rayon::current_num_threads(), plan, input, sink);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::{hash_input, same_bits, small_plan};
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
    fn sink_path_is_exact_across_worker_counts() {
        // 2,000 samples make an 8 kB row: 131 fit a slab, 130 under a DM
        // tile of 2. 301 trials are 151 strips, so every worker count
        // cuts bands of another height, most of them not a whole number
        // of slabs, and 64 workers leave bands shorter than one slab.
        let plan = DedispersionPlan::builder()
            .band(crate::freq::FrequencyBand::new(140.0, 0.5, 8).unwrap())
            .dm_grid(crate::dm::DmGrid::new(0.0, 0.02, 301).unwrap())
            .sample_rate(2_000)
            .build()
            .unwrap();
        let input = hash_input(&plan);
        let mut expected = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut expected)
            .unwrap();
        let kernel = ParallelKernel::new(KernelConfig::new(16, 2, 2, 1).unwrap());

        for workers in [1, 2, 3, 5, 64] {
            let band = kernel.band(workers, &plan);
            // Per band: the next trial its worker must deliver.
            let next: Vec<_> = (0..plan.trials().div_ceil(band))
                .map(|b| std::sync::Mutex::new(b * band))
                .collect();
            kernel.slabs_on(workers, &plan, &input, &|first, rows| {
                let mut next = next[first / band].lock().unwrap();
                assert_eq!(first, *next, "{workers} workers: out of order");
                for (r, row) in rows.chunks(plan.out_samples()).enumerate() {
                    assert!(
                        same_bits(row, expected.series(first + r)),
                        "{workers} workers: trial {}",
                        first + r
                    );
                }
                *next += rows.len() / plan.out_samples();
            });
            for (b, next) in next.iter().enumerate() {
                let end = ((b + 1) * band).min(plan.trials());
                assert_eq!(*next.lock().unwrap(), end, "{workers} workers: band {b}");
            }
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
        assert!(ParallelKernel::new(config)
            .dedisperse_slabs(&plan, &input, &|_, _| panic!("nothing to deliver"))
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
