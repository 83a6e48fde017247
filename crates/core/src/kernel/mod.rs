//! Dedispersion kernels.
//!
//! One accumulation body and one reference. The body is the tiled loop
//! nest (register micro-tiles across channel blocks, compiled for the
//! baseline target, AVX2 and AVX-512); it sums whatever rows its caller
//! brings, and every kernel but the reference runs it:
//!
//! * [`NaiveKernel`] — the sequential reference, a direct transcription of
//!   Algorithm 1 from the paper. The oracle for all other exact kernels.
//! * [`TiledKernel`] — the paper's many-core algorithm on one thread: the
//!   problem is decomposed into two-dimensional work-group tiles governed
//!   by a [`KernelConfig`](crate::KernelConfig). Inside a tile one
//!   trial's run of samples is accumulated in vector registers across
//!   a block of channels (the paper's per-work-item accumulators), and
//!   tiles are visited time-major so that the input a time tile needs is
//!   read from memory once and served from cache to every trial (the
//!   data-reuse of Section III-B). Output is finished one L2-sized *slab*
//!   of whole DM strips at a time, so
//!   [`dedisperse_slabs`](Dedisperser::dedisperse_slabs) can feed a
//!   consumer without the dm–time plane ever being written.
//! * [`ParallelKernel`] — the tiled kernel with the DM strips split into
//!   one contiguous band per worker of a rayon thread pool; the host-side
//!   analog of launching the OpenCL kernel across compute units, and,
//!   under the paper's CPU decomposition, the `cpu-baseline` kernel.
//! * [`SubbandKernel`] — the two-stage *approximate* algorithm of this
//!   paper's successor pipelines (an extension beyond the paper): both
//!   stages run the body.
//!
//! The exact kernels are bitwise identical: every output element is its
//! channels summed in ascending order, starting from zero.

mod naive;
mod parallel;
pub mod subband;
mod tiled;

pub use naive::NaiveKernel;
pub use parallel::ParallelKernel;
pub use subband::{SubbandConfig, SubbandKernel};
pub use tiled::TiledKernel;

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::error::Result;
use crate::plan::DedispersionPlan;

/// The consumer of [`Dedisperser::dedisperse_slabs`]: called with the
/// first trial of a finished slab and its rows (`n × out_samples`,
/// trial-major), possibly from several worker threads at once.
pub type SlabSink<'a> = dyn Fn(usize, &[f32]) + Sync + 'a;

/// A dedispersion kernel: consumes a channelized time-series and produces
/// one dedispersed time-series per trial DM.
pub trait Dedisperser {
    /// A short, stable, human-readable implementation name.
    fn name(&self) -> &'static str;

    /// Dedisperses `input` into `output` according to `plan`.
    ///
    /// `output[trial][sample] = Σ_ch input[ch][sample + Δ(ch, trial)]`.
    ///
    /// On success every element of `output` has been overwritten, whatever
    /// it held before: callers reuse one buffer across invocations without
    /// clearing it.
    ///
    /// # Errors
    ///
    /// Returns a shape error if either buffer does not match the plan, or
    /// a configuration error if the kernel's configuration is incompatible
    /// with the plan.
    fn dedisperse(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) -> Result<()>;

    /// Dedisperses `input` and hands the result to `sink` one *slab* —
    /// a run of consecutive trials' complete series — at a time, for
    /// consumers that reduce each series (detection) and have no use for
    /// the whole dm–time plane.
    ///
    /// Every trial is delivered exactly once, with the same bits
    /// [`dedisperse`](Self::dedisperse) would have written; one thread
    /// delivers its slabs in ascending trial order, and a slab's rows are
    /// only valid during the call. This default materialises the plane
    /// and delivers it as a single slab; the tiled kernels deliver
    /// cache-sized slabs out of a reused scratch instead.
    ///
    /// # Errors
    ///
    /// As [`dedisperse`](Self::dedisperse).
    fn dedisperse_slabs(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        sink: &SlabSink<'_>,
    ) -> Result<()> {
        let mut output = OutputBuffer::for_plan(plan);
        self.dedisperse(plan, input, &mut output)?;
        sink(0, output.as_slice());
        Ok(())
    }
}

/// Convenience wrapper: dedisperses with the sequential reference kernel
/// into a freshly allocated output buffer.
///
/// # Errors
///
/// Returns a shape error if `input` does not match the plan.
pub fn dedisperse(plan: &DedispersionPlan, input: &InputBuffer) -> Result<OutputBuffer> {
    let mut out = OutputBuffer::for_plan(plan);
    NaiveKernel.dedisperse(plan, input, &mut out)?;
    Ok(out)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for kernel tests.

    use crate::dm::DmGrid;
    use crate::freq::FrequencyBand;
    use crate::plan::DedispersionPlan;
    use crate::InputBuffer;

    /// A small Apertif-flavored plan: 32 channels, 200 samples/s, `trials`
    /// trial DMs. Delays are small but non-zero across the band.
    pub fn small_plan(trials: usize) -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 0.5, trials).unwrap())
            .sample_rate(200)
            .build()
            .unwrap()
    }

    /// Whether two series hold the same bit patterns (`==` would let
    /// `-0.0` pass for `0.0`).
    pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Deterministic pseudo-random input: a cheap integer hash mapped to
    /// [0, 1). Reproducible without an RNG dependency.
    pub fn hash_input(plan: &DedispersionPlan) -> InputBuffer {
        let mut buf = InputBuffer::for_plan(plan);
        let samples = buf.samples();
        for ch in 0..buf.channels() {
            let row = buf.channel_mut(ch);
            for (s, v) in row.iter_mut().enumerate() {
                let mut x = (ch * samples + s) as u64;
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                *v = (x >> 40) as f32 / (1u64 << 24) as f32;
            }
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{hash_input, small_plan};
    use super::*;

    #[test]
    fn free_function_matches_reference() {
        let plan = small_plan(8);
        let input = hash_input(&plan);
        let out = dedisperse(&plan, &input).unwrap();
        let mut expected = OutputBuffer::for_plan(&plan);
        NaiveKernel
            .dedisperse(&plan, &input, &mut expected)
            .unwrap();
        assert_eq!(out.max_abs_diff(&expected), 0.0);
    }
}
