//! The OpenMP + AVX CPU dedispersion analog.
//!
//! The paper's CPU version has threads compute different trial DMs and
//! blocks of time samples, eight samples at a time with AVX, with no
//! local-memory staging and no DM tiling: the CPU relies on its cache
//! hierarchy for reuse. Here that decomposition is a [`KernelConfig`] —
//! time tiles of 512 samples, DM tiles of one trial — run by
//! [`ParallelKernel`], so the sums go through the same loop nest, vector
//! lanes and all, as every other exact kernel.

use dedisp_core::{
    Dedisperser, DedispersionPlan, InputBuffer, KernelConfig, OutputBuffer, ParallelKernel, Result,
};

/// The CPU baseline kernel; built with `default()`.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct OpenMpAvxKernel;

impl Dedisperser for OpenMpAvxKernel {
    fn name(&self) -> &'static str {
        "cpu-openmp-avx"
    }

    fn dedisperse(
        &self,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        output: &mut OutputBuffer,
    ) -> Result<()> {
        let config = KernelConfig::new(512.min(plan.out_samples()) as u32, 1, 1, 1)?;
        ParallelKernel::new(config).dedisperse(plan, input, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand, NaiveKernel};

    fn plan(trials: usize, rate: u32) -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 0.5, trials).unwrap())
            .sample_rate(rate)
            .build()
            .unwrap()
    }

    fn hash_input(p: &DedispersionPlan) -> InputBuffer {
        let mut buf = InputBuffer::for_plan(p);
        let samples = buf.samples();
        for ch in 0..buf.channels() {
            for (s, v) in buf.channel_mut(ch).iter_mut().enumerate() {
                let mut x = (ch * samples + s) as u64;
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                *v = (x >> 40) as f32 / (1u64 << 24) as f32;
            }
        }
        buf
    }

    #[test]
    fn matches_reference_exactly() {
        let p = plan(9, 300);
        let input = hash_input(&p);
        let mut expected = OutputBuffer::for_plan(&p);
        NaiveKernel.dedisperse(&p, &input, &mut expected).unwrap();
        let mut out = OutputBuffer::for_plan(&p);
        OpenMpAvxKernel::default()
            .dedisperse(&p, &input, &mut out)
            .unwrap();
        assert!(out.bits_eq(&expected));
    }

    #[test]
    fn ragged_sample_counts_match_reference() {
        // 203 samples: less than one time tile, and no vector width
        // divides it.
        let p = DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 16).unwrap())
            .dm_grid(DmGrid::paper_grid(4).unwrap())
            .sample_rate(203)
            .build()
            .unwrap();
        let input = hash_input(&p);
        let mut expected = OutputBuffer::for_plan(&p);
        NaiveKernel.dedisperse(&p, &input, &mut expected).unwrap();
        let mut out = OutputBuffer::for_plan(&p);
        OpenMpAvxKernel::default()
            .dedisperse(&p, &input, &mut out)
            .unwrap();
        assert!(out.bits_eq(&expected));
    }

    #[test]
    fn rejects_mismatched_buffers() {
        let p = plan(4, 100);
        let bad_input = InputBuffer::zeroed(32, 10);
        let mut out = OutputBuffer::for_plan(&p);
        assert!(OpenMpAvxKernel::default()
            .dedisperse(&p, &bad_input, &mut out)
            .is_err());
    }

    #[test]
    fn name() {
        assert_eq!(OpenMpAvxKernel::default().name(), "cpu-openmp-avx");
    }
}
