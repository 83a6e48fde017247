//! Channelized input and dedispersed output buffers.
//!
//! Every data element is a single-precision float, following the paper.
//! The input is a `c × t` matrix (channel-major: each channel's samples
//! are contiguous, matching the coalesced access pattern of the kernels);
//! the output is a `d × s` matrix (trial-major: each dedispersed
//! time-series is contiguous).

use crate::error::{DedispError, Result};
use crate::plan::DedispersionPlan;

/// A channelized time-series: `channels × samples`, channel-major.
#[derive(Debug, Clone, PartialEq)]
pub struct InputBuffer {
    channels: usize,
    samples: usize,
    data: Vec<f32>,
}

impl InputBuffer {
    /// Allocates a zero-filled input buffer shaped for `plan`.
    pub fn for_plan(plan: &DedispersionPlan) -> Self {
        Self::zeroed(plan.channels(), plan.in_samples())
    }

    /// Allocates a constant-valued input buffer shaped for `plan`.
    /// Dedispersing a constant input yields `value × channels` in every
    /// output bin regardless of the delays — a useful oracle in tests.
    pub fn constant(plan: &DedispersionPlan, value: f32) -> Self {
        Self {
            channels: plan.channels(),
            samples: plan.in_samples(),
            data: vec![value; plan.channels() * plan.in_samples()],
        }
    }

    /// Allocates a zero-filled `channels × samples` buffer.
    pub fn zeroed(channels: usize, samples: usize) -> Self {
        Self {
            channels,
            samples,
            data: vec![0.0; channels * samples],
        }
    }

    /// Wraps an existing vector; its length must equal
    /// `channels × samples`.
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::ShapeMismatch`] on length mismatch.
    pub fn from_vec(channels: usize, samples: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != channels * samples {
            return Err(DedispError::ShapeMismatch {
                expected: format!("{channels}x{samples} = {} values", channels * samples),
                found: format!("{} values", data.len()),
            });
        }
        Ok(Self {
            channels,
            samples,
            data,
        })
    }

    /// Number of frequency channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Samples per channel.
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// One channel's contiguous sample row.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[inline]
    pub fn channel(&self, ch: usize) -> &[f32] {
        &self.data[ch * self.samples..(ch + 1) * self.samples]
    }

    /// Mutable access to one channel's samples.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[inline]
    pub fn channel_mut(&mut self, ch: usize) -> &mut [f32] {
        &mut self.data[ch * self.samples..(ch + 1) * self.samples]
    }

    /// The whole buffer as a flat slice (channel-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole buffer as a flat mutable slice (channel-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Checks this buffer against a plan's expected input shape.
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::ShapeMismatch`] if the shape differs.
    pub fn check_plan(&self, plan: &DedispersionPlan) -> Result<()> {
        if self.channels != plan.channels() || self.samples != plan.in_samples() {
            return Err(DedispError::ShapeMismatch {
                expected: format!("input {}x{}", plan.channels(), plan.in_samples()),
                found: format!("input {}x{}", self.channels, self.samples),
            });
        }
        Ok(())
    }
}

/// A set of dedispersed time-series: `trials × samples`, trial-major.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputBuffer {
    trials: usize,
    samples: usize,
    data: Vec<f32>,
}

impl OutputBuffer {
    /// Allocates a zero-filled output buffer shaped for `plan`.
    pub fn for_plan(plan: &DedispersionPlan) -> Self {
        Self::zeroed(plan.trials(), plan.out_samples())
    }

    /// Allocates a zero-filled `trials × samples` buffer.
    pub fn zeroed(trials: usize, samples: usize) -> Self {
        Self {
            trials,
            samples,
            data: vec![0.0; trials * samples],
        }
    }

    /// Number of trial DMs.
    #[inline]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Samples per dedispersed series.
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// One trial's contiguous dedispersed time-series.
    ///
    /// # Panics
    ///
    /// Panics if `trial` is out of range.
    #[inline]
    pub fn series(&self, trial: usize) -> &[f32] {
        &self.data[trial * self.samples..(trial + 1) * self.samples]
    }

    /// Mutable access to one trial's series.
    ///
    /// # Panics
    ///
    /// Panics if `trial` is out of range.
    #[inline]
    pub fn series_mut(&mut self, trial: usize) -> &mut [f32] {
        &mut self.data[trial * self.samples..(trial + 1) * self.samples]
    }

    /// The whole buffer as a flat slice (trial-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole buffer as a flat mutable slice (trial-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Resets every output bin to zero, allowing buffer reuse across
    /// invocations without reallocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Checks this buffer against a plan's expected output shape.
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::ShapeMismatch`] if the shape differs.
    pub fn check_plan(&self, plan: &DedispersionPlan) -> Result<()> {
        if self.trials != plan.trials() || self.samples != plan.out_samples() {
            return Err(DedispError::ShapeMismatch {
                expected: format!("output {}x{}", plan.trials(), plan.out_samples()),
                found: format!("output {}x{}", self.trials, self.samples),
            });
        }
        Ok(())
    }

    /// Maximum absolute difference to another output buffer (shape must
    /// match). Useful when comparing kernel implementations.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &OutputBuffer) -> f32 {
        assert_eq!(self.trials, other.trials, "trial count mismatch");
        assert_eq!(self.samples, other.samples, "sample count mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether `other` has the same shape and every element the same bit
    /// pattern. This is the comparison kernel equivalence needs:
    /// [`max_abs_diff`](Self::max_abs_diff) `== 0.0` lets `-0.0` pass for
    /// `0.0` and, because `f32::max` ignores NaN, a NaN pass for anything.
    pub fn bits_eq(&self, other: &OutputBuffer) -> bool {
        self.trials == other.trials
            && self.samples == other.samples
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::DmGrid;
    use crate::freq::FrequencyBand;

    fn plan() -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(1420.0, 0.29, 8).unwrap())
            .dm_grid(DmGrid::paper_grid(4).unwrap())
            .sample_rate(100)
            .build()
            .unwrap()
    }

    #[test]
    fn bits_eq_sees_what_max_abs_diff_cannot() {
        let zero = OutputBuffer::zeroed(1, 2);
        for odd in [-0.0, f32::NAN] {
            let mut other = OutputBuffer::zeroed(1, 2);
            other.as_mut_slice()[1] = odd;
            assert_eq!(zero.max_abs_diff(&other), 0.0);
            assert!(!zero.bits_eq(&other));
            assert!(other.bits_eq(&other.clone()));
        }
        assert!(!zero.bits_eq(&OutputBuffer::zeroed(2, 1)));
    }

    #[test]
    fn input_shapes_for_plan() {
        let p = plan();
        let buf = InputBuffer::for_plan(&p);
        assert_eq!(buf.channels(), 8);
        assert_eq!(buf.samples(), p.in_samples());
        buf.check_plan(&p).unwrap();
    }

    #[test]
    fn constant_input() {
        let p = plan();
        let buf = InputBuffer::constant(&p, 2.5);
        assert!(buf.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn channel_rows_are_disjoint() {
        let mut buf = InputBuffer::zeroed(3, 4);
        buf.channel_mut(1).fill(7.0);
        assert!(buf.channel(0).iter().all(|&v| v == 0.0));
        assert!(buf.channel(1).iter().all(|&v| v == 7.0));
        assert!(buf.channel(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(InputBuffer::from_vec(2, 3, vec![0.0; 6]).is_ok());
        assert!(InputBuffer::from_vec(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn input_check_plan_rejects_wrong_shape() {
        let p = plan();
        let buf = InputBuffer::zeroed(8, 10);
        assert!(buf.check_plan(&p).is_err());
    }

    #[test]
    fn output_series_disjoint_and_clear() {
        let mut out = OutputBuffer::zeroed(3, 5);
        out.series_mut(2).fill(1.0);
        assert!(out.series(0).iter().all(|&v| v == 0.0));
        assert!(out.series(2).iter().all(|&v| v == 1.0));
        out.clear();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn output_check_plan() {
        let p = plan();
        let out = OutputBuffer::for_plan(&p);
        out.check_plan(&p).unwrap();
        let wrong = OutputBuffer::zeroed(5, 100);
        assert!(wrong.check_plan(&p).is_err());
    }

    #[test]
    fn max_abs_diff() {
        let mut a = OutputBuffer::zeroed(2, 2);
        let mut b = OutputBuffer::zeroed(2, 2);
        a.series_mut(0)[0] = 1.0;
        b.series_mut(0)[0] = 3.5;
        assert_eq!(a.max_abs_diff(&b), 2.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "trial count mismatch")]
    fn max_abs_diff_shape_panics() {
        let a = OutputBuffer::zeroed(2, 2);
        let b = OutputBuffer::zeroed(3, 2);
        let _ = a.max_abs_diff(&b);
    }
}
