//! Continuous-observation streaming: the rolling input window.
//!
//! Dedispersing one second of output needs `s + max_delay` input samples
//! (the tail of each second overlaps the head of the next by the
//! worst-case delay). A [`StreamWindow`] owns that rolling window: push
//! one second of fresh samples per channel, and the window shifts its
//! history so any kernel can dedisperse the current second directly —
//! the buffering a real-time backend performs between the beamformer
//! and the dedispersion kernel.

use crate::buffer::InputBuffer;
use crate::error::{DedispError, Result};
use crate::plan::DedispersionPlan;

/// A rolling `channels × (out_samples + max_delay)` input window.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    buffer: InputBuffer,
    out_samples: usize,
    overlap: usize,
    seconds_pushed: u64,
}

impl StreamWindow {
    /// Creates an empty (zero-history) window shaped for `plan`.
    pub fn for_plan(plan: &DedispersionPlan) -> Self {
        Self {
            buffer: InputBuffer::for_plan(plan),
            out_samples: plan.out_samples(),
            overlap: plan.in_samples() - plan.out_samples(),
            seconds_pushed: 0,
        }
    }

    /// Samples of history carried across pushes (`max_delay`).
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Seconds pushed so far.
    pub fn seconds_pushed(&self) -> u64 {
        self.seconds_pushed
    }

    /// Whether the pushed seconds cover the window's history:
    /// `seconds_pushed · out_samples ≥ overlap`.
    ///
    /// This turns true one push *before* the window is all real data. The
    /// window is `overlap + out_samples` long, so on the first push that
    /// satisfies the condition its oldest `out_samples` positions (fewer
    /// if that push overshoots `overlap`) still hold the zero-filled cold
    /// start; only the push after it leaves nothing but real samples.
    /// Before the first push of a plan with delays it is false.
    pub fn warmed_up(&self) -> bool {
        self.seconds_pushed as u128 * self.out_samples as u128 >= self.overlap as u128
    }

    /// Pushes one second of fresh samples: `fresh[ch]` must hold exactly
    /// `out_samples` values for each channel. The window shifts left by
    /// `out_samples` and appends the new block at the end.
    ///
    /// After the push, [`StreamWindow::window`] covers the *newest*
    /// dedispersable second: output sample `i` of that second reads
    /// window positions `i + Δ`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the channel count or block length is
    /// wrong.
    pub fn push_second(&mut self, fresh: &[&[f32]]) -> Result<()> {
        check_second(fresh, self.buffer.channels(), self.out_samples)?;
        let width = self.out_samples + self.overlap;
        for (ch, block) in fresh.iter().enumerate() {
            let row = self.buffer.channel_mut(ch);
            row.copy_within(self.out_samples..width, 0);
            row[self.overlap..].copy_from_slice(block);
        }
        self.seconds_pushed += 1;
        Ok(())
    }

    /// The current window, shaped exactly as a plan's input buffer and
    /// ordered oldest-first.
    ///
    /// Dedispersing it produces the newest *fully covered* second: after
    /// `k` pushes the window spans absolute samples
    /// `[k·s − (s + overlap), k·s)`, so output bin `i` corresponds to
    /// absolute sample `k·s − s − overlap + i` and reads
    /// `window.channel(ch)[i + Δ(ch, trial)]`, which stays in range
    /// because `Δ ≤ overlap`. Dedispersed output therefore trails the
    /// newest raw sample by `overlap` samples — the unavoidable latency
    /// of dedispersion at the highest trial DM.
    pub fn window(&self) -> &InputBuffer {
        &self.buffer
    }
}

/// Checks that `fresh` is one raw second as [`StreamWindow::push_second`]
/// takes it: `channels` blocks of exactly `out_samples` values each.
///
/// # Errors
///
/// Returns a shape error naming the wrong channel count or the first
/// channel whose block has the wrong length.
pub fn check_second(fresh: &[&[f32]], channels: usize, out_samples: usize) -> Result<()> {
    if fresh.len() != channels {
        return Err(DedispError::ShapeMismatch {
            expected: format!("{channels} channels"),
            found: format!("{} channels", fresh.len()),
        });
    }
    for (ch, block) in fresh.iter().enumerate() {
        if block.len() != out_samples {
            return Err(DedispError::ShapeMismatch {
                expected: format!("{out_samples} samples"),
                found: format!("{} samples (channel {ch})", block.len()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dm::DmGrid;
    use crate::freq::FrequencyBand;
    use crate::kernel::dedisperse;

    fn plan() -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 8).unwrap())
            .dm_grid(DmGrid::new(0.0, 2.0, 6).unwrap())
            .sample_rate(100)
            .build()
            .unwrap()
    }

    /// A long continuous signal per channel, sliced into seconds.
    fn long_signal(plan: &DedispersionPlan, total_seconds: usize) -> Vec<Vec<f32>> {
        let n = plan.out_samples() * total_seconds + plan.delays().max_delay();
        (0..plan.channels())
            .map(|ch| {
                (0..n)
                    .map(|s| {
                        let mut x = (ch * n + s) as u64;
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
                        (x >> 40) as f32 / (1u64 << 24) as f32
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn window_matches_offline_slicing() {
        // Streaming seconds through the window must reproduce exactly
        // the result of dedispersing the corresponding offline slice.
        let plan = plan();
        let s = plan.out_samples();
        let total = 4;
        let signal = long_signal(&plan, total);
        let mut window = StreamWindow::for_plan(&plan);

        for second in 0..total {
            let blocks: Vec<&[f32]> = signal
                .iter()
                .map(|chan| &chan[second * s..(second + 1) * s])
                .collect();
            window.push_second(&blocks).unwrap();
        }
        assert_eq!(window.seconds_pushed(), 4);

        // The window now ends at sample 4s; dedispersable second is
        // [3s - overlap .. 4s)? No: the window covers
        // [4s - (s + overlap) .. 4s) = [3s - overlap .. 4s). Its first
        // `s` positions feed output second covering absolute samples
        // [3s - overlap .. 4s - overlap).
        let streamed = dedisperse(&plan, window.window()).unwrap();

        // Offline: build the same absolute slice directly.
        let start = 3 * s - window.overlap();
        let mut offline_in = InputBuffer::for_plan(&plan);
        for (ch, chan) in signal.iter().enumerate().take(plan.channels()) {
            offline_in
                .channel_mut(ch)
                .copy_from_slice(&chan[start..start + plan.in_samples()]);
        }
        let offline = dedisperse(&plan, &offline_in).unwrap();
        assert_eq!(streamed.max_abs_diff(&offline), 0.0);
    }

    #[test]
    fn warmup_accounting() {
        let plan = plan();
        let mut window = StreamWindow::for_plan(&plan);
        assert!(window.overlap() > 0);
        assert!(!window.warmed_up() || window.overlap() == 0);
        let zeros = vec![vec![0.0f32; plan.out_samples()]; plan.channels()];
        let blocks: Vec<&[f32]> = zeros.iter().map(Vec::as_slice).collect();
        // One second of 100 samples exceeds the small overlap here.
        window.push_second(&blocks).unwrap();
        assert!(window.warmed_up());
    }

    #[test]
    fn shape_errors() {
        let plan = plan();
        let mut window = StreamWindow::for_plan(&plan);
        let short = vec![vec![0.0f32; 3]; plan.channels()];
        let blocks: Vec<&[f32]> = short.iter().map(Vec::as_slice).collect();
        assert!(window.push_second(&blocks).is_err());
        let wrong_channels = vec![vec![0.0f32; plan.out_samples()]; 2];
        let blocks: Vec<&[f32]> = wrong_channels.iter().map(Vec::as_slice).collect();
        assert!(window.push_second(&blocks).is_err());
    }

    #[test]
    fn history_shifts_correctly() {
        let plan = plan();
        let mut window = StreamWindow::for_plan(&plan);
        let s = plan.out_samples();
        // Push a recognizable ramp twice; the first push's tail must
        // appear at the start of the window after the second push.
        let first: Vec<Vec<f32>> = (0..plan.channels())
            .map(|ch| (0..s).map(|i| (ch * 1000 + i) as f32).collect())
            .collect();
        let second: Vec<Vec<f32>> = (0..plan.channels())
            .map(|ch| (0..s).map(|i| (ch * 1000 + 500 + i) as f32).collect())
            .collect();
        window
            .push_second(&first.iter().map(Vec::as_slice).collect::<Vec<_>>())
            .unwrap();
        window
            .push_second(&second.iter().map(Vec::as_slice).collect::<Vec<_>>())
            .unwrap();
        let ov = window.overlap();
        for ch in 0..plan.channels() {
            let row = window.window().channel(ch);
            // Window = last `ov` samples of `first` followed by `second`.
            assert_eq!(row[0], first[ch][s - ov]);
            assert_eq!(row[ov], second[ch][0]);
            assert_eq!(row[ov + s - 1], second[ch][s - 1]);
        }
    }
}
