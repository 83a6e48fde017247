//! Per-beam stream feeding: raw seconds in, dedispersable chunks out.
//!
//! A telescope backend delivers each beam as a stream of one-second
//! channelized blocks (`channels × s` samples), but dedispersing a
//! second needs `s + max_delay` samples of context. [`BeamFeeder`]
//! converts raw seconds into the overlapped [`Chunk`]s the
//! [`StreamingPipeline`](crate::pipeline::StreamingPipeline) consumes —
//! the glue between an acquisition stage and the dedispersion workers.
//!
//! # One copy per sample
//!
//! A chunk owns its samples (workers dedisperse it while later seconds
//! are pushed), so every chunk is one fresh allocation. The feeder keeps
//! only what the next chunk reuses: per beam, the newest `overlap =
//! in_samples − out_samples` samples of every channel (the `max_delay`
//! context), zeros before enough seconds have arrived. A push writes
//! `[tail | fresh]` straight into the new chunk, channel by channel, and
//! then moves the tail on by the pushed second: `in_samples + overlap`
//! samples copied per channel. A rolling
//! [`StreamWindow`](dedisp_core::StreamWindow) cloned per chunk would
//! copy `2 × in_samples` — the window's shift, then the clone. Every
//! chunk equals that window's [`window`](dedisp_core::StreamWindow::window)
//! after the same pushes, the zero-filled cold start included; the
//! window is the feeder's test oracle (`tests/feeder_window.rs`).
//!
//! # Sizing an upstream capture ring
//!
//! The overlap is also the contract an acquisition stage must honor:
//! the feeder emits nothing for the first `ceil(max_delay / s)`
//! seconds (the warm-up, while the chunk would still contain the
//! zero-filled cold start), so a capture ring buffering raw seconds
//! ahead of the feeder must survive those warm-up seconds *plus* the
//! second being pushed without evicting — `1 + ceil(overlap /
//! out_samples)` blocks per beam. That constant lives in
//! [`dedisp_fleet::capture::ring::min_capacity_blocks`] (see DESIGN.md
//! §13); the tests below assert this module and the capture ring agree
//! on it, so the two layers cannot drift apart silently.

use dedisp_core::stream::check_second;
use dedisp_core::{DedispError, DedispersionPlan, InputBuffer, Result};

use crate::pipeline::Chunk;

/// Converts raw per-beam seconds into overlapped pipeline chunks.
pub struct BeamFeeder {
    channels: usize,
    out_samples: usize,
    overlap: usize,
    beams: Vec<Beam>,
}

/// One beam's carried state.
struct Beam {
    /// The newest `overlap` samples of each channel, channel-major.
    tail: Vec<f32>,
    seconds_pushed: u64,
    seconds_emitted: u64,
}

impl BeamFeeder {
    /// Creates a feeder for `beams` independent beams of `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `beams` is zero.
    pub fn new(plan: std::sync::Arc<DedispersionPlan>, beams: usize) -> Self {
        assert!(beams > 0, "need at least one beam");
        let overlap = plan.in_samples() - plan.out_samples();
        let beam = || Beam {
            tail: vec![0.0; plan.channels() * overlap],
            seconds_pushed: 0,
            seconds_emitted: 0,
        };
        Self {
            channels: plan.channels(),
            out_samples: plan.out_samples(),
            overlap,
            beams: (0..beams).map(|_| beam()).collect(),
        }
    }

    /// Number of beams.
    pub fn beams(&self) -> usize {
        self.beams.len()
    }

    /// Pushes one raw second (`fresh[ch]` of exactly `out_samples`
    /// values) for `beam` and returns the dedispersable chunk — `None`
    /// while the beam is still warming up (the first
    /// `ceil(max_delay / s)` seconds, whose output would include the
    /// zero-filled cold start).
    ///
    /// # Errors
    ///
    /// Returns [`DedispError::InvalidParameter`] if `beam` is out of
    /// range, and a shape error for wrong channel counts or block
    /// lengths; the feeder is unchanged by a rejected push.
    pub fn push_second(&mut self, beam: usize, fresh: &[&[f32]]) -> Result<Option<Chunk>> {
        let (s, overlap) = (self.out_samples, self.overlap);
        let beams = self.beams.len();
        let state = self.beams.get_mut(beam).ok_or_else(|| {
            DedispError::invalid("beam", format!("beam {beam} of a {beams}-beam feeder"))
        })?;
        check_second(fresh, self.channels, s)?;
        state.seconds_pushed += 1;
        // Whether the pushed seconds cover the overlap.
        let warmed_up = state.seconds_pushed as u128 * s as u128 >= overlap as u128;
        let chunk = if warmed_up {
            let mut data = Vec::with_capacity(self.channels * (overlap + s));
            for (ch, block) in fresh.iter().enumerate() {
                data.extend_from_slice(&state.tail[ch * overlap..][..overlap]);
                data.extend_from_slice(block);
            }
            let data = InputBuffer::from_vec(self.channels, overlap + s, data)
                .expect("channels rows of overlap + s samples");
            let second = state.seconds_emitted;
            state.seconds_emitted += 1;
            Some(Chunk { beam, second, data })
        } else {
            None
        };
        // The new tail is the newest `overlap` samples of `[tail | fresh]`.
        let kept = overlap.saturating_sub(s);
        for (ch, block) in fresh.iter().enumerate() {
            let tail = &mut state.tail[ch * overlap..][..overlap];
            tail.copy_within(overlap - kept.., 0);
            tail[kept..].copy_from_slice(&block[s - (overlap - kept)..]);
        }
        Ok(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand};
    use std::sync::Arc;

    fn plan() -> Arc<DedispersionPlan> {
        Arc::new(
            DedispersionPlan::builder()
                .band(FrequencyBand::new(140.0, 0.5, 8).unwrap())
                .dm_grid(DmGrid::new(0.0, 2.0, 6).unwrap())
                .sample_rate(100)
                .build()
                .unwrap(),
        )
    }

    fn second(plan: &DedispersionPlan, value: f32) -> Vec<Vec<f32>> {
        vec![vec![value; plan.out_samples()]; plan.channels()]
    }

    #[test]
    fn warms_up_then_emits_sequenced_chunks() {
        let plan = plan();
        assert!(plan.in_samples() > plan.out_samples(), "needs overlap");
        let mut feeder = BeamFeeder::new(Arc::clone(&plan), 2);
        assert_eq!(feeder.beams(), 2);

        let blocks = second(&plan, 1.0);
        let refs: Vec<&[f32]> = blocks.iter().map(Vec::as_slice).collect();

        // 100-sample seconds with a sub-second max delay: the first push
        // already warms the window up.
        let chunk = feeder.push_second(0, &refs).unwrap();
        let chunk = chunk.expect("warmed up after one second here");
        assert_eq!(chunk.beam, 0);
        assert_eq!(chunk.second, 0);
        assert_eq!(chunk.data.channels(), plan.channels());
        assert_eq!(chunk.data.samples(), plan.in_samples());

        let chunk = feeder.push_second(0, &refs).unwrap().unwrap();
        assert_eq!(chunk.second, 1);
        // The other beam has its own sequence.
        let chunk = feeder.push_second(1, &refs).unwrap().unwrap();
        assert_eq!(chunk.beam, 1);
        assert_eq!(chunk.second, 0);
    }

    #[test]
    fn chunks_carry_the_overlap() {
        let plan = plan();
        let mut feeder = BeamFeeder::new(Arc::clone(&plan), 1);
        let first = second(&plan, 1.0);
        let refs: Vec<&[f32]> = first.iter().map(Vec::as_slice).collect();
        feeder.push_second(0, &refs).unwrap();
        let next = second(&plan, 2.0);
        let refs: Vec<&[f32]> = next.iter().map(Vec::as_slice).collect();
        let chunk = feeder.push_second(0, &refs).unwrap().unwrap();
        let overlap = plan.in_samples() - plan.out_samples();
        // The chunk starts with the tail of the previous second.
        assert!(chunk.data.channel(0)[..overlap].iter().all(|&v| v == 1.0));
        assert!(chunk.data.channel(0)[overlap..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn capture_ring_sizing_matches_the_feeder_overlap() {
        use dedisp_fleet::capture::ring::min_capacity_blocks;
        let plan = plan();
        let overlap = plan.in_samples() - plan.out_samples();
        let capacity = min_capacity_blocks(plan.out_samples(), overlap);
        // The ring rule holds enough whole blocks to cover one full
        // dedispersion window (current second + its overlap context).
        assert!(
            capacity * plan.out_samples() >= plan.in_samples(),
            "a min-sized ring must cover the feeder's window"
        );
        // And it is exactly the warm-up rule plus the current second:
        // the feeder withholds ceil(overlap / s) seconds, the ring
        // holds them plus one.
        assert_eq!(capacity, 1 + overlap.div_ceil(plan.out_samples()));
        // For this sub-second-delay plan that is two blocks: the first
        // push warms the window up, the second streams.
        assert_eq!(capacity, 2);
        let mut feeder = BeamFeeder::new(Arc::clone(&plan), 1);
        let blocks = second(&plan, 1.0);
        let refs: Vec<&[f32]> = blocks.iter().map(Vec::as_slice).collect();
        let mut pushes = 0;
        while feeder.push_second(0, &refs).unwrap().is_none() {
            pushes += 1;
        }
        assert!(
            pushes < capacity,
            "the warm-up ({pushes} withheld seconds + 1) must fit the min-sized ring"
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let plan = plan();
        let mut feeder = BeamFeeder::new(plan, 1);
        let bad = vec![vec![0.0f32; 3]; 8];
        let refs: Vec<&[f32]> = bad.iter().map(Vec::as_slice).collect();
        assert!(feeder.push_second(0, &refs).is_err());
    }

    #[test]
    fn an_out_of_range_beam_is_an_error_that_changes_nothing() {
        let plan = plan();
        let mut feeder = BeamFeeder::new(Arc::clone(&plan), 2);
        let blocks = second(&plan, 1.0);
        let refs: Vec<&[f32]> = blocks.iter().map(Vec::as_slice).collect();
        for beam in [2, 3, usize::MAX] {
            let err = feeder.push_second(beam, &refs).err();
            assert!(
                matches!(
                    err,
                    Some(DedispError::InvalidParameter { name: "beam", .. })
                ),
                "beam {beam}: {err:?}"
            );
        }
        // The two real beams still start at second 0.
        for beam in 0..2 {
            let chunk = feeder.push_second(beam, &refs).unwrap().unwrap();
            assert_eq!((chunk.beam, chunk.second), (beam, 0));
        }
    }
}
