//! The lock-bounded per-beam ring buffer.
//!
//! A [`CaptureRing`] holds the channelized blocks that have arrived but
//! not yet been drained into fleet load, one bounded queue per beam,
//! all under one mutex (capture pushes and the drain tick are the only
//! writers — the lock is short and uncontended, and the *bound* is the
//! point: the ring's total byte footprint can never exceed
//! [`CaptureRing::byte_bound`], no matter what the arrival process
//! does).
//!
//! Capacity is expressed in **seconds of filterbank data**: a
//! [`BlockFormat`] prices one second of one beam in bytes using exactly
//! the [`radioastro::Filterbank`] framing (channels × samples × 4-byte
//! f32 samples), and a beam's ring holds `capacity_blocks` of those.
//! The same framing drives the dedispersion consumer's overlap math
//! (`StreamWindow` / `BeamFeeder` in the repro crate): a consumer needs
//! `ceil(overlap / out_samples)` warm-up seconds before its first
//! output, so a ring that feeds one must hold at least
//! [`min_capacity_blocks`] blocks or the warm-up itself would evict
//! live data. See DESIGN.md §13 for the shared constants.

use super::policy::{BackpressurePolicy, CaptureDropCause};
use crate::descriptor::FleetError;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Bytes per stored sample — the `f32` little-endian samples of the
/// [`radioastro::Filterbank`] binary framing.
pub const BYTES_PER_SAMPLE: usize = 4;

/// The framing of one captured block: one second of one beam's
/// channelized data, priced exactly as [`radioastro::Filterbank`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFormat {
    /// Frequency channels per block.
    pub channels: usize,
    /// Time samples per block (one period's worth).
    pub samples: usize,
}

impl BlockFormat {
    /// A format of `channels × samples`.
    pub fn new(channels: usize, samples: usize) -> Self {
        Self { channels, samples }
    }

    /// Bytes one block occupies in the ring (packed f32 samples, as in
    /// the filterbank binary encoding's payload).
    pub fn bytes_per_block(&self) -> usize {
        self.channels * self.samples * BYTES_PER_SAMPLE
    }
}

/// Minimum ring capacity, in blocks, for a dedispersion consumer whose
/// rolling window carries `overlap` samples of history per
/// `out_samples`-sample block.
///
/// This is the capture-side mirror of the `BeamFeeder` warm-up rule
/// (`src/feeder.rs` in the repro crate): the feeder withholds output
/// for the first `ceil(overlap / out_samples)` seconds while its
/// `StreamWindow` fills with real history, so a ring feeding it must
/// hold those warm-up seconds *plus* the current second without
/// evicting. Keep the two in sync through this function — the repro
/// crate's feeder tests assert against it.
///
/// # Panics
///
/// Panics if `out_samples` is zero.
pub fn min_capacity_blocks(out_samples: usize, overlap: usize) -> usize {
    assert!(out_samples > 0, "a block must contain at least one sample");
    1 + overlap.div_ceil(out_samples)
}

/// The fidelity a block was stored at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Stored as it arrived.
    Full,
    /// Stored at half byte size ([`BackpressurePolicy::Downsample2x`]).
    Downsampled,
    /// Stored full-size but marked for a narrowed DM plan
    /// ([`BackpressurePolicy::NarrowDmPlan`]).
    Narrowed,
}

impl Fidelity {
    /// Whether the block was degraded at capture.
    pub fn is_degraded(self) -> bool {
        self != Fidelity::Full
    }
}

/// One block held in (or evicted from) the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredBlock {
    /// Beam the block belongs to.
    pub beam: usize,
    /// Per-beam arrival sequence number.
    pub seq: u64,
    /// Arrival timestamp, virtual seconds.
    pub at: f64,
    /// Bytes the block occupies in the ring.
    pub bytes: usize,
    /// The fidelity it was stored at.
    pub fidelity: Fidelity,
}

/// What one push did: the stored fidelity plus everything the push had
/// to evict to respect the byte bound.
#[derive(Debug, Clone, PartialEq)]
pub struct PushReport {
    /// Fidelity the incoming block was stored at.
    pub stored: Fidelity,
    /// Blocks evicted (oldest-first) to make room, with the cause.
    pub evicted: Vec<(StoredBlock, CaptureDropCause)>,
}

struct BeamRing {
    blocks: VecDeque<StoredBlock>,
    bytes: usize,
}

struct RingState {
    beams: Vec<BeamRing>,
    total_bytes: usize,
    peak_bytes: usize,
}

/// The bounded per-beam block store.
///
/// All mutation goes through [`CaptureRing::push`] and
/// [`CaptureRing::drain_oldest`]; both uphold the invariant that no
/// beam ever holds more than `capacity_blocks` seconds of full-rate
/// data in bytes, so the whole ring never exceeds
/// [`CaptureRing::byte_bound`].
pub struct CaptureRing {
    bytes_per_block: usize,
    capacity_bytes: usize,
    watermark_bytes: usize,
    policy: BackpressurePolicy,
    state: Mutex<RingState>,
}

impl CaptureRing {
    /// A ring of `beams` queues, each bounded to `capacity_blocks`
    /// full-rate blocks of `format`, consulting `policy` above
    /// `high_watermark` (a fraction of the per-beam byte capacity).
    ///
    /// # Errors
    ///
    /// Returns a [`FleetError`] for zero beams, a zero-byte format,
    /// zero capacity, or a watermark outside `(0, 1]`.
    pub fn new(
        beams: usize,
        format: BlockFormat,
        capacity_blocks: usize,
        high_watermark: f64,
        policy: BackpressurePolicy,
    ) -> Result<Self, FleetError> {
        if beams == 0 {
            return Err(FleetError::new("capture ring needs at least one beam"));
        }
        let bytes_per_block = format.bytes_per_block();
        if bytes_per_block == 0 {
            return Err(FleetError::new("capture block format prices to zero bytes"));
        }
        if capacity_blocks == 0 {
            return Err(FleetError::new(
                "capture ring capacity must be at least one block",
            ));
        }
        if !(high_watermark > 0.0 && high_watermark <= 1.0) {
            return Err(FleetError::new(
                "capture high watermark must be a fraction in (0, 1]",
            ));
        }
        if let BackpressurePolicy::NarrowDmPlan { tiers } = policy {
            if tiers == 0 {
                return Err(FleetError::new("NarrowDmPlan must shed at least one tier"));
            }
        }
        let capacity_bytes = capacity_blocks * bytes_per_block;
        let watermark_bytes = ((capacity_bytes as f64) * high_watermark).ceil() as usize;
        Ok(Self {
            bytes_per_block,
            capacity_bytes,
            watermark_bytes,
            policy,
            state: Mutex::new(RingState {
                beams: (0..beams)
                    .map(|_| BeamRing {
                        blocks: VecDeque::new(),
                        bytes: 0,
                    })
                    .collect(),
                total_bytes: 0,
                peak_bytes: 0,
            }),
        })
    }

    /// Number of beams.
    pub fn beams(&self) -> usize {
        self.state.lock().beams.len()
    }

    /// The hard bound: bytes the whole ring can never exceed.
    pub fn byte_bound(&self) -> usize {
        self.beams() * self.capacity_bytes
    }

    /// Bytes one full-rate block occupies.
    pub fn bytes_per_block(&self) -> usize {
        self.bytes_per_block
    }

    /// Current total footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.state.lock().total_bytes
    }

    /// High-water footprint in bytes over the ring's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.state.lock().peak_bytes
    }

    /// Blocks currently buffered across all beams.
    pub fn backlog_blocks(&self) -> usize {
        self.state.lock().beams.iter().map(|b| b.blocks.len()).sum()
    }

    /// Whether every beam's queue is empty.
    pub fn is_empty(&self) -> bool {
        self.state.lock().beams.iter().all(|b| b.blocks.is_empty())
    }

    /// Pushes one arrived block for `beam`, consulting the
    /// backpressure policy at the high-watermark and evicting (loudly,
    /// in the report) whatever the hard byte bound requires.
    ///
    /// # Panics
    ///
    /// Panics if `beam` is out of range — the session validates beam
    /// indices before they reach the ring.
    pub fn push(&self, beam: usize, seq: u64, at: f64) -> PushReport {
        let mut state = self.state.lock();
        let RingState {
            beams,
            total_bytes,
            peak_bytes,
        } = &mut *state;
        let ring = &mut beams[beam];
        // Above the watermark (counting the incoming block), the
        // policy chooses the degradation; DropOldest waits for the
        // hard bound.
        let mut bytes = self.bytes_per_block;
        let mut fidelity = Fidelity::Full;
        if ring.bytes + bytes > self.watermark_bytes {
            match self.policy {
                BackpressurePolicy::DropOldest => {}
                BackpressurePolicy::Downsample2x => {
                    bytes = (self.bytes_per_block / 2).max(1);
                    fidelity = Fidelity::Downsampled;
                }
                BackpressurePolicy::NarrowDmPlan { .. } => {
                    fidelity = Fidelity::Narrowed;
                }
            }
        }
        // The hard bound: evict oldest-first until the block fits.
        let cause = match self.policy {
            BackpressurePolicy::DropOldest => CaptureDropCause::Evicted,
            _ => CaptureDropCause::Overflow,
        };
        let mut evicted = Vec::new();
        while ring.bytes + bytes > self.capacity_bytes {
            let old = ring
                .blocks
                .pop_front()
                .expect("capacity holds at least one block, so an over-full ring is non-empty");
            ring.bytes -= old.bytes;
            *total_bytes -= old.bytes;
            evicted.push((old, cause));
        }
        ring.blocks.push_back(StoredBlock {
            beam,
            seq,
            at,
            bytes,
            fidelity,
        });
        ring.bytes += bytes;
        *total_bytes += bytes;
        *peak_bytes = (*peak_bytes).max(*total_bytes);
        PushReport {
            stored: fidelity,
            evicted,
        }
    }

    /// Removes and returns up to `max_blocks` blocks, globally
    /// oldest-first (ordered by arrival time, then beam, then
    /// sequence) — the deterministic drain order the capture session
    /// turns into fleet load.
    pub fn drain_oldest(&self, max_blocks: usize) -> Vec<StoredBlock> {
        let mut state = self.state.lock();
        let mut out = Vec::new();
        while out.len() < max_blocks {
            let next = state
                .beams
                .iter()
                .enumerate()
                .filter_map(|(b, ring)| ring.blocks.front().map(|blk| (b, blk)))
                .min_by(|(ba, a), (bb, b)| {
                    a.at.total_cmp(&b.at)
                        .then(ba.cmp(bb))
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(b, _)| b);
            let Some(beam) = next else { break };
            let ring = &mut state.beams[beam];
            let block = ring.blocks.pop_front().expect("front just observed");
            ring.bytes -= block.bytes;
            state.total_bytes -= block.bytes;
            out.push(block);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(policy: BackpressurePolicy, capacity_blocks: usize, watermark: f64) -> CaptureRing {
        CaptureRing::new(
            2,
            BlockFormat::new(4, 25),
            capacity_blocks,
            watermark,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn format_prices_like_a_filterbank_payload() {
        let format = BlockFormat::new(8, 100);
        // 8 channels × 100 samples × 4-byte f32 — the filterbank
        // payload size for one second.
        assert_eq!(format.bytes_per_block(), 3200);
    }

    #[test]
    fn min_capacity_matches_the_feeder_warmup_rule() {
        // Sub-second max delay: one warm-up second plus the current one.
        assert_eq!(min_capacity_blocks(100, 7), 2);
        // Exactly one second of overlap still needs one warm-up push.
        assert_eq!(min_capacity_blocks(100, 100), 2);
        // 2.5 seconds of delay: three warm-up seconds buffered.
        assert_eq!(min_capacity_blocks(100, 250), 4);
        // No overlap: only the current second.
        assert_eq!(min_capacity_blocks(100, 0), 1);
    }

    #[test]
    fn drop_oldest_evicts_only_at_the_bound_and_keeps_the_newest() {
        let ring = ring(BackpressurePolicy::DropOldest, 2, 0.5);
        let a = ring.push(0, 0, 0.1);
        let b = ring.push(0, 1, 0.2);
        assert!(a.evicted.is_empty() && b.evicted.is_empty());
        assert_eq!(b.stored, Fidelity::Full, "DropOldest never degrades");
        let c = ring.push(0, 2, 0.3);
        assert_eq!(c.evicted.len(), 1);
        let (old, cause) = c.evicted[0];
        assert_eq!(old.seq, 0, "the oldest block goes first");
        assert_eq!(cause, CaptureDropCause::Evicted);
        assert_eq!(ring.backlog_blocks(), 2);
        assert!(ring.bytes() <= ring.byte_bound());
    }

    #[test]
    fn downsample_halves_blocks_above_the_watermark() {
        let ring = ring(BackpressurePolicy::Downsample2x, 4, 0.5);
        assert_eq!(ring.push(0, 0, 0.0).stored, Fidelity::Full);
        assert_eq!(ring.push(0, 1, 0.1).stored, Fidelity::Full);
        // Third block crosses 50% of 4 blocks: stored at half size.
        let third = ring.push(0, 2, 0.2);
        assert_eq!(third.stored, Fidelity::Downsampled);
        assert!(third.evicted.is_empty());
        let full = ring.bytes_per_block();
        assert_eq!(ring.bytes(), 2 * full + full / 2);
    }

    #[test]
    fn downsampled_blocks_double_survival_before_overflow() {
        let ring = ring(BackpressurePolicy::Downsample2x, 2, 0.5);
        // Watermark at one block: the first stores full-rate, every
        // later block is halved, so the halved tail fits where two
        // full-rate blocks would — only the full first block must go.
        let mut evictions = 0;
        for seq in 0..4 {
            evictions += ring.push(0, seq, seq as f64 * 0.1).evicted.len();
        }
        assert_eq!(evictions, 1, "only the full-rate first block is pushed out");
        assert!(ring.bytes() <= ring.byte_bound());
    }

    #[test]
    fn narrow_marks_blocks_and_overflow_drops_are_loud() {
        let ring = ring(BackpressurePolicy::NarrowDmPlan { tiers: 2 }, 2, 0.5);
        assert_eq!(ring.push(0, 0, 0.0).stored, Fidelity::Full);
        let second = ring.push(0, 1, 0.1);
        assert_eq!(second.stored, Fidelity::Narrowed);
        let third = ring.push(0, 2, 0.2);
        assert_eq!(third.stored, Fidelity::Narrowed);
        assert_eq!(third.evicted.len(), 1);
        assert_eq!(third.evicted[0].1, CaptureDropCause::Overflow);
    }

    #[test]
    fn drain_is_globally_oldest_first_across_beams() {
        let ring = ring(BackpressurePolicy::DropOldest, 4, 1.0);
        ring.push(1, 0, 0.1);
        ring.push(0, 0, 0.2);
        ring.push(1, 1, 0.3);
        let drained = ring.drain_oldest(2);
        assert_eq!(
            drained.iter().map(|b| (b.beam, b.seq)).collect::<Vec<_>>(),
            vec![(1, 0), (0, 0)]
        );
        assert_eq!(ring.backlog_blocks(), 1);
        let rest = ring.drain_oldest(10);
        assert_eq!(rest.len(), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.bytes(), 0);
        // Peak remembers the high water even after a full drain.
        assert_eq!(ring.peak_bytes(), 3 * ring.bytes_per_block());
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let format = BlockFormat::new(4, 25);
        assert!(CaptureRing::new(0, format, 2, 0.5, BackpressurePolicy::DropOldest).is_err());
        assert!(CaptureRing::new(2, format, 0, 0.5, BackpressurePolicy::DropOldest).is_err());
        assert!(CaptureRing::new(2, format, 2, 0.0, BackpressurePolicy::DropOldest).is_err());
        assert!(CaptureRing::new(2, format, 2, 1.5, BackpressurePolicy::DropOldest).is_err());
        assert!(CaptureRing::new(
            2,
            BlockFormat::new(0, 25),
            2,
            0.5,
            BackpressurePolicy::DropOldest
        )
        .is_err());
        assert!(CaptureRing::new(
            2,
            format,
            2,
            0.5,
            BackpressurePolicy::NarrowDmPlan { tiers: 0 }
        )
        .is_err());
    }
}
