//! The configuration-specialized tiled kernel (paper, Section III-B).
//!
//! The problem is decomposed into two-dimensional work-group tiles of
//! `tile_dm` trial DMs × `tile_time` samples, and the paper's two
//! mechanisms are mapped onto a CPU core as follows.
//!
//! * **Accumulators stay in registers.** A work-item keeps its
//!   `el_time × el_dm` partial sums in registers for the whole channel
//!   loop. Here a *micro-tile* of [`MICRO_DM`] trials × [`MICRO_TIME`]
//!   samples (eight vector registers; twice the samples with 256-bit
//!   lanes) stays in registers while a block of [`CHANNEL_BLOCK`]
//!   channels is summed into it: one unaligned load per vector add, no
//!   store in the loop. The partial sums touch the output row only
//!   between channel blocks. A tail narrower than the micro-tile steps
//!   down to micro-tiles of 4 and then 1 samples, a strip's odd last
//!   trial to a one-trial micro-tile — never to a loop of another
//!   shape.
//! * **A tile's input is fetched once.** Neighbouring trials of a
//!   micro-tile read overlapping spans of the same channel, so they hit
//!   the same cache lines; one channel block of one work-group tile fits
//!   the L1 cache; and inside a slab tiles are visited *time-major* —
//!   every DM strip of one time tile before the next time tile — so the
//!   `channels × (tile_time + delay spread)` input of a time tile stays
//!   in the L2 cache across the slab's trials instead of being streamed
//!   again for every strip.
//! * **Output is finished a slab at a time.** A *slab* is the run of
//!   whole DM strips whose output rows fit [`SLAB_BYTES`] of L2
//!   ([`slab_rows`]: derived from the plan and the tile, not set by
//!   anyone). Slabs are the outermost loop, so a slab's rows are complete
//!   — and still cached — before the next slab is begun, which is what
//!   lets [`Dedisperser::dedisperse_slabs`] hand them to a consumer
//!   without the full plane ever existing. With long rows (LOFAR) a slab
//!   is one strip and the order is strip-major; with short rows
//!   (Apertif) a slab is many strips and the order is time-major as
//!   before.
//!
//! Every output element is still the sum of its channels in ascending
//! order, starting from zero, so results equal [`NaiveKernel`]'s bit for
//! bit; vector lanes only ever add, and lane width cannot change a bit.
//! The loop nest is written once ([`band_body`]) and compiled twice on
//! x86-64: for the baseline target and, selected at run time by
//! [`Isa::detect`], for AVX2.
//!
//! [`NaiveKernel`]: crate::kernel::NaiveKernel

use std::ops::Range;

use crate::buffer::{InputBuffer, OutputBuffer};
use crate::config::KernelConfig;
use crate::error::Result;
use crate::kernel::{Dedisperser, SlabSink};
use crate::plan::DedispersionPlan;

/// Single-threaded execution of the tiled many-core algorithm.
#[derive(Debug, Clone, Copy)]
pub struct TiledKernel {
    config: KernelConfig,
}

impl TiledKernel {
    /// Creates a tiled kernel specialized for `config`.
    pub fn new(config: KernelConfig) -> Self {
        Self { config }
    }

    /// The configuration this kernel was specialized for.
    pub fn config(&self) -> KernelConfig {
        self.config
    }
}

impl Dedisperser for TiledKernel {
    fn name(&self) -> &'static str {
        "tiled"
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
        dedisperse_band(
            Isa::detect(),
            plan,
            input,
            &self.config,
            0..plan.trials(),
            Slabs::InPlace(output.as_mut_slice()),
        );
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
        sink_band(
            Isa::detect(),
            plan,
            input,
            &self.config,
            0..plan.trials(),
            sink,
        );
        Ok(())
    }
}

/// Trials per micro-tile.
const MICRO_DM: usize = 2;
/// Samples per micro-tile on the baseline target: four 128-bit vectors
/// per trial, so eight accumulator registers and as many independent add
/// chains. The AVX2 instantiation keeps the eight registers and doubles
/// the samples.
const MICRO_TIME: usize = 16;
/// Channels summed in registers before the partial sums are written to
/// the output row. 32 channels of a `tile_time`-wide span fit the L1
/// cache, and the spill costs one load and one store per 32 adds.
const CHANNEL_BLOCK: usize = 32;
/// Output bytes per slab: half of a 2 MB L2, so a finished slab is still
/// cached when its consumer reads it and the input of a time tile keeps
/// the other half. Anywhere in 1–4 MB measures the same (DESIGN.md §19),
/// which is why this is a constant.
const SLAB_BYTES: usize = 1 << 20;

/// Rows per slab: the whole DM strips whose output rows fit
/// [`SLAB_BYTES`], at least one strip.
pub(crate) fn slab_rows(plan: &DedispersionPlan, config: &KernelConfig) -> usize {
    let tile_dm = config.tile_dm() as usize;
    let fit = SLAB_BYTES / (plan.out_samples() * std::mem::size_of::<f32>());
    (fit / tile_dm).max(1) * tile_dm
}

/// Where the slabs of a band are written.
pub(crate) enum Slabs<'a> {
    /// One after another: the band's rows of an output buffer
    /// (`n × out_samples`, trial-major).
    InPlace(&'a mut [f32]),
    /// Every slab into the same scratch of [`slab_rows`] rows, handed to
    /// the sink once complete.
    Sink(&'a mut [f32], &'a SlabSink<'a>),
}

/// The instruction sets [`band_body`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The build's baseline target.
    Portable,
    /// 256-bit lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The widest instantiation this host can run.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// Dedisperses the contiguous band `trials` into `out`, one slab after
/// another. Every element of every slab is overwritten.
///
/// This is the body shared by [`TiledKernel`] (one band: every trial)
/// and the parallel kernel (one band per worker), and by
/// [`Dedisperser::dedisperse`] and [`Dedisperser::dedisperse_slabs`].
pub(crate) fn dedisperse_band(
    isa: Isa,
    plan: &DedispersionPlan,
    input: &InputBuffer,
    config: &KernelConfig,
    trials: Range<usize>,
    out: Slabs<'_>,
) {
    match isa {
        Isa::Portable => band_body::<MICRO_TIME>(plan, input, config, trials, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced by `Isa::detect`,
        // after `is_x86_feature_detected!("avx2")`.
        Isa::Avx2 => unsafe { band_avx2(plan, input, config, trials, out) },
    }
}

/// [`dedisperse_band`] into a scratch allocated here, for `sink`.
pub(crate) fn sink_band(
    isa: Isa,
    plan: &DedispersionPlan,
    input: &InputBuffer,
    config: &KernelConfig,
    trials: Range<usize>,
    sink: &SlabSink<'_>,
) {
    let rows = slab_rows(plan, config).min(trials.len());
    let mut scratch = vec![0.0; rows * plan.out_samples()];
    let out = Slabs::Sink(&mut scratch, sink);
    dedisperse_band(isa, plan, input, config, trials, out);
}

/// [`band_body`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(
    plan: &DedispersionPlan,
    input: &InputBuffer,
    config: &KernelConfig,
    trials: Range<usize>,
    out: Slabs<'_>,
) {
    band_body::<{ 2 * MICRO_TIME }>(plan, input, config, trials, out);
}

/// The one loop nest, outer half: the slabs of a band.
#[inline(always)]
fn band_body<const W: usize>(
    plan: &DedispersionPlan,
    input: &InputBuffer,
    config: &KernelConfig,
    trials: Range<usize>,
    mut out: Slabs<'_>,
) {
    let out_samples = plan.out_samples();
    let tile = Tile {
        data: input.as_slice(),
        in_samples: input.samples(),
        out_samples,
    };
    let height = slab_rows(plan, config);
    for lo in trials.clone().step_by(height) {
        let len = (height.min(trials.end - lo)) * out_samples;
        let slab = match &mut out {
            Slabs::InPlace(rows) => &mut rows[(lo - trials.start) * out_samples..][..len],
            Slabs::Sink(scratch, _) => {
                let slab = &mut scratch[..len];
                if cfg!(debug_assertions) {
                    // What the previous slab left must not be able to
                    // stand in for an element this one fails to write.
                    slab.fill(f32::NAN);
                }
                slab
            }
        };
        tile.slab::<W>(plan, config, lo, slab);
        if let Slabs::Sink(scratch, sink) = &out {
            sink(lo, &scratch[..len]);
        }
    }
}

/// What every micro-tile of a band reads: the flat input and the two
/// row pitches.
#[derive(Clone, Copy)]
struct Tile<'a> {
    data: &'a [f32],
    in_samples: usize,
    out_samples: usize,
}

impl Tile<'_> {
    /// The one loop nest, inner half: time tiles, DM strips, channel
    /// blocks and micro-tiles of the slab whose first trial is `trial_lo`
    /// and whose rows are `rows`.
    #[inline(always)]
    fn slab<const W: usize>(
        self,
        plan: &DedispersionPlan,
        config: &KernelConfig,
        trial_lo: usize,
        rows: &mut [f32],
    ) {
        let out_samples = self.out_samples;
        let channels = plan.channels();
        let tile_time = config.tile_time() as usize;
        let tile_dm = config.tile_dm() as usize;
        let n_trials = rows.len() / out_samples;
        debug_assert_eq!(rows.len(), n_trials * out_samples);

        for t0 in (0..out_samples).step_by(tile_time) {
            let t1 = (t0 + tile_time).min(out_samples);
            for strip_lo in (0..n_trials).step_by(tile_dm) {
                let strip_hi = (strip_lo + tile_dm).min(n_trials);
                for c0 in (0..channels).step_by(CHANNEL_BLOCK) {
                    let block = c0..(c0 + CHANNEL_BLOCK).min(channels);
                    let mut tr = strip_lo;
                    while tr < strip_hi {
                        let out = &mut rows[tr * out_samples..];
                        let trial = trial_lo + tr;
                        if tr + MICRO_DM <= strip_hi {
                            self.trials::<MICRO_DM, W>(plan, trial, block.clone(), t0..t1, out);
                            tr += MICRO_DM;
                        } else {
                            self.trials::<1, W>(plan, trial, block.clone(), t0..t1, out);
                            tr += 1;
                        }
                    }
                }
            }
        }
    }

    /// Sums the channels of `block` into the samples `time` of the `R`
    /// trials starting at `trial`, whose output rows start at `out`: full
    /// micro-tiles first, then ever narrower ones for the tail.
    #[inline(always)]
    fn trials<const R: usize, const W: usize>(
        self,
        plan: &DedispersionPlan,
        trial: usize,
        block: Range<usize>,
        time: Range<usize>,
        out: &mut [f32],
    ) {
        let mut delays = [&[][..]; R];
        for (r, row) in delays.iter_mut().enumerate() {
            *row = &plan.delays().trial_row(trial + r)[block.clone()];
        }
        let at = self.micro::<R, W>(&delays, block.start, time.start, time.end, out);
        let at = self.micro::<R, 4>(&delays, block.start, at, time.end, out);
        let at = self.micro::<R, 1>(&delays, block.start, at, time.end, out);
        debug_assert_eq!(at, time.end);
    }

    /// Runs `R × W` micro-tiles from sample `at` while a whole one fits
    /// before `t1`, and returns the first sample not covered.
    ///
    /// The accumulators are a local array the optimizer keeps in vector
    /// registers across the channel loop; they start from zero on the
    /// first channel block and from the stored partial sums afterwards,
    /// so each element is its channels summed in ascending order.
    #[inline(always)]
    fn micro<const R: usize, const W: usize>(
        self,
        delays: &[&[u32]; R],
        c0: usize,
        mut at: usize,
        t1: usize,
        out: &mut [f32],
    ) -> usize {
        while at + W <= t1 {
            let mut acc = [[0.0f32; W]; R];
            if c0 > 0 {
                for (r, lanes) in acc.iter_mut().enumerate() {
                    lanes.copy_from_slice(&out[r * self.out_samples + at..][..W]);
                }
            }
            let block = self.data[c0 * self.in_samples..].chunks_exact(self.in_samples);
            for (i, channel) in block.take(delays[0].len()).enumerate() {
                let channel = &channel[at..];
                for (lanes, shifts) in acc.iter_mut().zip(delays) {
                    let shift = shifts[i] as usize;
                    let src: &[f32; W] = channel[shift..shift + W]
                        .try_into()
                        .expect("a slice of W elements");
                    for (a, s) in lanes.iter_mut().zip(src) {
                        *a += *s;
                    }
                }
            }
            for (r, lanes) in acc.iter().enumerate() {
                out[r * self.out_samples + at..][..W].copy_from_slice(lanes);
            }
            at += W;
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::{hash_input, same_bits, small_plan};
    use crate::kernel::NaiveKernel;

    fn reference(plan: &DedispersionPlan, input: &InputBuffer) -> OutputBuffer {
        let mut out = OutputBuffer::for_plan(plan);
        NaiveKernel.dedisperse(plan, input, &mut out).unwrap();
        out
    }

    #[test]
    fn matches_reference_exactly_for_many_configs() {
        let plan = small_plan(12);
        let input = hash_input(&plan);
        let expected = reference(&plan, &input);
        for (wt, wd, et, ed) in [
            (1, 1, 1, 1),
            (8, 1, 1, 1),
            (1, 4, 1, 1),
            (4, 2, 2, 3),
            (16, 3, 2, 2),
            (25, 2, 4, 1),
            (10, 1, 20, 12),
            (200, 12, 1, 1),
        ] {
            let config = KernelConfig::new(wt, wd, et, ed).unwrap();
            let mut out = OutputBuffer::for_plan(&plan);
            TiledKernel::new(config)
                .dedisperse(&plan, &input, &mut out)
                .unwrap();
            assert!(
                out.bits_eq(&expected),
                "config {config} diverges from the reference"
            );
        }
    }

    #[test]
    fn partial_tiles_are_handled() {
        // 12 trials with a DM tile of 5 and 200 samples with a time tile
        // of 48: neither dimension divides evenly.
        let plan = small_plan(12);
        let input = hash_input(&plan);
        let expected = reference(&plan, &input);
        let config = KernelConfig::new(16, 5, 3, 1).unwrap(); // tile 48 x 5
        let mut out = OutputBuffer::for_plan(&plan);
        TiledKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        assert!(out.bits_eq(&expected));
    }

    #[test]
    fn zero_dm_plan_matches_reference() {
        let plan = crate::plan::DedispersionPlan::builder()
            .band(crate::freq::FrequencyBand::new(140.0, 0.5, 16).unwrap())
            .dm_grid(crate::dm::DmGrid::paper_grid(8).unwrap())
            .sample_rate(200)
            .zero_dm(true)
            .build()
            .unwrap();
        let input = hash_input(&plan);
        let expected = reference(&plan, &input);
        let config = KernelConfig::new(8, 4, 2, 2).unwrap();
        let mut out = OutputBuffer::for_plan(&plan);
        TiledKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        assert!(out.bits_eq(&expected));
    }

    #[test]
    fn every_instantiation_equals_the_portable_one() {
        // 80 channels cross two channel-block boundaries; 203 samples
        // leave a tail for every micro-tile width; 7 trials under a DM
        // tile of 3 leave a single-trial micro-tile in every strip.
        let plan = crate::plan::DedispersionPlan::builder()
            .band(crate::freq::FrequencyBand::new(140.0, 0.5, 80).unwrap())
            .dm_grid(crate::dm::DmGrid::new(0.0, 0.5, 7).unwrap())
            .sample_rate(203)
            .build()
            .unwrap();
        let input = hash_input(&plan);
        let expected = reference(&plan, &input);
        for config in [
            KernelConfig::scalar(),
            KernelConfig::new(3, 1, 1, 1).unwrap(),
            KernelConfig::new(25, 3, 3, 1).unwrap(),
            KernelConfig::new(203, 7, 1, 1).unwrap(),
        ] {
            for isa in [Isa::Portable, Isa::detect()] {
                // Poisoned: the band must overwrite every element.
                let mut out = OutputBuffer::for_plan(&plan);
                out.as_mut_slice().fill(f32::NAN);
                let rows = Slabs::InPlace(out.as_mut_slice());
                dedisperse_band(isa, &plan, &input, &config, 0..plan.trials(), rows);
                assert!(out.bits_eq(&expected), "{isa:?} under {config}");
            }
        }
    }

    /// Runs the sink path of one band and returns the trials delivered,
    /// in order, after checking every delivered row against `expected`.
    fn delivered(
        isa: Isa,
        plan: &DedispersionPlan,
        input: &InputBuffer,
        config: &KernelConfig,
        scratch: &mut [f32],
        expected: &OutputBuffer,
    ) -> Vec<usize> {
        let seen = std::sync::Mutex::new(Vec::new());
        let sink = |first: usize, rows: &[f32]| {
            for (r, row) in rows.chunks(plan.out_samples()).enumerate() {
                assert!(
                    same_bits(row, expected.series(first + r)),
                    "trial {} under {config} on {isa:?}",
                    first + r
                );
                seen.lock().unwrap().push(first + r);
            }
        };
        let out = Slabs::Sink(scratch, &sink);
        dedisperse_band(isa, plan, input, config, 0..plan.trials(), out);
        seen.into_inner().unwrap()
    }

    #[test]
    fn slab_height_follows_the_plan_and_the_tile() {
        let shape = |rate: u32, trials: usize| {
            crate::plan::DedispersionPlan::builder()
                .band(crate::freq::FrequencyBand::new(140.0, 0.5, 4).unwrap())
                .dm_grid(crate::dm::DmGrid::new(0.0, 0.01, trials).unwrap())
                .sample_rate(rate)
                .build()
                .unwrap()
        };
        // The benchmark's tile: strips of 8 trials.
        let tile = KernelConfig::new(25, 4, 4, 2).unwrap();
        // 80 kB rows: 13 fit, one whole strip of them.
        assert_eq!(slab_rows(&shape(20_000, 16), &tile), 8);
        // 8 kB rows: 131 fit, sixteen whole strips.
        assert_eq!(slab_rows(&shape(2_000, 16), &tile), 128);
        // 1.2 MB rows: none fits, and a slab is still one strip.
        assert_eq!(slab_rows(&shape(300_000, 16), &tile), 8);
    }

    #[test]
    fn sink_path_delivers_every_trial_once_in_order_with_the_same_bits() {
        // 5,000 samples make a 20 kB row, so 52 rows fit a slab: under a
        // DM tile of 5 a slab is 50 rows, and 117 trials are two whole
        // slabs and a last one of 17 that ends on a strip of 2.
        let plan = crate::plan::DedispersionPlan::builder()
            .band(crate::freq::FrequencyBand::new(140.0, 0.5, 40).unwrap())
            .dm_grid(crate::dm::DmGrid::new(0.0, 0.05, 117).unwrap())
            .sample_rate(5_000)
            .build()
            .unwrap();
        let input = hash_input(&plan);
        let expected = reference(&plan, &input);
        let config = KernelConfig::new(16, 5, 3, 1).unwrap();
        assert_eq!(slab_rows(&plan, &config), 50);
        for isa in [Isa::Portable, Isa::detect()] {
            // Poisoned before every call: a slab must not depend on what
            // the scratch held.
            let mut scratch = vec![f32::NAN; 50 * plan.out_samples()];
            let seen = delivered(isa, &plan, &input, &config, &mut scratch, &expected);
            assert_eq!(seen, (0..117).collect::<Vec<_>>());
        }
    }

    #[test]
    fn negative_zero_survives() {
        // 0.0 + -0.0 is 0.0: a kernel that copied the first channel
        // instead of adding it to a zero accumulator would return -0.0,
        // which `max_abs_diff` cannot tell from the reference's 0.0.
        let plan = small_plan(5);
        let input = InputBuffer::constant(&plan, -0.0);
        let expected = reference(&plan, &input);
        let mut out = OutputBuffer::for_plan(&plan);
        TiledKernel::new(KernelConfig::new(16, 2, 2, 1).unwrap())
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        assert!(out.bits_eq(&expected));
    }

    #[test]
    fn oversized_tile_is_rejected() {
        let plan = small_plan(4);
        let input = hash_input(&plan);
        let mut out = OutputBuffer::for_plan(&plan);
        // DM tile of 8 > 4 trials.
        let config = KernelConfig::new(8, 8, 1, 1).unwrap();
        assert!(TiledKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .is_err());
        // Time tile of 256 > 200 samples.
        let config = KernelConfig::new(256, 1, 1, 1).unwrap();
        assert!(TiledKernel::new(config)
            .dedisperse(&plan, &input, &mut out)
            .is_err());
    }

    #[test]
    fn config_accessor() {
        let config = KernelConfig::new(8, 4, 2, 2).unwrap();
        assert_eq!(TiledKernel::new(config).config(), config);
        assert_eq!(TiledKernel::new(config).name(), "tiled");
    }
}
