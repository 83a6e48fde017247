//! The configuration-specialized tiled kernel (paper, Section III-B).
//!
//! The problem is decomposed into two-dimensional work-group tiles of
//! `tile_dm` trial DMs × `tile_time` samples, and the paper's two
//! mechanisms are mapped onto a CPU core as follows.
//!
//! * **Accumulators stay in registers.** A work-item keeps its
//!   `el_time × el_dm` partial sums in registers for the whole channel
//!   loop. Here a *micro-tile* of one trial × `W` samples — eight vector
//!   registers of the instantiation's width: `W` = [`MICRO_TIME`] = 32
//!   on the baseline target, 64 with AVX2, 128 with AVX-512 — stays in
//!   registers while a block of [`CHANNEL_BLOCK`] channels is summed
//!   into it: one unaligned load per vector add, no store in the loop.
//!   What a channel costs besides its adds (its delay, the bounds check,
//!   the pointer step) is paid once per eight adds, whatever the width,
//!   so the wider the lanes the fewer µops per sample. The partial sums
//!   touch the output row only between channel blocks.
//! * **Time tiles are whole micro-tiles.** The configuration's
//!   `tile_time` is rounded up to a multiple of `W`, so only the last
//!   time tile of a row, where `out_samples` clips it, steps down to
//!   micro-tiles of 16, 4 and then 1 samples — never to a loop of another
//!   shape. The rounding moves only which elements are summed together,
//!   and each is summed alone in its own lane.
//! * **A tile's input is fetched once.** Neighbouring trials of a
//!   DM strip read overlapping spans of the same channel one after the
//!   other, so they hit the same cache lines; one channel block of one
//!   work-group tile fits the L1 cache; and inside a slab tiles are
//!   visited *time-major* — every DM strip of one time tile before the
//!   next time tile — so the `channels × (tile_time + delay spread)`
//!   input of a time tile stays in the L2 cache across the slab's trials
//!   instead of being streamed again for every strip.
//! * **Output is finished a slab at a time.** A *slab* is the run of
//!   whole DM strips whose output rows fit [`SLAB_BYTES`] of L2
//!   ([`slab_rows`]: derived from the row length and the tile, not set by
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
//! bit; vector lanes only ever add, and neither lane width nor tile shape
//! can change a bit. The loop nest is written once ([`band_body`]) and
//! compiled three times on x86-64: for the baseline target and for AVX2
//! and AVX-512, the widest the host has selected at run time by
//! [`Isa::detect`].
//!
//! The body reads no plan: its caller brings the rows ([`Tile`]). This
//! kernel and the parallel one bring the plan's ([`Tile::for_plan`]);
//! the subband kernel brings a subband's channels, then its partial sums.
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
            Tile::for_plan(plan, input),
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
            Tile::for_plan(plan, input),
            &self.config,
            0..plan.trials(),
            sink,
        );
        Ok(())
    }
}

/// Samples per micro-tile on the baseline target: one trial's eight
/// 128-bit accumulator registers, so eight independent add chains. The
/// AVX2 and AVX-512 instantiations keep the eight registers and double
/// and quadruple the samples.
const MICRO_TIME: usize = 32;
/// Channels summed in registers before the partial sums are written to
/// the output row. 32 channels of a `tile_time`-wide span fit the L1
/// cache, and the spill costs one load and one store per 32 adds.
const CHANNEL_BLOCK: usize = 32;
/// Output bytes per slab: half of a 2 MB L2, so a finished slab is still
/// cached when its consumer reads it and the input of a time tile keeps
/// the other half. Anywhere in 1–4 MB measures the same (DESIGN.md §19),
/// which is why this is a constant.
const SLAB_BYTES: usize = 1 << 20;

/// Rows per slab: the whole DM strips whose output rows of
/// `out_samples` fit [`SLAB_BYTES`], at least one strip.
fn slab_rows(out_samples: usize, config: &KernelConfig) -> usize {
    let tile_dm = config.tile_dm() as usize;
    let fit = SLAB_BYTES / (out_samples * std::mem::size_of::<f32>());
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
    /// 512-bit lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The widest instantiation this host can run.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// Dedisperses the contiguous band `trials` of `tile`'s delay rows into
/// `out`, one slab after another. Every element of every slab is
/// overwritten.
///
/// This is the body shared by [`TiledKernel`] (one band: every trial),
/// the parallel kernel (one band per worker) and both stages of the
/// subband kernel, and by [`Dedisperser::dedisperse`] and
/// [`Dedisperser::dedisperse_slabs`].
pub(crate) fn dedisperse_band(
    isa: Isa,
    tile: Tile<'_>,
    config: &KernelConfig,
    trials: Range<usize>,
    out: Slabs<'_>,
) {
    match isa {
        Isa::Portable => band_body::<MICRO_TIME>(tile, config, trials, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx2` is only ever produced after
        // `is_x86_feature_detected!("avx2")`, by `Isa::detect` (and by
        // the tests' `host_isas`).
        Isa::Avx2 => unsafe { band_avx2(tile, config, trials, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::Avx512` is only ever produced after
        // `is_x86_feature_detected!("avx512f")`, by `Isa::detect` (and by
        // the tests' `host_isas`).
        Isa::Avx512 => unsafe { band_avx512(tile, config, trials, out) },
    }
}

/// [`dedisperse_band`] into a scratch allocated here, for `sink`.
pub(crate) fn sink_band(
    isa: Isa,
    tile: Tile<'_>,
    config: &KernelConfig,
    trials: Range<usize>,
    sink: &SlabSink<'_>,
) {
    let rows = slab_rows(tile.out_samples, config).min(trials.len());
    let mut scratch = vec![0.0; rows * tile.out_samples];
    let out = Slabs::Sink(&mut scratch, sink);
    dedisperse_band(isa, tile, config, trials, out);
}

/// [`band_body`] compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(tile: Tile<'_>, config: &KernelConfig, trials: Range<usize>, out: Slabs<'_>) {
    band_body::<{ 2 * MICRO_TIME }>(tile, config, trials, out);
}

/// [`band_body`] compiled with 512-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn band_avx512(tile: Tile<'_>, config: &KernelConfig, trials: Range<usize>, out: Slabs<'_>) {
    band_body::<{ 4 * MICRO_TIME }>(tile, config, trials, out);
}

/// The one loop nest, outer half: the slabs of a band.
#[inline(always)]
fn band_body<const W: usize>(
    tile: Tile<'_>,
    config: &KernelConfig,
    trials: Range<usize>,
    mut out: Slabs<'_>,
) {
    let out_samples = tile.out_samples;
    let height = slab_rows(out_samples, config);
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
        tile.slab::<W>(config, lo, slab);
        if let Slabs::Sink(scratch, sink) = &out {
            sink(lo, &scratch[..len]);
        }
    }
}

/// What every micro-tile of a band reads, brought by its caller.
///
/// Output element `(trial, t)` is `Σ_row data[row][t + delays[trial][row]]`
/// over the first `channels` input rows, in ascending row order. The
/// caller guarantees every such read lies inside its input row.
#[derive(Clone, Copy)]
pub(crate) struct Tile<'a> {
    /// The input rows, `in_samples` apart.
    pub(crate) data: &'a [f32],
    /// The input row pitch.
    pub(crate) in_samples: usize,
    /// The delay rows, one per trial, `channels` shifts each.
    pub(crate) delays: &'a [u32],
    /// Input rows summed into every output element.
    pub(crate) channels: usize,
    /// Samples per output row.
    pub(crate) out_samples: usize,
}

impl<'a> Tile<'a> {
    /// The plan's rows: every channel of `input` under every trial of
    /// its delay table.
    pub(crate) fn for_plan(plan: &'a DedispersionPlan, input: &'a InputBuffer) -> Self {
        Self {
            data: input.as_slice(),
            in_samples: input.samples(),
            delays: plan.delays().as_slice(),
            channels: plan.channels(),
            out_samples: plan.out_samples(),
        }
    }

    /// The one loop nest, inner half: time tiles, DM strips, channel
    /// blocks and micro-tiles of the slab whose first trial is `trial_lo`
    /// and whose rows are `rows`.
    ///
    /// The time tile is the configuration's rounded up to a whole number
    /// of `W`-sample micro-tiles, so only a row's last time tile has a
    /// tail.
    #[inline(always)]
    fn slab<const W: usize>(self, config: &KernelConfig, trial_lo: usize, rows: &mut [f32]) {
        let out_samples = self.out_samples;
        let channels = self.channels;
        let tile_time = (config.tile_time() as usize).next_multiple_of(W);
        let tile_dm = config.tile_dm() as usize;
        let n_trials = rows.len() / out_samples;
        debug_assert_eq!(rows.len(), n_trials * out_samples);

        for t0 in (0..out_samples).step_by(tile_time) {
            let t1 = (t0 + tile_time).min(out_samples);
            for strip_lo in (0..n_trials).step_by(tile_dm) {
                let strip_hi = (strip_lo + tile_dm).min(n_trials);
                for c0 in (0..channels).step_by(CHANNEL_BLOCK) {
                    let block = c0..(c0 + CHANNEL_BLOCK).min(channels);
                    for tr in strip_lo..strip_hi {
                        let out = &mut rows[tr * out_samples..][..out_samples];
                        self.trial::<W>(trial_lo + tr, block.clone(), t0..t1, out);
                    }
                }
            }
        }
    }

    /// Sums the channels of `block` into the samples `time` of `trial`,
    /// whose output row is `out`: whole micro-tiles first, then ever
    /// narrower ones for the tail.
    #[inline(always)]
    fn trial<const W: usize>(
        self,
        trial: usize,
        block: Range<usize>,
        time: Range<usize>,
        out: &mut [f32],
    ) {
        let first = trial * self.channels;
        let delays = &self.delays[first..first + self.channels][block.clone()];
        let at = self.micro::<W>(delays, block.start, time.start, time.end, out);
        let at = self.micro::<16>(delays, block.start, at, time.end, out);
        let at = self.micro::<4>(delays, block.start, at, time.end, out);
        let at = self.micro::<1>(delays, block.start, at, time.end, out);
        debug_assert_eq!(at, time.end);
    }

    /// Runs `W`-sample micro-tiles from sample `at` while a whole one
    /// fits before `t1`, and returns the first sample not covered.
    ///
    /// The accumulators are a local array the optimizer keeps in vector
    /// registers across the channel loop; they start from zero on the
    /// first channel block and from the stored partial sums afterwards,
    /// so each element is its channels summed in ascending order.
    #[inline(always)]
    fn micro<const W: usize>(
        self,
        delays: &[u32],
        c0: usize,
        mut at: usize,
        t1: usize,
        out: &mut [f32],
    ) -> usize {
        while at + W <= t1 {
            let mut acc = [0.0f32; W];
            if c0 > 0 {
                acc.copy_from_slice(&out[at..][..W]);
            }
            let block = self.data[c0 * self.in_samples..].chunks_exact(self.in_samples);
            for (channel, &shift) in block.zip(delays) {
                let start = at + shift as usize;
                let src: &[f32; W] = channel[start..start + W]
                    .try_into()
                    .expect("a slice of W elements");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += *s;
                }
            }
            out[at..][..W].copy_from_slice(&acc);
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

    /// Every instantiation this host can run, narrowest first.
    fn host_isas() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    #[test]
    fn the_host_runs_what_it_detects() {
        assert_eq!(host_isas().last(), Some(&Isa::detect()));
    }

    #[test]
    fn every_instantiation_equals_the_portable_one() {
        // 80 channels cross two channel-block boundaries. 203 samples
        // clip the last time tile, rounded up to a micro-tile, and leave
        // a tail for every micro-tile width; 50 samples are fewer than
        // one micro-tile of the wider instantiations. Time tiles of 3, 25,
        // 75 and 100 are multiples of no micro-tile width. 7 trials under
        // a DM tile of 3 end every band on a strip of one.
        for samples in [203, 50] {
            let plan = crate::plan::DedispersionPlan::builder()
                .band(crate::freq::FrequencyBand::new(140.0, 0.5, 80).unwrap())
                .dm_grid(crate::dm::DmGrid::new(0.0, 0.5, 7).unwrap())
                .sample_rate(samples)
                .build()
                .unwrap();
            let input = hash_input(&plan);
            let expected = reference(&plan, &input);
            for config in [
                KernelConfig::scalar(),
                KernelConfig::new(3, 1, 1, 1).unwrap(),
                KernelConfig::new(25, 3, 1, 1).unwrap(),
                KernelConfig::new(25, 3, 3, 1).unwrap(),
                KernelConfig::new(25, 1, 4, 7).unwrap(),
                KernelConfig::new(samples, 7, 1, 1).unwrap(),
            ] {
                if config
                    .validate_for(plan.out_samples(), plan.trials())
                    .is_err()
                {
                    continue;
                }
                for isa in host_isas() {
                    // Poisoned: the band must overwrite every element.
                    let mut out = OutputBuffer::for_plan(&plan);
                    out.as_mut_slice().fill(f32::NAN);
                    let rows = Slabs::InPlace(out.as_mut_slice());
                    let tile = Tile::for_plan(&plan, &input);
                    dedisperse_band(isa, tile, &config, 0..plan.trials(), rows);
                    assert!(
                        out.bits_eq(&expected),
                        "{isa:?} under {config}, {samples} samples"
                    );
                }
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
        dedisperse_band(
            isa,
            Tile::for_plan(plan, input),
            config,
            0..plan.trials(),
            out,
        );
        seen.into_inner().unwrap()
    }

    #[test]
    fn slab_height_follows_the_row_length_and_the_tile() {
        // The benchmark's tile: strips of 8 trials.
        let tile = KernelConfig::new(25, 4, 4, 2).unwrap();
        // 80 kB rows: 13 fit, one whole strip of them.
        assert_eq!(slab_rows(20_000, &tile), 8);
        // 8 kB rows: 131 fit, sixteen whole strips.
        assert_eq!(slab_rows(2_000, &tile), 128);
        // 1.2 MB rows: none fits, and a slab is still one strip.
        assert_eq!(slab_rows(300_000, &tile), 8);
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
        assert_eq!(slab_rows(plan.out_samples(), &config), 50);
        for isa in host_isas() {
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
