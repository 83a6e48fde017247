//! Global-memory traffic of a tiled dedispersion launch.
//!
//! Implements the paper's memory reasoning (Section III-B):
//!
//! * Reads and writes are coalesced; the transaction granularity is the
//!   device cache line.
//! * Reads shifted by a delay are generally *unaligned*: each contiguous
//!   segment costs up to one extra line (the paper's worst-case factor
//!   two, amortized when the segment spans many lines).
//! * A tile covering `D` trial DMs reads, per channel, the **union** of
//!   the trials' sample windows: `tile_time + (D−1)·min(gradient,
//!   tile_time)` — when consecutive trials' delays differ by more than a
//!   tile width, the windows are disjoint and there is no reuse at all
//!   (the LOFAR low-channel regime); when delays coincide, one window
//!   serves all trials (the Apertif / 0-DM regime).
//! * The delay table is small and hot, so only a fraction of its lookups
//!   reach DRAM.

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

use crate::cell::Cell;
use crate::device::DeviceDescriptor;
use crate::workload::Workload;

/// Fraction of delay-table lookups missing the on-chip caches.
pub const DELAY_TABLE_MISS_RATE: f64 = 0.1;

/// Estimated DRAM traffic of one dedispersion launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficEstimate {
    /// Bytes read from the input time-series (line-granular).
    pub read_bytes: f64,
    /// Bytes written to the output (coalesced, aligned).
    pub write_bytes: f64,
    /// Bytes read from the delay table (after caching).
    pub delay_bytes: f64,
    /// Output elements actually computed, including partial-tile padding
    /// (`≥` the useful `d·s`).
    pub computed_elements: f64,
    /// Flop actually executed (`computed_elements × channels`).
    pub computed_flop: f64,
}

impl Cell<'_> {
    /// Input cache lines one work-group reads for a `tile_time ×
    /// tile_dm` tile, summed over the channels — the only part of the
    /// traffic estimate that reads the workload, and it depends on the
    /// tile's shape alone: configurations sharing a shape share it.
    ///
    /// A channel's term is non-decreasing in its gradient, so on a
    /// monotone gradient equal terms sit in runs of adjacent channels:
    /// the sum adds `term × run length` once per run, finding each run's
    /// end by galloping, and costs `O(runs · log run)` term evaluations
    /// instead of one per channel. Any other gradient (NaN included)
    /// takes one-channel runs, which is the plain channel loop.
    ///
    /// Domain: finite gradients whose terms' magnitudes sum to less than
    /// 2⁵³ (any physical workload, by many orders of magnitude). There
    /// every term is an integer-valued `f64` — a line count, or a line
    /// count times a tile height — and no sum or product of them rounds,
    /// so the result is exact and equals the channel-by-channel sum bit
    /// for bit, however the channels are grouped. A NaN or −∞ gradient
    /// still yields the channel-by-channel NaN or −∞.
    pub fn tile_lines(&self, tile_time: u32, tile_dm: u32) -> f64 {
        let line_elems = self.device.cache_line_elems();
        let line = f64::from(line_elems);
        let t = f64::from(tile_time);
        let d = f64::from(tile_dm);
        let term = |g: f64| {
            if g >= t {
                // Disjoint windows: D separate unaligned segments.
                d * ((t / line).ceil() + 1.0)
            } else {
                // Overlapping windows: one segment spanning the union.
                let span = t + (d - 1.0) * g;
                let aligned = g <= 0.0 && tile_time.is_multiple_of(line_elems);
                let misalign = if aligned { 0.0 } else { 1.0 };
                (span / line).ceil() + misalign
            }
        };
        let gradient = &self.workload.gradient;
        let mut lines_per_wg = 0.0;
        let mut at = 0;
        let mut next = gradient.first().map(|&g| term(g));
        while let Some(k) = next {
            // `k` is the term of `gradient[at]`; `next` becomes the term
            // of the channel after its run.
            next = gradient.get(at + 1).map(|&g| term(g));
            let run = if self.monotone && next == Some(k) {
                let run = run_length(&gradient[at..], |g| term(g) == k);
                next = gradient.get(at + run).map(|&g| term(g));
                run
            } else {
                1
            };
            lines_per_wg += k * run as f64;
            at += run;
        }
        lines_per_wg
    }

    /// The traffic of launching `config` on this cell, given
    /// [`Cell::tile_lines`] of its tile shape.
    pub fn traffic(&self, config: &KernelConfig, tile_lines: f64) -> TrafficEstimate {
        let workload = self.workload;
        let line_bytes = f64::from(self.device.cache_line_bytes);
        let t = f64::from(config.tile_time());
        let d = f64::from(config.tile_dm());
        let (n_time, n_dm) = config.grid(workload.out_samples, workload.trials);
        let n_wg = (n_time * n_dm) as f64;

        let read_bytes = n_wg * tile_lines * line_bytes;
        let computed_elements = n_wg * t * d;
        let write_bytes = computed_elements * 4.0;
        let delay_bytes = n_wg * workload.channels as f64 * d * 4.0 * DELAY_TABLE_MISS_RATE;
        let computed_flop = computed_elements * workload.channels as f64;

        TrafficEstimate {
            read_bytes,
            write_bytes,
            delay_bytes,
            computed_elements,
            computed_flop,
        }
    }
}

/// The length of the run `rest` opens: how many leading elements `same`
/// holds for, counting `rest[0]` whatever `same` says of it, so a run is
/// never empty. `same` must hold on a prefix of `rest` and nowhere after
/// it. Gallops — probes 1, 2, 4, … past the start — then bisects the
/// last step: a one-element run costs one probe, a run of `n` about
/// `2·log₂ n`.
fn run_length(rest: &[f64], same: impl Fn(f64) -> bool) -> usize {
    let (mut known, mut probe) = (1, 1);
    while probe < rest.len() && same(rest[probe]) {
        known = probe + 1;
        probe *= 2;
    }
    let end = probe.min(rest.len());
    known + rest[known..end].partition_point(|&g| same(g))
}

impl TrafficEstimate {
    /// Estimates the traffic of launching `config` on `workload` against
    /// `device`'s memory system: [`Cell::traffic`] on a context built for
    /// this one question.
    ///
    /// Reads the workload's channels on every call — the context's fold,
    /// then the run walk for a sum that depends only on the tile's
    /// shape; a sweep builds one [`Cell`] and prices each shape once
    /// with [`Cell::tile_lines`].
    pub fn estimate(device: &DeviceDescriptor, workload: &Workload, config: &KernelConfig) -> Self {
        let cell = Cell::new(device, workload);
        cell.traffic(
            config,
            cell.tile_lines(config.tile_time(), config.tile_dm()),
        )
    }

    /// Total DRAM bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.read_bytes + self.write_bytes + self.delay_bytes
    }

    /// Effective arithmetic intensity (useful flop per byte moved).
    pub fn achieved_ai(&self, useful_flop: u64) -> f64 {
        useful_flop as f64 / self.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::amd_hd7970;
    use dedisp_core::{DmGrid, FrequencyBand};

    fn apertif(trials: usize) -> Workload {
        Workload::analytic(
            "Apertif",
            &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            20_000,
        )
        .unwrap()
    }

    fn lofar(trials: usize) -> Workload {
        Workload::analytic(
            "LOFAR",
            &FrequencyBand::new(138.0, 6.0 / 32.0, 32).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            200_000,
        )
        .unwrap()
    }

    #[test]
    fn no_reuse_ai_obeys_eq2() {
        // A single-trial tile on a real workload: AI < 1/4 (Eq. 2).
        let dev = amd_hd7970();
        let w = apertif(256);
        let c = KernelConfig::new(256, 1, 1, 1).unwrap();
        let t = TrafficEstimate::estimate(&dev, &w, &c);
        let ai = t.achieved_ai(w.useful_flop);
        assert!(ai < 0.25, "AI {ai}");
        assert!(ai > 0.15, "AI {ai} unreasonably low");
    }

    #[test]
    fn dm_tiling_raises_ai_on_apertif() {
        let dev = amd_hd7970();
        let w = apertif(4096);
        let narrow = KernelConfig::new(64, 1, 4, 1).unwrap();
        let wide = KernelConfig::new(64, 4, 4, 8).unwrap(); // D = 32
        let ai_narrow = TrafficEstimate::estimate(&dev, &w, &narrow).achieved_ai(w.useful_flop);
        let ai_wide = TrafficEstimate::estimate(&dev, &w, &wide).achieved_ai(w.useful_flop);
        assert!(
            ai_wide > 4.0 * ai_narrow,
            "narrow {ai_narrow}, wide {ai_wide}"
        );
    }

    #[test]
    fn lofar_low_channels_defeat_reuse() {
        // On LOFAR the same DM tiling buys far less than on Apertif.
        let dev = amd_hd7970();
        let ap = apertif(1024);
        let lo = lofar(1024);
        let c = KernelConfig::new(64, 4, 1, 4).unwrap(); // D = 16
        let gain_ap = TrafficEstimate::estimate(&dev, &ap, &c).achieved_ai(ap.useful_flop)
            / TrafficEstimate::estimate(&dev, &ap, &KernelConfig::new(64, 1, 1, 1).unwrap())
                .achieved_ai(ap.useful_flop);
        let gain_lo = TrafficEstimate::estimate(&dev, &lo, &c).achieved_ai(lo.useful_flop)
            / TrafficEstimate::estimate(&dev, &lo, &KernelConfig::new(64, 1, 1, 1).unwrap())
                .achieved_ai(lo.useful_flop);
        assert!(
            gain_ap > 3.0 * gain_lo,
            "apertif gain {gain_ap}, lofar gain {gain_lo}"
        );
    }

    #[test]
    fn zero_dm_restores_perfect_reuse() {
        let dev = amd_hd7970();
        let lo = lofar(1024);
        let zero = lo.zero_dm();
        let c = KernelConfig::new(64, 4, 1, 4).unwrap();
        let ai_real = TrafficEstimate::estimate(&dev, &lo, &c).achieved_ai(lo.useful_flop);
        let ai_zero = TrafficEstimate::estimate(&dev, &zero, &c).achieved_ai(zero.useful_flop);
        assert!(ai_zero > 2.0 * ai_real, "real {ai_real}, zero {ai_zero}");
    }

    #[test]
    fn small_tiles_pay_misalignment_overhead() {
        // The paper's worst case: a tile of one cache line pays up to 2x.
        let dev = amd_hd7970(); // 16-element lines
        let w = apertif(256);
        let tiny = KernelConfig::new(16, 1, 1, 1).unwrap();
        let big = KernelConfig::new(256, 1, 4, 1).unwrap(); // 1024 samples
        let r_tiny = TrafficEstimate::estimate(&dev, &w, &tiny);
        let r_big = TrafficEstimate::estimate(&dev, &w, &big);
        // Useful bytes are identical; the tiny tile moves almost twice as
        // much, the big tile is near 1x.
        let useful = (w.trials * w.out_samples * w.channels) as f64 * 4.0;
        assert!(r_tiny.read_bytes > 1.8 * useful);
        assert!(r_big.read_bytes < 1.1 * useful);
    }

    #[test]
    fn partial_tiles_inflate_computed_elements() {
        let dev = amd_hd7970();
        let w = apertif(256);
        // 20,000 samples with a 4,096-sample tile: 5 tiles cover 20,480.
        let c = KernelConfig::new(256, 1, 16, 1).unwrap();
        let t = TrafficEstimate::estimate(&dev, &w, &c);
        let useful = (w.trials * w.out_samples) as f64;
        assert!(t.computed_elements > useful);
        assert_eq!(t.computed_elements, 5.0 * 4096.0 * 256.0);
        assert_eq!(t.computed_flop, t.computed_elements * 1024.0);
    }

    #[test]
    fn writes_scale_with_computed_elements() {
        let dev = amd_hd7970();
        let w = apertif(64);
        let c = KernelConfig::new(100, 1, 2, 1).unwrap(); // divides evenly
        let t = TrafficEstimate::estimate(&dev, &w, &c);
        assert_eq!(t.write_bytes, (64 * 20_000 * 4) as f64);
    }

    /// A workload that is nothing but `gradient`.
    fn with_gradient(gradient: Vec<f64>) -> Workload {
        Workload {
            name: "g".into(),
            channels: gradient.len(),
            out_samples: 20_000,
            trials: 256,
            gradient,
            useful_flop: 0,
            realtime_gflops: 0.0,
        }
    }

    #[test]
    fn a_non_monotone_gradient_sums_what_its_sorted_runs_do() {
        // 16-element lines, a 16 × 4 tile: two aligned zero channels (1
        // line each), two overlapping windows (⌈19/16⌉ + 1 and
        // ⌈23.5/16⌉ + 1 = 3 each), one disjoint channel (4 · (1 + 1)).
        let dev = amd_hd7970();
        let sorted = with_gradient(vec![0.0, 0.0, 1.0, 2.5, 40.0]);
        let shuffled = with_gradient(vec![40.0, 0.0, 2.5, 0.0, 1.0]);
        let (walked, looped) = (Cell::new(&dev, &sorted), Cell::new(&dev, &shuffled));
        assert!(walked.monotone && !looped.monotone);
        assert_eq!(walked.tile_lines(16, 4), 16.0);
        assert_eq!(looped.tile_lines(16, 4), 16.0);
        // A real gradient with two channels swapped: the one-channel
        // loop and the run walk of the original agree bit for bit.
        let w = apertif(256);
        let mut swapped = w.clone();
        swapped.gradient.swap(3, 700);
        let (walked, looped) = (Cell::new(&dev, &w), Cell::new(&dev, &swapped));
        assert!(walked.monotone && !looped.monotone);
        for (t, d) in [(16, 1), (64, 8), (250, 32), (1000, 4)] {
            assert_eq!(
                walked.tile_lines(t, d).to_bits(),
                looped.tile_lines(t, d).to_bits()
            );
        }
    }

    #[test]
    fn a_nan_gradient_returns_nan() {
        let dev = amd_hd7970();
        let mut gradients = vec![vec![f64::NAN], vec![f64::NAN; 64]];
        for at in [0, 1, 511, 1023] {
            let mut g = apertif(256).gradient;
            g[at] = f64::NAN;
            gradients.push(g);
        }
        for g in gradients {
            let w = with_gradient(g);
            assert!(Cell::new(&dev, &w).tile_lines(64, 8).is_nan());
        }
        // Monotone, yet a one-trial tile makes −∞'s term NaN: the walk
        // still steps past every NaN term one channel at a time.
        let w = with_gradient(vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0, 1.0]);
        let cell = Cell::new(&dev, &w);
        assert!(cell.monotone);
        assert!(cell.tile_lines(64, 1).is_nan());
        assert_eq!(cell.tile_lines(64, 2), f64::NEG_INFINITY);
    }

    #[test]
    fn delay_traffic_is_small() {
        let dev = amd_hd7970();
        let w = apertif(1024);
        let c = KernelConfig::new(64, 4, 2, 4).unwrap();
        let t = TrafficEstimate::estimate(&dev, &w, &c);
        assert!(t.delay_bytes < 0.1 * t.read_bytes);
    }
}
