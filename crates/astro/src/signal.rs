//! Synthetic channelized time-series with dispersed pulses.
//!
//! Since no telescope data is available to this reproduction, we generate
//! the closest synthetic equivalent: Gaussian radiometer noise plus one
//! or more impulsive broadband pulses, each dispersed with the *exact*
//! Eq. 1 delays of the plan's band. Dedispersing at the injected DM
//! re-aligns the pulse across channels (Figure 1 of the paper), which is
//! how the integration tests verify the whole pipeline.
//!
//! # The noise
//!
//! Sample `i` of the flat buffer is a function of (seed, σ, `i`) alone,
//! computed with IEEE-754 basic operations only (integer arithmetic, bit
//! casts, `+ − × ÷` and `sqrt` on `f32`; no libm call and no fused
//! multiply-add), so a seed gives the same bits on every platform, build
//! profile and instruction set:
//!
//! - 16 independent xoshiro256++ generators (lanes); lane `k` is
//!   seeded with words `4k … 4k+3` of one SplitMix64 sequence from the
//!   seed.
//! - Each lane word `w` makes one Box-Muller pair: `u1 = ((w >> 40) + 1)
//!   · 2⁻²⁴`, which lies in (0, 1]; the 24-bit turn `w & 0xFF_FFFF`,
//!   θ = 2π·turn/2²⁴; and `r = σ·sqrt(−2·ln u1)`.
//! - Each block of 32 samples is `[r·cos θ of lanes 0..16 | r·sin θ of
//!   lanes 0..16]`; the last block is cut short.
//!
//! `ln` and `sincos` are the polynomials in this file, both within 1e-6
//! of the exact value on every input the generator gives them.

use dedisp_core::delay::delay_samples;
use dedisp_core::{DedispersionPlan, InputBuffer};
use serde::{Deserialize, Serialize};
use std::f32::consts::{FRAC_1_SQRT_2, PI};

/// A single impulsive broadband pulse to inject.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PulseSpec {
    /// The true dispersion measure of the source, in pc/cm³.
    pub dm: f64,
    /// Emission time of the pulse at the top of the band, as an output
    /// sample index (i.e. the bin it lands in after dedispersion).
    pub sample: usize,
    /// Pulse amplitude per channel, in the same units as the noise σ.
    pub amplitude: f32,
    /// Pulse full width in samples (a boxcar of this many samples is
    /// added per channel; 1 = single-sample impulse).
    pub width: usize,
}

impl PulseSpec {
    /// A single-sample impulse of the given strength.
    pub fn impulse(dm: f64, sample: usize, amplitude: f32) -> Self {
        Self {
            dm,
            sample,
            amplitude,
            width: 1,
        }
    }
}

/// Deterministic generator of synthetic observations for a plan.
#[derive(Debug, Clone)]
pub struct SignalGenerator {
    seed: u64,
    noise_sigma: f32,
    pulses: Vec<PulseSpec>,
}

impl SignalGenerator {
    /// Creates a generator with reproducible noise from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            noise_sigma: 1.0,
            pulses: Vec::new(),
        }
    }

    /// Sets the per-channel Gaussian noise σ (default 1.0; 0 disables
    /// noise entirely).
    ///
    /// # Panics
    ///
    /// If `sigma` is negative, infinite or NaN.
    pub fn noise_sigma(mut self, sigma: f32) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "σ must be ≥ 0");
        self.noise_sigma = sigma;
        self
    }

    /// Adds a pulse to inject.
    pub fn pulse(mut self, pulse: PulseSpec) -> Self {
        self.pulses.push(pulse);
        self
    }

    /// The configured pulses.
    pub fn pulses(&self) -> &[PulseSpec] {
        &self.pulses
    }

    /// Generates the channelized input for `plan`: the noise of the
    /// [module docs](self) over the whole buffer, channel after channel,
    /// then each pulse dispersed with Eq. 1 relative to the top of the
    /// band. A pulse sample that lands at or past `plan.in_samples()` is
    /// dropped.
    pub fn generate(&self, plan: &DedispersionPlan) -> InputBuffer {
        let mut buf = InputBuffer::for_plan(plan);
        if self.noise_sigma > 0.0 {
            fill_noise(self.seed, self.noise_sigma, buf.as_mut_slice());
        }

        let f_ref = plan.band().high_mhz();
        let in_samples = plan.in_samples();
        for pulse in &self.pulses {
            for ch in 0..plan.channels() {
                let f = plan.band().channel_mhz(ch);
                let shift = delay_samples(pulse.dm, f, f_ref, plan.sample_rate());
                let Some(start) = pulse.sample.checked_add(shift) else {
                    continue;
                };
                let end = start.saturating_add(pulse.width).min(in_samples);
                for s in start..end {
                    buf.channel_mut(ch)[s] += pulse.amplitude;
                }
            }
        }
        buf
    }
}

/// Independent generators drawn side by side. Sixteen `u64` words are
/// two AVX-512 or eight SSE2 registers, so the per-lane loops below
/// vectorise at the baseline x86-64 target and use the width a wider
/// build has.
const LANES: usize = 16;

/// Samples one draw of every lane makes: a cosine and a sine per lane.
const BLOCK: usize = 2 * LANES;

/// Writes the noise of the module docs into `data`.
fn fill_noise(seed: u64, sigma: f32, data: &mut [f32]) {
    let mut lanes = Lanes::new(seed);
    let mut blocks = data.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        lanes.gaussians(sigma, block.try_into().expect("BLOCK-sized chunk"));
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut block = [0.0; BLOCK];
        lanes.gaussians(sigma, &mut block);
        tail.copy_from_slice(&block[..tail.len()]);
    }
}

/// The sixteen xoshiro256++ states in struct-of-arrays form: `s[j][k]`
/// is word `j` of lane `k`.
struct Lanes {
    s: [[u64; LANES]; 4],
}

impl Lanes {
    fn new(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [[0; LANES]; 4];
        for k in 0..LANES {
            for word in &mut s {
                word[k] = splitmix64(&mut x);
            }
        }
        Self { s }
    }

    /// One output word of every lane.
    fn next(&mut self) -> [u64; LANES] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut w = [0; LANES];
        for k in 0..LANES {
            w[k] = s0[k]
                .wrapping_add(s3[k])
                .rotate_left(23)
                .wrapping_add(s0[k]);
            let t = s1[k] << 17;
            s2[k] ^= s0[k];
            s3[k] ^= s1[k];
            s1[k] ^= s2[k];
            s0[k] ^= s3[k];
            s2[k] ^= t;
            s3[k] = s3[k].rotate_left(45);
        }
        w
    }

    /// One Box-Muller pair per lane: the cosines, then the sines.
    fn gaussians(&mut self, sigma: f32, block: &mut [f32; BLOCK]) {
        let w = self.next();
        let (cos, sin) = block.split_at_mut(LANES);
        for k in 0..LANES {
            // 24-bit integers: exact in `f32`, and converted through `i32`,
            // which SSE2 has a vector instruction for (`u64` it has not).
            let u1 = ((w[k] >> 40) as i32 + 1) as f32 * TWO_POW_M24;
            let r = sigma * (-2.0 * ln(u1)).sqrt();
            let (s, c) = sincos((w[k] & 0xFF_FFFF) as i32);
            cos[k] = r * c;
            sin[k] = r * s;
        }
    }
}

/// Next word of the SplitMix64 sequence in `x`.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 2⁻²⁴: a 24-bit integer times this is exact.
const TWO_POW_M24: f32 = 1.0 / 16_777_216.0;

/// ln 2 as a high part with 17 significant bits (so `e · LN2_HI` is
/// exact for |e| < 2⁷) and the rest.
const LN2_HI: f32 = 0.693_138_1;
const LN2_LO: f32 = 9.058_001e-6;

/// Natural logarithm of a positive normal `x`.
///
/// `x = m · 2^e` with `m` in [√½, √2), split with integer arithmetic;
/// then `ln m = 2·atanh s` with `s = (m − 1)/(m + 1)`, |s| ≤ 0.1716, as
/// the odd series to `s⁹` (truncation error below 1e-9).
#[inline]
fn ln(x: f32) -> f32 {
    // Adding 1.0's bits less √½'s carries into the exponent exactly when
    // the mantissa is at least √2's; adding √½'s back to the mantissa
    // then gives m in [√½, √2) and x = m · 2^e.
    const FRAC_1_SQRT_2_BITS: i32 = 0x3F35_04F3;
    let bits = x.to_bits() as i32 + (0x3F80_0000 - FRAC_1_SQRT_2_BITS);
    let e = ((bits >> 23) - 127) as f32;
    let m = f32::from_bits(((bits & 0x7F_FFFF) + FRAC_1_SQRT_2_BITS) as u32);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let atanh2 = s * (2.0 + z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0 + z * (2.0 / 9.0)))));
    e * LN2_HI + (atanh2 + e * LN2_LO)
}

/// π/2²³: one step of the 22-bit position inside a quadrant, in radians.
const QUADRANT_STEP: f32 = PI / 8_388_608.0;

/// `(sin θ, cos θ)` for θ = 2π·`turn`/2²⁴, `turn` in [0, 2²⁴).
///
/// The turn's top two bits are the quadrant `q`, exactly; the other 22
/// give `x` in [−π/4, π/4), so θ = q·π/2 + π/4 + x. Taylor polynomials
/// give `sin x` (to `x⁹`) and `cos x` (to `x⁸`), a rotation by π/4 turns
/// them into the sine and cosine of π/4 + x, and the quadrant swaps them
/// and flips their signs with selects and bit operations, not branches.
#[inline]
fn sincos(turn: i32) -> (f32, f32) {
    let q = turn >> 22;
    let x = ((turn & 0x3F_FFFF) - 0x20_0000) as f32 * QUADRANT_STEP;
    let z = x * x;
    let sin_x =
        x + x * z * (-1.0 / 6.0 + z * (1.0 / 120.0 + z * (-1.0 / 5040.0 + z * (1.0 / 362_880.0))));
    let cos_x = 1.0 + z * (-0.5 + z * (1.0 / 24.0 + z * (-1.0 / 720.0 + z * (1.0 / 40_320.0))));
    let sin_p = (cos_x + sin_x) * FRAC_1_SQRT_2;
    let cos_p = (cos_x - sin_x) * FRAC_1_SQRT_2;
    // Quadrants 1 and 3 swap sine and cosine; the sine is negative in 2
    // and 3, the cosine in 1 and 2.
    let odd = q & 1 == 1;
    let sin = if odd { cos_p } else { sin_p };
    let cos = if odd { sin_p } else { cos_p };
    let sin_sign = ((q >> 1) as u32) << 31;
    let cos_sign = (((q ^ (q >> 1)) & 1) as u32) << 31;
    (
        f32::from_bits(sin.to_bits() ^ sin_sign),
        f32::from_bits(cos.to_bits() ^ cos_sign),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::prelude::*;

    fn plan() -> DedispersionPlan {
        DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 1.0, 8).unwrap())
            .sample_rate(500)
            .build()
            .unwrap()
    }

    #[test]
    fn noise_is_reproducible() {
        let p = plan();
        let a = SignalGenerator::new(42).generate(&p);
        let b = SignalGenerator::new(42).generate(&p);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = SignalGenerator::new(43).generate(&p);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn noise_statistics_are_sane() {
        let p = plan();
        let buf = SignalGenerator::new(1).noise_sigma(2.0).generate(&p);
        let n = buf.as_slice().len() as f64;
        let mean = buf.as_slice().iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = buf
            .as_slice()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_noiseless() {
        let p = plan();
        let buf = SignalGenerator::new(7).noise_sigma(0.0).generate(&p);
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pulse_lands_at_dispersed_positions() {
        let p = plan();
        let pulse = PulseSpec::impulse(4.0, 50, 3.0);
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(pulse)
            .generate(&p);
        let f_ref = p.band().high_mhz();
        for ch in [0usize, 15, 31] {
            let shift = delay_samples(4.0, p.band().channel_mhz(ch), f_ref, p.sample_rate());
            assert_eq!(buf.channel(ch)[50 + shift], 3.0, "channel {ch}");
        }
        // The lowest channel is delayed more than the highest.
        let s_lo = delay_samples(4.0, p.band().channel_mhz(0), f_ref, p.sample_rate());
        let s_hi = delay_samples(4.0, p.band().channel_mhz(31), f_ref, p.sample_rate());
        assert!(s_lo > s_hi);
    }

    #[test]
    fn dedispersion_realigns_pulse_at_true_dm() {
        let p = plan();
        let pulse = PulseSpec::impulse(4.0, 50, 1.0);
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(pulse)
            .generate(&p);
        let out = dedisp_core::kernel::dedisperse(&p, &buf).unwrap();
        // Trial index 4 has DM exactly 4.0 (grid step 1.0).
        let trial = p.dm_grid().nearest_trial(4.0);
        let series = out.series(trial);
        let peak = series.iter().cloned().fold(f32::MIN, f32::max);
        assert_eq!(series[50], peak);
        // Full coherent sum: all 32 channels align.
        assert!((series[50] - 32.0).abs() < 1e-3, "peak {}", series[50]);
        // A distant trial smears the pulse: its maximum is much smaller.
        let far = out.series(0);
        let far_peak = far.iter().cloned().fold(f32::MIN, f32::max);
        assert!(far_peak < 0.6 * series[50], "far peak {far_peak}");
    }

    #[test]
    fn wide_pulse_adds_boxcar() {
        let p = plan();
        let pulse = PulseSpec {
            dm: 0.0,
            sample: 10,
            amplitude: 2.0,
            width: 5,
        };
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(pulse)
            .generate(&p);
        for s in 10..15 {
            assert_eq!(buf.channel(0)[s], 2.0);
        }
        assert_eq!(buf.channel(0)[9], 0.0);
        assert_eq!(buf.channel(0)[15], 0.0);
    }

    #[test]
    fn multiple_pulses_superpose() {
        let p = plan();
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(PulseSpec::impulse(0.0, 20, 1.0))
            .pulse(PulseSpec::impulse(0.0, 20, 2.0))
            .generate(&p);
        assert_eq!(buf.channel(5)[20], 3.0);
    }

    /// 64-bit FNV-1a over the bits of every sample.
    fn fingerprint(data: &[f32]) -> u64 {
        data.iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn noise_bits_are_pinned() {
        // A flat length that is a multiple of 32 and one that is not.
        let odd = DedispersionPlan::builder()
            .band(FrequencyBand::new(1420.0, 0.3, 7).unwrap())
            .dm_grid(DmGrid::new(0.0, 2.0, 4).unwrap())
            .sample_rate(1_000)
            .out_samples(333)
            .build()
            .unwrap();
        let plans = [plan(), odd];
        assert_eq!(plans[0].channels() * plans[0].in_samples() % BLOCK, 0);
        assert_ne!(plans[1].channels() * plans[1].in_samples() % BLOCK, 0);
        let mut got = Vec::new();
        for p in &plans {
            for seed in [42, 20_140_519] {
                for sigma in [1.0, 0.5] {
                    let buf = SignalGenerator::new(seed).noise_sigma(sigma).generate(p);
                    got.push(fingerprint(buf.as_slice()));
                }
            }
        }
        // (plan, seed, σ) in the loops' order.
        let pinned: [u64; 8] = [
            0x3f940f36cae382f2,
            0x0da6b0722aaae34d,
            0x641af4d7e5b443ce,
            0xa477dbbec33f3bbe,
            0x43ac23f746f86fca,
            0x0fdea9d827afb463,
            0xf3ec621cccfc69a6,
            0x36e3b582176c9ee6,
        ];
        assert_eq!(got, pinned, "{got:#018x?}");
    }

    #[test]
    fn generators_match_their_reference_vectors() {
        // SplitMix64 from 1234567 and xoshiro256++ from [1, 2, 3, 4], as
        // published with the reference implementations.
        let mut x = 1_234_567;
        let split: Vec<u64> = (0..5).map(|_| splitmix64(&mut x)).collect();
        assert_eq!(
            split,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
        let mut lanes = Lanes {
            s: [[1; LANES], [2; LANES], [3; LANES], [4; LANES]],
        };
        let xoshiro: Vec<u64> = (0..6).map(|_| lanes.next()[LANES - 1]).collect();
        assert_eq!(
            xoshiro,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
            ]
        );
        // Lane k starts from words 4k … 4k+3 of the seed's sequence.
        let mut x = 5;
        let words: Vec<u64> = (0..4 * LANES).map(|_| splitmix64(&mut x)).collect();
        let lanes = Lanes::new(5);
        for k in 0..LANES {
            let lane: Vec<u64> = lanes.s.iter().map(|word| word[k]).collect();
            assert_eq!(lane, words[4 * k..4 * k + 4], "lane {k}");
        }
    }

    #[test]
    fn a_sample_does_not_depend_on_the_buffer_length() {
        let mut full = vec![0.0; 1_000];
        fill_noise(9, 1.5, &mut full);
        for len in [1, 2, 16, 31, 32, 33, 63, 64, 65, 96, 100, 999] {
            let mut short = vec![0.0; len];
            fill_noise(9, 1.5, &mut short);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&short), bits(&full[..len]), "length {len}");
        }
    }

    /// Every `STRIDE`-th of the 2²⁴ inputs, plus the ends of each
    /// quadrant and of the range.
    const STRIDE: usize = 97;

    #[test]
    fn ln_is_within_1e_6_of_f64() {
        let edges = [1, 2, 3, 1 << 23, (1 << 23) + 1, (1 << 24) - 1, 1 << 24];
        let mut worst = 0.0f64;
        for n in (1..=1usize << 24).step_by(STRIDE).chain(edges) {
            let x = n as f32 * TWO_POW_M24;
            let err = (f64::from(ln(x)) - f64::from(x).ln()).abs();
            worst = worst.max(err);
            assert!(err <= 1e-6, "ln({x}) off by {err}");
        }
        assert_eq!(ln(1.0), 0.0);
        assert!(worst > 0.0);
    }

    #[test]
    fn sincos_is_within_1e_6_of_f64() {
        let edges = (0..4).flat_map(|q| {
            let start = q << 22;
            [start, start + 1, start + (1 << 21), start + (1 << 22) - 1]
        });
        for turn in (0..1i32 << 24).step_by(STRIDE).chain(edges) {
            let theta = std::f64::consts::TAU * f64::from(turn) / f64::from(1 << 24);
            let (s, c) = sincos(turn);
            let (s_err, c_err) = (
                (f64::from(s) - theta.sin()).abs(),
                (f64::from(c) - theta.cos()).abs(),
            );
            assert!(
                s_err <= 1e-6 && c_err <= 1e-6,
                "turn {turn}: {s_err} {c_err}"
            );
        }
    }

    /// Complementary error function, fractional error below 1.2e-7
    /// (Numerical Recipes' Chebyshev fit).
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ]
        .iter()
        .rev()
        .fold(0.0, |acc, &c| acc * t + c);
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    /// The standard normal CDF.
    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    #[test]
    fn noise_matches_the_standard_normal() {
        let mut data = vec![0.0f32; 1 << 22];
        fill_noise(20_140_519, 1.0, &mut data);
        let n = data.len() as f64;
        let moment = |k: i32| data.iter().map(|&v| f64::from(v).powi(k)).sum::<f64>() / n;
        // Each within 5 standard errors of the normal's value: Var x = 1,
        // Var x² = 2, Var x⁴ = 105 − 9.
        let (m1, m2, m4) = (moment(1), moment(2), moment(4));
        assert!(m1.abs() < 5.0 / n.sqrt(), "mean {m1}");
        assert!((m2 - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "E x² {m2}");
        assert!((m4 - 3.0).abs() < 5.0 * (96.0 / n).sqrt(), "E x⁴ {m4}");
        for k in 1..=4 {
            let p = erfc(f64::from(k) / std::f64::consts::SQRT_2);
            let seen = data.iter().filter(|v| v.abs() > k as f32).count() as f64 / n;
            let se = (p * (1.0 - p) / n).sqrt();
            assert!(
                (seen - p).abs() < 5.0 * se,
                "P(|x| > {k}) = {seen}, normal {p}"
            );
        }
        // 64 bins: 62 of width 8/62 over [−4, 4), and the two tails.
        let edge = |j: usize| -4.0 + 8.0 * j as f64 / 62.0;
        let mut counts = [0u64; 64];
        for &v in &data {
            let j = ((f64::from(v) + 4.0) * 62.0 / 8.0).floor();
            counts[(j.clamp(-1.0, 62.0) + 1.0) as usize] += 1;
        }
        let chi2: f64 = (0..64)
            .map(|b| {
                let lo = if b == 0 { 0.0 } else { phi(edge(b - 1)) };
                let hi = if b == 63 { 1.0 } else { phi(edge(b)) };
                let expected = n * (hi - lo);
                (counts[b] as f64 - expected).powi(2) / expected
            })
            .sum();
        // 63 degrees of freedom: mean 63, standard deviation √126.
        assert!(chi2 < 63.0 + 5.0 * 126f64.sqrt(), "χ² {chi2}");
    }

    #[test]
    fn a_pulse_past_usize_max_writes_nothing() {
        let p = plan();
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(PulseSpec::impulse(4.0, usize::MAX, 1.0))
            .generate(&p);
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn an_unbounded_width_runs_to_the_end_of_the_buffer() {
        let p = plan();
        let pulse = PulseSpec {
            dm: 0.0,
            sample: 10,
            amplitude: 2.0,
            width: usize::MAX,
        };
        let buf = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(pulse)
            .generate(&p);
        let row = buf.channel(0);
        assert!(row[..10].iter().all(|&v| v == 0.0));
        assert!(row[10..].iter().all(|&v| v == 2.0));
    }
}
