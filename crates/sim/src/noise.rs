//! Deterministic measurement perturbation.
//!
//! Real measurements scatter: the paper averages ten runs, and its
//! optimization-space statistics (Figures 8–10) reflect run-to-run
//! variance on real machines. The model is deterministic, so we add a
//! small, *reproducible* perturbation keyed by the (device, workload,
//! configuration) triple: a hash-based multiplier, never a global RNG.
//! The same query always yields the same "measurement".

use dedisp_core::KernelConfig;

/// Relative amplitude of the perturbation (±3%), comparable to the
/// run-to-run spread of a well-controlled GPU benchmark.
pub const NOISE_AMPLITUDE: f64 = 0.03;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn hash_str(seed: u64, s: &str) -> u64 {
    s.bytes().fold(seed, |acc, b| mix(acc ^ u64::from(b)))
}

/// The part of the key that does not depend on the configuration:
/// device, workload and instance, hashed once per cell.
pub(crate) fn cell_key(device_name: &str, workload_name: &str, trials: usize) -> u64 {
    let h = hash_str(0xDEDB_EEF0, device_name);
    let h = hash_str(h, workload_name);
    mix(h ^ trials as u64)
}

/// The multiplier of `config` under a [`cell_key`].
pub(crate) fn keyed_multiplier(key: u64, config: &KernelConfig) -> f64 {
    let h = mix(key
        ^ (u64::from(config.wi_time()) << 48)
        ^ (u64::from(config.wi_dm()) << 32)
        ^ (u64::from(config.el_time()) << 16)
        ^ u64::from(config.el_dm()));
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + NOISE_AMPLITUDE * (2.0 * unit - 1.0)
}

/// A multiplicative perturbation in `[1 − A, 1 + A]` keyed by the query.
///
/// Hashes both names byte by byte; a sweep over one cell goes through
/// [`crate::Cell`], which does that once.
pub fn time_multiplier(
    device_name: &str,
    workload_name: &str,
    trials: usize,
    config: &KernelConfig,
) -> f64 {
    keyed_multiplier(cell_key(device_name, workload_name, trials), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(a: u32, b: u32, c: u32, d: u32) -> KernelConfig {
        KernelConfig::new(a, b, c, d).unwrap()
    }

    #[test]
    fn deterministic() {
        let c = cfg(8, 4, 2, 2);
        let a = time_multiplier("dev", "w", 128, &c);
        let b = time_multiplier("dev", "w", 128, &c);
        assert_eq!(a, b);
    }

    #[test]
    fn within_bounds() {
        for wt in [2u32, 16, 64, 250] {
            for ed in [1u32, 2, 4] {
                let m = time_multiplier("AMD HD7970", "Apertif", 1024, &cfg(wt, 2, 3, ed));
                assert!((1.0 - NOISE_AMPLITUDE..=1.0 + NOISE_AMPLITUDE).contains(&m));
            }
        }
    }

    #[test]
    fn varies_with_every_key_component() {
        let base = time_multiplier("dev", "w", 128, &cfg(8, 4, 2, 2));
        assert_ne!(base, time_multiplier("dev2", "w", 128, &cfg(8, 4, 2, 2)));
        assert_ne!(base, time_multiplier("dev", "w2", 128, &cfg(8, 4, 2, 2)));
        assert_ne!(base, time_multiplier("dev", "w", 256, &cfg(8, 4, 2, 2)));
        assert_ne!(base, time_multiplier("dev", "w", 128, &cfg(8, 4, 2, 1)));
        assert_ne!(base, time_multiplier("dev", "w", 128, &cfg(4, 8, 2, 2)));
    }

    #[test]
    fn mean_is_near_one() {
        let mut sum = 0.0;
        let mut n = 0;
        for wt in 1..=64u32 {
            let m = time_multiplier("dev", "w", 512, &cfg(wt, 2, 3, 1));
            sum += m;
            n += 1;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
