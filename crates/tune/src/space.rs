//! Candidate configuration enumeration.
//!
//! The four parameters range over value sets chosen as the paper's do:
//! powers of two (the natural SIMD-friendly sizes) *and* multiples of
//! five (the divisors of the 20,000 and 200,000 samples/second time
//! resolutions — the paper's LOFAR optima, such as 250 × 4 work-items,
//! are of this kind). A configuration enters the search only if it is
//! *meaningful*: it satisfies every device, setup, and instance
//! constraint (Section IV-A).

use dedisp_core::KernelConfig;
use manycore_sim::{Cell, DeviceDescriptor, Workload};
use serde::{Deserialize, Serialize};

/// The candidate value sets for the four tunable parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSpace {
    /// Candidate work-items per work-group, time dimension.
    pub wi_time: Vec<u32>,
    /// Candidate work-items per work-group, DM dimension.
    pub wi_dm: Vec<u32>,
    /// Candidate elements per work-item, time dimension.
    pub el_time: Vec<u32>,
    /// Candidate elements per work-item, DM dimension.
    pub el_dm: Vec<u32>,
}

impl ConfigSpace {
    /// The full search space used by the paper-scale experiments.
    pub fn paper() -> Self {
        let mut wi_time = vec![
            2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, // powers of two
            5, 10, 20, 25, 50, 100, 125, 200, 250, 500, 1000, // divisors of s
        ];
        wi_time.sort_unstable();
        let mut el_time = vec![1, 2, 4, 8, 16, 32, 5, 10, 20, 25];
        el_time.sort_unstable();
        Self {
            wi_time,
            wi_dm: vec![1, 2, 4, 8, 16, 32],
            el_time,
            el_dm: vec![1, 2, 4, 8, 16],
        }
    }

    /// A reduced space for unit tests and quick demos: two orders of
    /// magnitude fewer evaluations, same qualitative structure.
    pub fn reduced() -> Self {
        Self {
            wi_time: vec![4, 16, 64, 250, 256],
            wi_dm: vec![1, 2, 4],
            el_time: vec![1, 4, 8],
            el_dm: vec![1, 2, 4],
        }
    }

    /// Total raw combinations before constraint filtering.
    pub fn raw_size(&self) -> usize {
        self.wi_time.len() * self.wi_dm.len() * self.el_time.len() * self.el_dm.len()
    }

    /// Enumerates every raw combination (unfiltered). A combination
    /// [`KernelConfig::new`] rejects — a zero, or a tile or work-group
    /// overflowing `u32` — is not a configuration and is skipped.
    pub fn raw_configs(&self) -> Vec<KernelConfig> {
        self.collect(|_| true)
    }

    /// Enumerates the *meaningful* configurations for a (device,
    /// workload) pair — the paper's tuning population.
    pub fn meaningful(&self, device: &DeviceDescriptor, workload: &Workload) -> Vec<KernelConfig> {
        self.meaningful_in(&Cell::new(device, workload))
    }

    /// [`Self::meaningful`] for a cell whose context already exists.
    pub(crate) fn meaningful_in(&self, cell: &Cell<'_>) -> Vec<KernelConfig> {
        self.collect(|c| cell.check(c).is_ok())
    }

    /// The configurations `keep` accepts, in enumeration order (`wi_time`
    /// outermost, `el_dm` innermost) — the space's one loop nest, which
    /// never holds the rejected combinations.
    pub(crate) fn collect(&self, keep: impl Fn(&KernelConfig) -> bool) -> Vec<KernelConfig> {
        let mut out = Vec::new();
        for &wt in &self.wi_time {
            for &wd in &self.wi_dm {
                for &et in &self.el_time {
                    for &ed in &self.el_dm {
                        match KernelConfig::new(wt, wd, et, ed) {
                            Ok(config) if keep(&config) => out.push(config),
                            _ => {}
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for ConfigSpace {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand};
    use manycore_sim::{amd_hd7970, intel_xeon_phi_5110p, nvidia_gtx680};

    fn apertif(trials: usize) -> Workload {
        Workload::analytic(
            "Apertif",
            &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            20_000,
        )
        .unwrap()
    }

    #[test]
    fn paper_space_has_thousands_of_candidates() {
        let s = ConfigSpace::paper();
        assert!(s.raw_size() > 5_000, "raw {}", s.raw_size());
        assert_eq!(s.raw_configs().len(), s.raw_size());
    }

    #[test]
    fn space_includes_paper_optima_shapes() {
        let s = ConfigSpace::paper();
        let configs = s.raw_configs();
        // GTX 680 Apertif: 32 × 32 work-items.
        assert!(configs.iter().any(|c| c.wi_time() == 32 && c.wi_dm() == 32));
        // GTX 680 LOFAR: 250 × 4 work-items.
        assert!(configs.iter().any(|c| c.wi_time() == 250 && c.wi_dm() == 4));
        // K20 Apertif registers: 25 × 4 elements.
        assert!(configs.iter().any(|c| c.el_time() == 25 && c.el_dm() == 4));
    }

    #[test]
    fn meaningful_respects_device_limits() {
        let s = ConfigSpace::paper();
        let w = apertif(1024);
        let hd = s.meaningful(&amd_hd7970(), &w);
        assert!(!hd.is_empty());
        assert!(hd.iter().all(|c| c.work_items() <= 256));

        let phi = s.meaningful(&intel_xeon_phi_5110p(), &w);
        assert!(phi.iter().all(|c| c.work_items() <= 64));

        let gtx = s.meaningful(&nvidia_gtx680(), &w);
        assert!(gtx.iter().any(|c| c.work_items() == 1024));
        // GK104's 63-register ceiling excludes heavy accumulator sets.
        assert!(gtx
            .iter()
            .all(|c| c.registers_per_item() + 12 + 2 * c.el_dm() <= 63));
    }

    #[test]
    fn small_instances_shrink_the_space() {
        let s = ConfigSpace::paper();
        let big = s.meaningful(&amd_hd7970(), &apertif(4096));
        let tiny = s.meaningful(&amd_hd7970(), &apertif(2));
        assert!(tiny.len() < big.len());
        assert!(tiny.iter().all(|c| c.tile_dm() <= 2));
    }

    #[test]
    fn meaningful_is_the_raw_enumeration_filtered_in_order() {
        let s = ConfigSpace::paper();
        let (dev, w) = (nvidia_gtx680(), apertif(64));
        let filtered: Vec<_> = s
            .raw_configs()
            .into_iter()
            .filter(|c| manycore_sim::check_config(&dev, &w, c).is_ok())
            .collect();
        assert!(filtered.len() < s.raw_size());
        assert_eq!(s.meaningful(&dev, &w), filtered);
    }

    #[test]
    fn combinations_that_are_not_configurations_are_skipped() {
        // A zero, and a work-group of 2 × u32::MAX items.
        let s = ConfigSpace {
            wi_time: vec![0, 2, u32::MAX],
            wi_dm: vec![1, 2],
            el_time: vec![1],
            el_dm: vec![1],
        };
        let shapes: Vec<_> = s
            .raw_configs()
            .iter()
            .map(|c| (c.wi_time(), c.wi_dm()))
            .collect();
        assert_eq!(shapes, vec![(2, 1), (2, 2), (u32::MAX, 1)]);
    }

    #[test]
    fn reduced_space_is_much_smaller() {
        assert!(ConfigSpace::reduced().raw_size() * 20 < ConfigSpace::paper().raw_size());
    }
}
