//! Occupancy: how many work-groups a compute unit keeps resident, and
//! how much latency-hiding parallelism that provides.
//!
//! The paper's tuning results are occupancy stories: the HD7970 prefers
//! maximal work-groups of light work-items because its register file
//! sustains many resident wavefronts that saturate its bandwidth, while
//! the K20/Titan prefer fewer, register-heavy work-items whose unrolled
//! accumulators provide instruction-level parallelism instead
//! (Section V-A). This module computes exactly those resident limits.

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

use crate::cell::Cell;
use crate::constraints::registers_per_item;
use crate::device::DeviceDescriptor;
use crate::workload::Workload;

/// The binding resource that limits resident work-groups per compute
/// unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OccupancyLimit {
    /// The per-CU register file.
    Registers,
    /// Local (shared) memory used for tile staging.
    LocalMemory,
    /// The device's resident work-group slots.
    WorkGroupSlots,
    /// The device's resident wavefront slots.
    WaveSlots,
    /// Fewer work-groups exist than the device could keep resident.
    GridSize,
}

/// Occupancy figures for one (device, workload, config, grid) tuple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Wavefronts one work-group occupies.
    pub waves_per_wg: u32,
    /// Resident work-groups a compute unit can hold (resource limit).
    pub wg_per_cu_limit: u32,
    /// Which resource binds that limit.
    pub limited_by: OccupancyLimit,
    /// Work-groups actually resident per compute unit, averaged over the
    /// device (fractional when the grid cannot fill every CU).
    pub wg_per_cu_actual: f64,
    /// Wavefronts actually resident per compute unit.
    pub active_waves: f64,
    /// Fraction of SIMD lanes doing useful work in a full wavefront set
    /// (1.0 when `work_items` is a multiple of the SIMD width).
    pub simd_efficiency: f64,
}

impl Cell<'_> {
    /// Occupancy of `config` launched as `n_wg` work-groups on this
    /// cell.
    ///
    /// Callers must have validated `config` with [`Cell::check`] first;
    /// this function assumes at least one work-group fits on a compute
    /// unit.
    pub fn occupancy(&self, config: &KernelConfig, n_wg: u64) -> Occupancy {
        let device = self.device;
        let wi = config.work_items();
        let waves_per_wg = wi.div_ceil(device.simd_width);
        debug_assert!(waves_per_wg >= 1);

        let regs = registers_per_item(config);
        let by_regs = device.regfile_per_cu / (regs * wi).max(1);
        let lmem = self.local_bytes(config);
        let by_local = u64::from(device.local_mem_per_cu)
            .checked_div(lmem)
            .unwrap_or(u64::from(u32::MAX))
            .min(u64::from(u32::MAX)) as u32;
        let by_slots = device.max_wg_per_cu;
        let by_waves = device.max_waves_per_cu / waves_per_wg;

        let (wg_per_cu_limit, limited_by) = [
            (by_regs, OccupancyLimit::Registers),
            (by_local, OccupancyLimit::LocalMemory),
            (by_slots, OccupancyLimit::WorkGroupSlots),
            (by_waves, OccupancyLimit::WaveSlots),
        ]
        .into_iter()
        .min_by_key(|&(v, _)| v)
        .expect("non-empty limit list");
        debug_assert!(wg_per_cu_limit >= 1, "config must have been validated");

        let grid_share = n_wg as f64 / f64::from(device.compute_units);
        let (wg_per_cu_actual, limited_by) = if grid_share < f64::from(wg_per_cu_limit) {
            (grid_share, OccupancyLimit::GridSize)
        } else {
            (f64::from(wg_per_cu_limit), limited_by)
        };

        let active_waves = wg_per_cu_actual * f64::from(waves_per_wg);
        let simd_efficiency = f64::from(wi) / f64::from(waves_per_wg * device.simd_width);

        Occupancy {
            waves_per_wg,
            wg_per_cu_limit,
            limited_by,
            wg_per_cu_actual,
            active_waves,
            simd_efficiency,
        }
    }
}

impl Occupancy {
    /// Computes occupancy for `config` launched as `n_wg` work-groups:
    /// [`Cell::occupancy`] on a context built for this one question.
    ///
    /// Callers must have validated `config` with
    /// [`crate::constraints::check_config`] first; this function assumes
    /// at least one work-group fits on a compute unit.
    pub fn compute(
        device: &DeviceDescriptor,
        workload: &Workload,
        config: &KernelConfig,
        n_wg: u64,
    ) -> Self {
        Cell::new(device, workload).occupancy(config, n_wg)
    }

    /// The latency-hiding factor: thread-level parallelism (resident
    /// wavefronts towards the device's saturation point) boosted by the
    /// instruction-level parallelism of per-item unrolled accumulators.
    /// 1.0 means fully hidden latency.
    pub fn hiding(&self, device: &DeviceDescriptor, config: &KernelConfig) -> f64 {
        let ilp = 1.0 + device.ilp_hiding * (1.0 + f64::from(config.registers_per_item())).ln();
        (self.active_waves * ilp / device.waves_saturate).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{amd_hd7970, nvidia_k20};
    use dedisp_core::{DmGrid, FrequencyBand};

    fn workload(trials: usize) -> Workload {
        Workload::analytic(
            "Apertif",
            &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            20_000,
        )
        .unwrap()
    }

    #[test]
    fn light_items_fill_hd7970() {
        let dev = amd_hd7970();
        let w = workload(4096);
        // 256 light work-items: registers allow many resident groups.
        let c = KernelConfig::new(64, 4, 1, 2).unwrap();
        let occ = Occupancy::compute(&dev, &w, &c, 100_000);
        assert_eq!(occ.waves_per_wg, 4);
        assert!(occ.wg_per_cu_limit >= 8, "limit {}", occ.wg_per_cu_limit);
        assert!(occ.active_waves >= 32.0);
        assert!(occ.hiding(&dev, &c) == 1.0);
    }

    #[test]
    fn heavy_items_reduce_hd7970_occupancy() {
        let dev = amd_hd7970();
        let w = workload(4096);
        let heavy = KernelConfig::new(64, 4, 25, 4).unwrap(); // 100 acc regs
        let occ = Occupancy::compute(&dev, &w, &heavy, 100_000);
        assert_eq!(occ.limited_by, OccupancyLimit::Registers);
        let light = KernelConfig::new(64, 4, 1, 2).unwrap();
        let occ_light = Occupancy::compute(&dev, &w, &light, 100_000);
        assert!(occ.active_waves < occ_light.active_waves);
    }

    #[test]
    fn ilp_partially_compensates_on_k20() {
        // K20's big register budget: heavy items lose waves but gain ILP;
        // hiding stays high — the paper's "fewer work-items than the
        // maximum, but with more work associated".
        let dev = nvidia_k20();
        let w = workload(4096);
        let heavy = KernelConfig::new(32, 8, 25, 4).unwrap();
        let occ = Occupancy::compute(&dev, &w, &heavy, 100_000);
        assert!(occ.active_waves < 44.0);
        assert!(occ.hiding(&dev, &heavy) > 0.6);
    }

    #[test]
    fn small_grids_underfill_the_device() {
        let dev = amd_hd7970();
        let w = workload(2);
        let c = KernelConfig::new(64, 2, 1, 1).unwrap();
        // Only 8 work-groups for 32 CUs.
        let occ = Occupancy::compute(&dev, &w, &c, 8);
        assert_eq!(occ.limited_by, OccupancyLimit::GridSize);
        assert!(occ.wg_per_cu_actual < 1.0);
        assert!(occ.hiding(&dev, &c) < 0.5);
    }

    #[test]
    fn simd_rounding() {
        let dev = amd_hd7970(); // wavefront 64
        let w = workload(256);
        let ragged = KernelConfig::new(40, 2, 1, 1).unwrap(); // 80 items
        let occ = Occupancy::compute(&dev, &w, &ragged, 100_000);
        assert_eq!(occ.waves_per_wg, 2);
        assert!((occ.simd_efficiency - 80.0 / 128.0).abs() < 1e-12);
        let full = KernelConfig::new(64, 2, 1, 1).unwrap();
        let occ_full = Occupancy::compute(&dev, &w, &full, 100_000);
        assert_eq!(occ_full.simd_efficiency, 1.0);
    }

    #[test]
    fn local_memory_can_be_the_binder() {
        let dev = amd_hd7970();
        // A wide LOFAR-like gradient makes staging buffers huge.
        let w = Workload::analytic(
            "LOFAR",
            &FrequencyBand::new(138.0, 6.0 / 32.0, 32).unwrap(),
            &DmGrid::paper_grid(64).unwrap(),
            200_000,
        )
        .unwrap();
        let c = KernelConfig::new(128, 2, 8, 1).unwrap(); // tile 1024 x 2
        let occ = Occupancy::compute(&dev, &w, &c, 100_000);
        assert_eq!(occ.limited_by, OccupancyLimit::LocalMemory);
    }
}
