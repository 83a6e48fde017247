//! "Meaningful configuration" checks (paper, Section IV-A).
//!
//! The auto-tuner executes the algorithm "for every meaningful
//! combination of the four parameters", where meaningful means the
//! configuration "fulfills all the constraints posed by a specific
//! platform, setup and input instance". This module is that filter.

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

use crate::cell::Cell;
use crate::device::DeviceDescriptor;
use crate::workload::Workload;

/// Baseline registers every work-item needs regardless of configuration:
/// buffer pointers, loop counters, and index arithmetic.
pub const REG_BASE: u32 = 12;

/// Why a configuration is not meaningful on a (device, workload) pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigViolation {
    /// More work-items per work-group than the runtime accepts.
    WorkGroupTooLarge {
        /// Requested work-items.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// One work-group needs more wavefront slots than a compute unit has.
    TooManyWaves {
        /// Wavefronts the work-group occupies.
        requested: u32,
        /// Device limit per compute unit.
        limit: u32,
    },
    /// A single work-item exceeds the per-thread register ceiling.
    TooManyRegisters {
        /// Registers the work-item needs.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// A single work-group exceeds the compute unit's register file.
    RegisterFileOverflow {
        /// Registers the work-group needs.
        requested: u64,
        /// Register file size.
        limit: u32,
    },
    /// The tile's staging buffer exceeds local memory.
    LocalMemoryOverflow {
        /// Bytes the staging buffer needs.
        requested: u64,
        /// Local memory size.
        limit: u32,
    },
    /// The tile exceeds the problem in the time or DM dimension, so part
    /// of the work-group would be idle by construction.
    TileExceedsProblem {
        /// Human-readable dimension description.
        dimension: &'static str,
    },
}

impl std::fmt::Display for ConfigViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigViolation::WorkGroupTooLarge { requested, limit } => {
                write!(f, "work-group of {requested} exceeds limit {limit}")
            }
            ConfigViolation::TooManyWaves { requested, limit } => {
                write!(f, "work-group occupies {requested} waves, limit {limit}")
            }
            ConfigViolation::TooManyRegisters { requested, limit } => {
                write!(f, "work-item needs {requested} registers, limit {limit}")
            }
            ConfigViolation::RegisterFileOverflow { requested, limit } => {
                write!(
                    f,
                    "work-group needs {requested} registers, file holds {limit}"
                )
            }
            ConfigViolation::LocalMemoryOverflow { requested, limit } => {
                write!(
                    f,
                    "staging needs {requested} B of local memory, limit {limit}"
                )
            }
            ConfigViolation::TileExceedsProblem { dimension } => {
                write!(f, "tile exceeds problem in the {dimension} dimension")
            }
        }
    }
}

/// Registers one work-item of `config` uses: the base cost plus one
/// accumulator per computed element plus per-DM delay bookkeeping. This
/// is the model behind the paper's Figures 4–5 "registers per work-item".
pub fn registers_per_item(config: &KernelConfig) -> u32 {
    REG_BASE + config.registers_per_item() + 2 * config.el_dm()
}

/// Bytes of local memory one work-group of `config` needs on `workload`:
/// the widest per-channel staging span across the tile's trials. A
/// single-trial tile needs no staging (work-items read through cache).
///
/// Folds the workload's largest gradient on every call; a sweep goes
/// through a [`Cell`], which folded it once.
pub fn local_bytes(config: &KernelConfig, workload: &Workload) -> u64 {
    staging_bytes(config, workload.max_gradient())
}

/// [`local_bytes`] given the workload's largest gradient.
fn staging_bytes(config: &KernelConfig, max_gradient: f64) -> u64 {
    let tile_dm = config.tile_dm() as f64;
    if config.tile_dm() <= 1 {
        return 0;
    }
    let tile_time = config.tile_time() as f64;
    let worst = max_gradient * (tile_dm - 1.0);
    // Staging never exceeds the union of the trials' windows: disjoint
    // windows are loaded as separate segments, tile_time each.
    let span = tile_time + worst.min(tile_time * (tile_dm - 1.0));
    (span * 4.0).ceil() as u64
}

/// Checks whether `config` is meaningful for `device` and `workload`:
/// [`Cell::check`] on a context built for this one question.
///
/// # Errors
///
/// Returns the first violated constraint.
pub fn check_config(
    device: &DeviceDescriptor,
    workload: &Workload,
    config: &KernelConfig,
) -> Result<(), ConfigViolation> {
    Cell::new(device, workload).check(config)
}

impl Cell<'_> {
    /// [`local_bytes`] of `config` on this cell's workload.
    pub(crate) fn local_bytes(&self, config: &KernelConfig) -> u64 {
        staging_bytes(config, self.max_gradient)
    }

    /// Checks whether `config` is meaningful on this cell.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn check(&self, config: &KernelConfig) -> Result<(), ConfigViolation> {
        let (device, workload) = (self.device, self.workload);
        let wi = config.work_items();
        if wi > device.max_wg_size {
            return Err(ConfigViolation::WorkGroupTooLarge {
                requested: wi,
                limit: device.max_wg_size,
            });
        }
        let waves = wi.div_ceil(device.simd_width);
        if waves > device.max_waves_per_cu {
            return Err(ConfigViolation::TooManyWaves {
                requested: waves,
                limit: device.max_waves_per_cu,
            });
        }
        let regs = registers_per_item(config);
        if regs > device.max_regs_per_item {
            return Err(ConfigViolation::TooManyRegisters {
                requested: regs,
                limit: device.max_regs_per_item,
            });
        }
        let wg_regs = u64::from(regs) * u64::from(wi);
        if wg_regs > u64::from(device.regfile_per_cu) {
            return Err(ConfigViolation::RegisterFileOverflow {
                requested: wg_regs,
                limit: device.regfile_per_cu,
            });
        }
        let lmem = self.local_bytes(config);
        if lmem > u64::from(device.max_local_per_wg) {
            return Err(ConfigViolation::LocalMemoryOverflow {
                requested: lmem,
                limit: device.max_local_per_wg,
            });
        }
        if config.tile_time() as usize > workload.out_samples {
            return Err(ConfigViolation::TileExceedsProblem { dimension: "time" });
        }
        if config.tile_dm() as usize > workload.trials {
            return Err(ConfigViolation::TileExceedsProblem { dimension: "DM" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{amd_hd7970, intel_xeon_phi_5110p, nvidia_gtx680, nvidia_k20};
    use dedisp_core::{DmGrid, FrequencyBand};

    fn apertif_workload(trials: usize) -> Workload {
        Workload::analytic(
            "Apertif",
            &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            20_000,
        )
        .unwrap()
    }

    fn lofar_workload(trials: usize) -> Workload {
        Workload::analytic(
            "LOFAR",
            &FrequencyBand::new(138.0, 6.0 / 32.0, 32).unwrap(),
            &DmGrid::paper_grid(trials).unwrap(),
            200_000,
        )
        .unwrap()
    }

    #[test]
    fn register_model() {
        let c = KernelConfig::new(8, 4, 5, 2).unwrap();
        assert_eq!(registers_per_item(&c), REG_BASE + 10 + 4);
    }

    #[test]
    fn single_trial_tile_needs_no_local_memory() {
        let w = lofar_workload(64);
        let c = KernelConfig::new(256, 1, 4, 1).unwrap();
        assert_eq!(local_bytes(&c, &w), 0);
    }

    #[test]
    fn staging_grows_with_dm_tile_but_caps_at_union() {
        let w = lofar_workload(64);
        let narrow = KernelConfig::new(64, 2, 1, 1).unwrap(); // tile 64 x 2
        let wide = KernelConfig::new(64, 2, 1, 4).unwrap(); // tile 64 x 8
        assert!(local_bytes(&wide, &w) > local_bytes(&narrow, &w));
        // LOFAR's gradient (≈890 samples/trial at the lowest channel) far
        // exceeds a 64-sample tile: staging is capped at the disjoint
        // union (D × tile_time), never the raw span.
        let d = 8u64;
        let union_cap = 64 * d * 4;
        assert_eq!(local_bytes(&wide, &w), union_cap);
    }

    #[test]
    fn hd7970_rejects_large_work_groups() {
        let dev = amd_hd7970();
        let w = apertif_workload(256);
        let c = KernelConfig::new(32, 16, 1, 1).unwrap(); // 512 work-items
        assert!(matches!(
            check_config(&dev, &w, &c),
            Err(ConfigViolation::WorkGroupTooLarge { limit: 256, .. })
        ));
        let ok = KernelConfig::new(32, 8, 1, 1).unwrap();
        assert!(check_config(&dev, &w, &ok).is_ok());
    }

    #[test]
    fn gk104_register_ceiling_bites() {
        let dev = nvidia_gtx680();
        let w = apertif_workload(256);
        // 25×4 accumulators need well over 63 registers.
        let heavy = KernelConfig::new(16, 8, 25, 4).unwrap();
        assert!(matches!(
            check_config(&dev, &w, &heavy),
            Err(ConfigViolation::TooManyRegisters { .. })
        ));
        // The same shape is fine on GK110 (K20, 255 registers).
        assert!(check_config(&nvidia_k20(), &w, &heavy).is_ok());
    }

    #[test]
    fn register_file_limits_big_groups_of_heavy_items() {
        let dev = nvidia_k20();
        let w = apertif_workload(4096);
        // 1024 items × (12 + 100 + 8) regs = 122,880 > 65,536.
        let c = KernelConfig::new(256, 4, 25, 4).unwrap();
        assert!(matches!(
            check_config(&dev, &w, &c),
            Err(ConfigViolation::RegisterFileOverflow { .. })
        ));
    }

    #[test]
    fn phi_wave_slots_cap_work_group_size() {
        let dev = intel_xeon_phi_5110p();
        let w = apertif_workload(256);
        // 4 hyperthreads × 16-wide vectors: at most 64 work-items/group.
        let c = KernelConfig::new(128, 1, 1, 1).unwrap();
        assert!(matches!(
            check_config(&dev, &w, &c),
            Err(ConfigViolation::TooManyWaves { .. })
        ));
        let ok = KernelConfig::new(16, 1, 4, 1).unwrap();
        assert!(check_config(&dev, &w, &ok).is_ok());
    }

    #[test]
    fn tile_must_fit_problem() {
        let dev = amd_hd7970();
        let w = apertif_workload(4);
        let c = KernelConfig::new(16, 8, 1, 1).unwrap(); // DM tile 8 > 4
        assert!(matches!(
            check_config(&dev, &w, &c),
            Err(ConfigViolation::TileExceedsProblem { dimension: "DM" })
        ));
    }

    #[test]
    fn violations_render() {
        let dev = amd_hd7970();
        let w = apertif_workload(4);
        let c = KernelConfig::new(16, 8, 1, 1).unwrap();
        let msg = check_config(&dev, &w, &c).unwrap_err().to_string();
        assert!(msg.contains("DM"));
    }
}
