//! The paper's first experiment, pinned bit for bit: every score of
//! every meaningful configuration of all 120 (device, setup, instance)
//! cells on `ConfigSpace::paper()`, every optimum's index and every
//! best-fixed score fold into one fingerprint. The constant was computed
//! before the tuner priced a cell through a shared context, so any
//! change to a formula, to the enumeration order or to the filter moves
//! it.

use dedisp_repro::autotune::{best_fixed_config, ConfigSpace, SimExecutor, Tuner, TuningResult};
use dedisp_repro::manycore_sim::{all_devices, CostModel, Workload};
use dedisp_repro::radioastro::{ObservationalSetup, PAPER_INSTANCES};

/// Configurations scored by one sweep of the 120 cells.
const SWEEP_CONFIGS: usize = 242_474;

/// FNV-1a over everything the sweep produces, computed at the commit
/// before the per-cell context existed.
const SWEEP_FINGERPRINT: u64 = 0x523d_1e48_fc5e_be56;

/// 64-bit FNV-1a, fed whole words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn the_120_cell_sweep_is_bit_identical_to_the_pinned_parent() {
    let space = ConfigSpace::paper();
    let setups = [ObservationalSetup::apertif(), ObservationalSetup::lofar()];
    let mut fnv = Fnv::new();
    let mut configs = 0;
    for device in all_devices() {
        let model = CostModel::new(device);
        for setup in &setups {
            let sweep: Vec<TuningResult> = PAPER_INSTANCES
                .iter()
                .map(|&trials| {
                    let grid = setup.dm_grid(trials).unwrap();
                    let w = Workload::analytic(&setup.name, &setup.band, &grid, setup.sample_rate)
                        .unwrap();
                    Tuner.tune(&SimExecutor::new(&model, &w, &space))
                })
                .collect();
            for result in &sweep {
                configs += result.samples.len();
                for s in &result.samples {
                    let c = s.config;
                    for field in [c.wi_time(), c.wi_dm(), c.el_time(), c.el_dm()] {
                        fnv.word(u64::from(field));
                    }
                    fnv.word(s.gflops.to_bits());
                }
                fnv.word(result.best_index as u64);
            }
            for g in best_fixed_config(&sweep).fixed_gflops {
                fnv.word(g.to_bits());
            }
        }
    }
    assert_eq!(configs, SWEEP_CONFIGS);
    assert_eq!(
        fnv.0, SWEEP_FINGERPRINT,
        "sweep fingerprint {:#018x}",
        fnv.0
    );
}
