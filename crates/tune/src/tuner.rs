//! The exhaustive tuner.
//!
//! As in the paper's first experiment (Section IV-A): execute the
//! algorithm for every meaningful configuration and select the one with
//! the highest single-precision GFLOP/s. The tuner is generic over an
//! [`Executor`] so the same driver tunes the analytic device model, a
//! measured host kernel, or anything else that can score a
//! configuration.

use dedisp_core::KernelConfig;
use manycore_sim::{Cell, CostModel, Workload};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::space::ConfigSpace;
use crate::stats::OptimizationStats;

/// Something that can score kernel configurations in GFLOP/s.
pub trait Executor: Sync {
    /// Label for reports (typically the device name).
    fn label(&self) -> String;

    /// The meaningful configurations to search, lent for the length of
    /// the search.
    fn configs(&self) -> &[KernelConfig];

    /// Scores one configuration; `None` if it fails at execution time.
    fn measure(&self, config: &KernelConfig) -> Option<f64>;
}

/// A tile's shape: `(tile_time, tile_dm)`.
type Shape = (u32, u32);

fn shape_of(config: &KernelConfig) -> Shape {
    (config.tile_time(), config.tile_dm())
}

/// An [`Executor`] backed by the analytic device model.
///
/// Construction does everything about the cell that no configuration
/// changes: one [`Cell`] context, the space filtered once, and the
/// per-channel traffic sum of each distinct tile shape among the
/// survivors ([`Cell::tile_lines`] — a few hundred shapes for a few
/// thousand configurations). [`Executor::measure`] then reads that
/// immutable table, so scoring a configuration never walks the
/// workload's channels and concurrent scoring shares no lock.
pub struct SimExecutor<'a> {
    cell: Cell<'a>,
    /// The space's meaningful configurations, in enumeration order.
    configs: Vec<KernelConfig>,
    /// Input lines per work-group of every tile shape in `configs`,
    /// sorted by shape. One flat allocation on purpose: a node-based map
    /// of the same few hundred entries fragments the heap enough to
    /// raise a sweep's peak RSS by a tenth.
    tile_lines: Vec<(Shape, f64)>,
}

impl<'a> SimExecutor<'a> {
    /// Wraps a cost model and workload as a tunable executor.
    pub fn new(model: &'a CostModel, workload: &'a Workload, space: &ConfigSpace) -> Self {
        let cell = model.cell(workload);
        let configs = space.meaningful_in(&cell);
        let mut tile_lines = Vec::new();
        for config in &configs {
            let shape = shape_of(config);
            if let Err(at) = find_shape(&tile_lines, shape) {
                tile_lines.insert(at, (shape, cell.tile_lines(shape.0, shape.1)));
            }
        }
        Self {
            cell,
            configs,
            tile_lines,
        }
    }
}

/// Where `shape` is in the sorted `table`, or where it would go.
fn find_shape(table: &[(Shape, f64)], shape: Shape) -> Result<usize, usize> {
    table.binary_search_by_key(&shape, |&(s, _)| s)
}

impl Executor for SimExecutor<'_> {
    fn label(&self) -> String {
        format!(
            "{} / {}",
            self.cell.device().name,
            self.cell.workload().name
        )
    }

    fn configs(&self) -> &[KernelConfig] {
        &self.configs
    }

    fn measure(&self, config: &KernelConfig) -> Option<f64> {
        self.cell.check(config).ok()?;
        let shape = shape_of(config);
        let tile_lines = match find_shape(&self.tile_lines, shape) {
            Ok(at) => self.tile_lines[at].1,
            // A valid configuration from outside the space.
            Err(_) => self.cell.tile_lines(shape.0, shape.1),
        };
        Some(self.cell.price(config, tile_lines).gflops)
    }
}

/// One scored configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The configuration.
    pub config: KernelConfig,
    /// Its score in GFLOP/s.
    pub gflops: f64,
}

/// The outcome of tuning one executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningResult {
    /// Executor label.
    pub label: String,
    /// Every scored configuration (the optimization space).
    pub samples: Vec<Sample>,
    /// Index of the optimum in `samples`.
    pub best_index: usize,
}

impl TuningResult {
    /// The optimal configuration.
    pub fn best_config(&self) -> KernelConfig {
        self.samples[self.best_index].config
    }

    /// The optimal score in GFLOP/s.
    pub fn best_gflops(&self) -> f64 {
        self.samples[self.best_index].gflops
    }

    /// Statistics of the whole optimization space.
    pub fn stats(&self) -> OptimizationStats {
        OptimizationStats::from_samples(self.samples.iter().map(|s| s.gflops))
    }

    /// The score of a specific configuration, if it was in the space.
    pub fn gflops_of(&self, config: &KernelConfig) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.config == *config)
            .map(|s| s.gflops)
    }
}

/// The exhaustive tuning driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tuner;

impl Tuner {
    /// Scores every configuration of `executor` (in parallel) and
    /// selects the optimum; `None` if no configuration can be measured.
    pub fn try_tune<E: Executor>(&self, executor: &E) -> Option<TuningResult> {
        let samples: Vec<Sample> = executor
            .configs()
            .par_iter()
            .filter_map(|c| {
                executor
                    .measure(c)
                    .map(|gflops| Sample { config: *c, gflops })
            })
            .collect();
        let best_index = samples
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.gflops.total_cmp(&b.1.gflops))?
            .0;
        Some(TuningResult {
            label: executor.label(),
            samples,
            best_index,
        })
    }

    /// [`Self::try_tune`] for a cell known to have a meaningful
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if no configuration can be measured — an empty optimization
    /// space means the (device, workload) pair is misconfigured.
    pub fn tune<E: Executor>(&self, executor: &E) -> TuningResult {
        self.try_tune(executor)
            .unwrap_or_else(|| panic!("empty optimization space for {}", executor.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand};
    use manycore_sim::{amd_hd7970, intel_xeon_phi_5110p, nvidia_gtx680, nvidia_k20};

    fn workload(name: &str, trials: usize) -> Workload {
        match name {
            "Apertif" => Workload::analytic(
                "Apertif",
                &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
                &DmGrid::paper_grid(trials).unwrap(),
                20_000,
            )
            .unwrap(),
            _ => Workload::analytic(
                "LOFAR",
                &FrequencyBand::new(138.0, 6.0 / 32.0, 32).unwrap(),
                &DmGrid::paper_grid(trials).unwrap(),
                200_000,
            )
            .unwrap(),
        }
    }

    fn tune(
        dev: manycore_sim::DeviceDescriptor,
        w: &Workload,
        space: &ConfigSpace,
    ) -> TuningResult {
        let model = CostModel::new(dev);
        let exec = SimExecutor::new(&model, w, space);
        Tuner.tune(&exec)
    }

    #[test]
    fn optimum_dominates_every_sample() {
        let space = ConfigSpace::reduced();
        let w = workload("Apertif", 256);
        let r = tune(amd_hd7970(), &w, &space);
        let best = r.best_gflops();
        assert!(r.samples.iter().all(|s| s.gflops <= best));
        assert_eq!(r.gflops_of(&r.best_config()), Some(best));
    }

    #[test]
    fn tuning_is_deterministic() {
        let space = ConfigSpace::reduced();
        let w = workload("LOFAR", 64);
        let a = tune(nvidia_gtx680(), &w, &space);
        let b = tune(nvidia_gtx680(), &w, &space);
        assert_eq!(a.best_config(), b.best_config());
        assert_eq!(a.samples.len(), b.samples.len());
    }

    #[test]
    fn hd7970_optimum_respects_wg_cap() {
        let space = ConfigSpace::paper();
        let w = workload("Apertif", 1024);
        let r = tune(amd_hd7970(), &w, &space);
        // The paper: the HD7970 never exceeds its 256 work-item hardware
        // ceiling (the model's flat optimum plateau may select smaller
        // groups of equivalent occupancy; see EXPERIMENTS.md).
        assert!(r.best_config().work_items() <= 256);
    }

    #[test]
    fn apertif_optimum_exploits_dm_reuse() {
        // Tuned Apertif configurations tile multiple DMs per work-group.
        let space = ConfigSpace::paper();
        let w = workload("Apertif", 1024);
        for dev in [amd_hd7970(), nvidia_k20()] {
            let r = tune(dev, &w, &space);
            assert!(
                r.best_config().tile_dm() >= 8,
                "{}: tile_dm {}",
                r.label,
                r.best_config().tile_dm()
            );
        }
    }

    #[test]
    fn lofar_optimum_uses_smaller_dm_tiles_than_apertif() {
        // The paper's adaptation story (Section V-A): less reuse in the
        // LOFAR setup ⇒ the tuner shifts from reuse to occupancy.
        let space = ConfigSpace::paper();
        for dev in [amd_hd7970(), nvidia_k20()] {
            let ap = tune(dev.clone(), &workload("Apertif", 1024), &space);
            let lo = tune(dev, &workload("LOFAR", 1024), &space);
            assert!(
                lo.best_config().tile_dm() < ap.best_config().tile_dm(),
                "{}: LOFAR {} !< Apertif {}",
                ap.label,
                lo.best_config().tile_dm(),
                ap.best_config().tile_dm()
            );
        }
    }

    #[test]
    fn phi_prefers_small_work_groups() {
        let space = ConfigSpace::paper();
        let w = workload("Apertif", 1024);
        let r = tune(intel_xeon_phi_5110p(), &w, &space);
        assert!(
            r.best_config().work_items() <= 64,
            "Phi optimum {}",
            r.best_config().work_items()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let space = ConfigSpace::reduced();
        let w = workload("Apertif", 128);
        let r = tune(amd_hd7970(), &w, &space);
        let st = r.stats();
        assert_eq!(st.count, r.samples.len());
        assert!(st.max <= r.best_gflops() + 1e-12);
        assert!(st.mean < st.max);
        assert!(st.snr_of_max() > 0.0);
    }

    /// A space whose only work-group is larger than any device accepts.
    fn impossible_space() -> ConfigSpace {
        ConfigSpace {
            wi_time: vec![4096],
            wi_dm: vec![1],
            el_time: vec![1],
            el_dm: vec![1],
        }
    }

    #[test]
    fn try_tune_reports_an_empty_space_without_panicking() {
        let model = CostModel::new(amd_hd7970());
        let w = workload("Apertif", 64);
        let space = impossible_space();
        let exec = SimExecutor::new(&model, &w, &space);
        assert!(exec.configs().is_empty());
        assert_eq!(Tuner.try_tune(&exec), None);
    }

    #[test]
    #[should_panic(expected = "empty optimization space for AMD HD7970 / Apertif")]
    fn tune_panics_on_an_empty_space() {
        let model = CostModel::new(amd_hd7970());
        let w = workload("Apertif", 64);
        let _ = Tuner.tune(&SimExecutor::new(&model, &w, &impossible_space()));
    }

    #[test]
    fn measure_prices_any_valid_configuration_as_the_model_does() {
        // The reduced space has no 25-wide tile: `outside` misses the
        // shape table and is priced the one-off way; `inside` hits it.
        let model = CostModel::new(nvidia_k20());
        let w = workload("Apertif", 256);
        let space = ConfigSpace::reduced();
        let exec = SimExecutor::new(&model, &w, &space);
        let inside = KernelConfig::new(64, 2, 4, 2).unwrap();
        let outside = KernelConfig::new(25, 2, 5, 2).unwrap();
        assert!(exec.configs().contains(&inside));
        assert!(!exec.configs().contains(&outside));
        for c in [inside, outside] {
            let expect = model.evaluate(&w, &c).unwrap().gflops;
            assert_eq!(exec.measure(&c).map(f64::to_bits), Some(expect.to_bits()));
        }
        let too_big = KernelConfig::new(1024, 4, 1, 1).unwrap();
        assert_eq!(exec.measure(&too_big), None);
    }
}
