//! # experiments — the paper's evaluation, regenerated
//!
//! One binary per table/figure of *Sclocco et al., IPDPS 2014*; this
//! library holds the shared harness: building workloads from
//! observational setups, running full tuning sweeps over the five
//! modeled accelerators, and rendering gnuplot-style series tables.
//!
//! | Binary      | Reproduces |
//! |-------------|------------|
//! | `table1`    | Table I (device characteristics) |
//! | `fig02_03`  | Tuned work-items per work-group vs #DMs |
//! | `fig04_05`  | Tuned registers per work-item vs #DMs |
//! | `fig06_07`  | Tuned performance + real-time line |
//! | `fig08_09`  | SNR of the optimum |
//! | `fig10`     | Performance histogram (HD7970, Apertif) |
//! | `fig11_12`  | 0-DM perfect-reuse performance |
//! | `fig13_14`  | Speedup over the best fixed configuration |
//! | `fig15_16`  | Speedup over the CPU implementation |
//! | `sizing`    | Section V-D Apertif deployment sizing |
//! | `ablation`  | Model-mechanism ablation study (DESIGN.md §5) |
//! | `reproduce` | Everything above, in order |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use autotune::{ConfigSpace, InstanceResult, SimExecutor, SweepReport, Tuner, TuningResult};
use manycore_sim::{all_devices, CostModel, DeviceDescriptor, Workload};
use radioastro::{ObservationalSetup, PAPER_INSTANCES};

pub mod ablation;
pub mod figures;
pub mod out;
pub mod render;
pub mod scaffold;

/// Builds the cost-model workload for a (setup, instance) cell.
pub fn workload_for(setup: &ObservationalSetup, trials: usize, zero_dm: bool) -> Workload {
    let grid = setup.dm_grid(trials).expect("paper instances are valid");
    let w = Workload::analytic(setup.name.clone(), &setup.band, &grid, setup.sample_rate)
        .expect("paper setups are valid");
    if zero_dm {
        w.zero_dm()
    } else {
        w
    }
}

/// The experiment driver: a configuration space plus an instance sweep.
pub struct Harness {
    /// Candidate configuration values.
    pub space: ConfigSpace,
    /// Input instances (trial-DM counts) to sweep.
    pub instances: Vec<usize>,
}

impl Harness {
    /// The paper-scale harness: the full space over instances 2–4,096.
    pub fn paper() -> Self {
        Self {
            space: ConfigSpace::paper(),
            instances: PAPER_INSTANCES.to_vec(),
        }
    }

    /// A fast harness for tests and demos.
    pub fn quick() -> Self {
        Self {
            space: ConfigSpace::reduced(),
            instances: vec![16, 256, 2048],
        }
    }

    /// Runs the full tuning sweep for one (device, setup) pair,
    /// returning the raw per-instance tuning results.
    pub fn sweep_results(
        &self,
        device: &DeviceDescriptor,
        setup: &ObservationalSetup,
        zero_dm: bool,
    ) -> Vec<TuningResult> {
        let model = CostModel::new(device.clone());
        self.instances
            .iter()
            .map(|&trials| {
                let w = workload_for(setup, trials, zero_dm);
                Tuner.tune(&SimExecutor::new(&model, &w, &self.space))
            })
            .collect()
    }

    /// Runs the sweep and summarizes it as a [`SweepReport`].
    pub fn sweep(
        &self,
        device: &DeviceDescriptor,
        setup: &ObservationalSetup,
        zero_dm: bool,
    ) -> SweepReport {
        let results = self.sweep_results(device, setup, zero_dm);
        let instances = self
            .instances
            .iter()
            .zip(&results)
            .map(|(&trials, r)| InstanceResult::from_tuning(trials, r))
            .collect();
        SweepReport {
            device: device.name.clone(),
            setup: if zero_dm {
                format!("{}-0dm", setup.name)
            } else {
                setup.name.clone()
            },
            instances,
        }
    }

    /// Sweeps every Table I device for one setup.
    pub fn sweep_all_devices(&self, setup: &ObservationalSetup, zero_dm: bool) -> Vec<SweepReport> {
        all_devices()
            .iter()
            .map(|dev| self.sweep(dev, setup, zero_dm))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manycore_sim::amd_hd7970;

    #[test]
    fn workload_matches_setup() {
        let w = workload_for(&ObservationalSetup::apertif(), 128, false);
        assert_eq!(w.trials, 128);
        assert_eq!(w.channels, 1024);
        assert!(!w.gradient.iter().all(|&g| g == 0.0));
        let z = workload_for(&ObservationalSetup::apertif(), 128, true);
        assert!(z.gradient.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn quick_sweep_produces_report() {
        let h = Harness::quick();
        let rep = h.sweep(&amd_hd7970(), &ObservationalSetup::apertif(), false);
        assert_eq!(rep.instances.len(), 3);
        assert_eq!(rep.device, "AMD HD7970");
        assert_eq!(rep.setup, "Apertif");
        assert!(rep.instances.iter().all(|r| r.best_gflops > 0.0));
    }

    #[test]
    fn zero_dm_sweep_is_labeled() {
        let h = Harness::quick();
        let rep = h.sweep(&amd_hd7970(), &ObservationalSetup::lofar(), true);
        assert_eq!(rep.setup, "LOFAR-0dm");
    }
}
