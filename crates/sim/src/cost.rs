//! The cost model: predicted execution time and GFLOP/s for a
//! (device, workload, configuration) triple.
//!
//! Execution time is the maximum of the memory phase and the compute
//! phase (they overlap on all modeled devices), each derated by the
//! latency-hiding utilization from [`crate::occupancy`], plus a fixed
//! launch overhead. The reported GFLOP/s uses the *useful* flop
//! (`d·s·c`), exactly as the paper's metric does, while padded
//! partial-tile work still costs time — so the tuner is pushed toward
//! tiles that divide the problem, as the paper's tuner was.

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

use crate::algorithm::Algorithm;
use crate::cell::Cell;
use crate::constraints::ConfigViolation;
use crate::device::DeviceDescriptor;
use crate::noise::{cell_key, keyed_multiplier};
use crate::workload::Workload;

/// Which phase dominated the predicted execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoundKind {
    /// DRAM traffic dominates (the paper's claim for every real setup).
    Memory,
    /// Instruction issue dominates (reachable only with abundant reuse).
    Compute,
}

/// The model's prediction for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Predicted wall-clock seconds for one invocation (one second of
    /// observed data).
    pub time_s: f64,
    /// Useful GFLOP/s — the paper's performance metric.
    pub gflops: f64,
    /// Seconds spent in the memory phase.
    pub mem_time_s: f64,
    /// Seconds spent in the compute phase.
    pub compute_time_s: f64,
    /// Which phase bound the execution.
    pub bound: BoundKind,
    /// Latency-hiding utilization in `[0, 1]`.
    pub utilization: f64,
    /// Achieved arithmetic intensity, flop/byte.
    pub achieved_ai: f64,
}

/// The analytic cost model for one device.
#[derive(Debug, Clone)]
pub struct CostModel {
    device: DeviceDescriptor,
    noise: bool,
}

impl CostModel {
    /// Creates a model with measurement-like perturbation enabled (the
    /// default used by all experiments).
    pub fn new(device: DeviceDescriptor) -> Self {
        Self {
            device,
            noise: true,
        }
    }

    /// Creates a noise-free model (exact analytic output), useful for
    /// invariant tests.
    pub fn exact(device: DeviceDescriptor) -> Self {
        Self {
            device,
            noise: false,
        }
    }

    /// The device this model simulates.
    pub fn device(&self) -> &DeviceDescriptor {
        &self.device
    }

    /// The pricing context of `workload` on this model's device: build
    /// it once per cell and ask it for every configuration.
    ///
    /// Costs one pass over the workload's channels.
    pub fn cell<'a>(&'a self, workload: &'a Workload) -> Cell<'a> {
        let mut cell = Cell::new(&self.device, workload);
        if self.noise {
            cell.noise_key = Some(cell_key(&self.device.name, &workload.name, workload.trials));
        }
        cell
    }

    /// Predicts the execution of `config` on `workload`:
    /// [`Cell::evaluate`] on a context built for this one question.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the configuration is not
    /// meaningful on this device/workload.
    pub fn evaluate(
        &self,
        workload: &Workload,
        config: &KernelConfig,
    ) -> Result<CostEstimate, ConfigViolation> {
        self.cell(workload).evaluate(config)
    }

    /// Predicts the execution of `config` on `workload` when the
    /// device runs `algorithm` instead of the brute-force kernel:
    /// [`Cell::evaluate_algorithm`] on a context built for this one
    /// question.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the configuration is not
    /// meaningful on this device/workload.
    pub fn evaluate_algorithm(
        &self,
        workload: &Workload,
        config: &KernelConfig,
        algorithm: Algorithm,
    ) -> Result<CostEstimate, ConfigViolation> {
        self.cell(workload).evaluate_algorithm(config, algorithm)
    }
}

impl Cell<'_> {
    /// Predicts the execution of `config` on this cell.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the configuration is not
    /// meaningful on this device/workload.
    pub fn evaluate(&self, config: &KernelConfig) -> Result<CostEstimate, ConfigViolation> {
        self.check(config)?;
        Ok(self.price(
            config,
            self.tile_lines(config.tile_time(), config.tile_dm()),
        ))
    }

    /// The price of a configuration that passed [`Cell::check`], given
    /// [`Cell::tile_lines`] of its tile shape. Touches no per-channel
    /// data, so a sweep that holds the lines of each shape prices a
    /// configuration in constant time.
    pub fn price(&self, config: &KernelConfig, tile_lines: f64) -> CostEstimate {
        let (dev, workload) = (self.device, self.workload);

        let (n_time, n_dm) = config.grid(workload.out_samples, workload.trials);
        let n_wg = (n_time * n_dm) as u64;
        let occ = self.occupancy(config, n_wg);
        let hiding = occ.hiding(dev, config);
        // Tiles spanning several trial DMs stage input through local
        // memory behind barriers; with few resident work-groups per CU
        // there is nothing to overlap the staging phase and barrier
        // drains with, so utilization degrades. Kernels without staging
        // (single-trial tiles) have no barriers at all.
        let stage_eff = if config.tile_dm() > 1 {
            occ.wg_per_cu_actual / (occ.wg_per_cu_actual + 1.0)
        } else {
            1.0
        };
        let u_mem = (hiding * stage_eff).max(1e-3);
        let u_comp = (hiding * stage_eff).max(1e-3);

        let traffic = self.traffic(config, tile_lines);
        let mem_time_s = traffic.total_bytes() / (dev.effective_bandwidth_gbs() * 1e9 * u_mem);

        // Per-item unrolling amortizes address/loop overhead on devices
        // whose pipelines depend on compiler-scheduled ILP.
        let unroll = f64::from(config.registers_per_item());
        let overhead =
            (dev.instr_per_flop - 1.0) / (1.0 + dev.unroll_amortization * (unroll - 1.0));
        let ceiling = dev.no_fma_peak_gflops() / (1.0 + overhead) * dev.compute_efficiency * 1e9;
        let compute_time_s = traffic.computed_flop / (ceiling * occ.simd_efficiency * u_comp);

        self.timed(
            config,
            mem_time_s,
            compute_time_s,
            hiding,
            traffic.achieved_ai(workload.useful_flop),
        )
    }

    /// Predicts the execution of `config` on this cell when the device
    /// runs `algorithm` instead of the brute-force kernel.
    ///
    /// The alternate algorithms move proportionally less data and issue
    /// proportionally fewer instructions, so both phases scale by the
    /// algorithm's [`Algorithm::work_ratio`] while the fixed launch
    /// overhead stays. The reported `gflops` remains the *effective
    /// science rate* — useful brute-force flop per second of predicted
    /// wall clock — so rates stay comparable across algorithms and a
    /// cheaper algorithm shows a *higher* effective rate.
    /// `Algorithm::BruteForce` returns exactly what [`Self::evaluate`]
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if the configuration is not
    /// meaningful on this device/workload.
    pub fn evaluate_algorithm(
        &self,
        config: &KernelConfig,
        algorithm: Algorithm,
    ) -> Result<CostEstimate, ConfigViolation> {
        let base = self.evaluate(config)?;
        if algorithm == Algorithm::BruteForce {
            return Ok(base);
        }
        let ratio = algorithm.work_ratio(self.workload);
        Ok(self.timed(
            config,
            base.mem_time_s * ratio,
            base.compute_time_s * ratio,
            base.utilization,
            base.achieved_ai,
        ))
    }

    /// The estimate whose two phases take `mem_time_s` and
    /// `compute_time_s`: they overlap, the launch overhead is added and
    /// the cell's perturbation applied.
    fn timed(
        &self,
        config: &KernelConfig,
        mem_time_s: f64,
        compute_time_s: f64,
        utilization: f64,
        achieved_ai: f64,
    ) -> CostEstimate {
        let mut time_s = self.device.launch_overhead_us * 1e-6 + mem_time_s.max(compute_time_s);
        if let Some(key) = self.noise_key {
            time_s *= keyed_multiplier(key, config);
        }
        let bound = if mem_time_s >= compute_time_s {
            BoundKind::Memory
        } else {
            BoundKind::Compute
        };
        CostEstimate {
            time_s,
            gflops: self.workload.useful_flop as f64 / time_s / 1e9,
            mem_time_s,
            compute_time_s,
            bound,
            utilization,
            achieved_ai,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{all_devices, amd_hd7970, intel_xeon_phi_5110p};
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
    fn invalid_config_is_rejected() {
        let model = CostModel::new(amd_hd7970());
        let w = apertif(64);
        let c = KernelConfig::new(512, 1, 1, 1).unwrap(); // > 256 items
        assert!(model.evaluate(&w, &c).is_err());
    }

    #[test]
    fn exact_model_is_deterministic_and_noise_free() {
        let exact = CostModel::exact(amd_hd7970());
        let noisy = CostModel::new(amd_hd7970());
        let w = apertif(512);
        let c = KernelConfig::new(64, 4, 2, 4).unwrap();
        let a = exact.evaluate(&w, &c).unwrap();
        let b = exact.evaluate(&w, &c).unwrap();
        assert_eq!(a.time_s, b.time_s);
        let n = noisy.evaluate(&w, &c).unwrap();
        assert!((n.time_s / a.time_s - 1.0).abs() <= 0.031);
    }

    #[test]
    fn gflops_consistent_with_time() {
        let model = CostModel::exact(amd_hd7970());
        let w = apertif(1024);
        let c = KernelConfig::new(64, 4, 2, 4).unwrap();
        let e = model.evaluate(&w, &c).unwrap();
        let expect = w.useful_flop as f64 / e.time_s / 1e9;
        assert!((e.gflops - expect).abs() < 1e-9);
        assert!(e.time_s > e.mem_time_s.max(e.compute_time_s));
    }

    #[test]
    fn more_bandwidth_never_slower() {
        let base = amd_hd7970();
        let mut fat = base.clone();
        fat.peak_bandwidth_gbs *= 2.0;
        let w = lofar(1024);
        let c = KernelConfig::new(128, 2, 2, 1).unwrap();
        let t_base = CostModel::exact(base).evaluate(&w, &c).unwrap().time_s;
        let t_fat = CostModel::exact(fat).evaluate(&w, &c).unwrap().time_s;
        assert!(t_fat <= t_base);
    }

    #[test]
    fn lofar_is_memory_bound_apertif_tiles_can_be_compute_bound() {
        // The paper's central claim, per setup: LOFAR (no reuse) is
        // memory-bound; Apertif with a wide DM tile saturates compute.
        let model = CostModel::exact(amd_hd7970());
        let lo = lofar(1024);
        let no_reuse = KernelConfig::new(256, 1, 4, 1).unwrap();
        let e = model.evaluate(&lo, &no_reuse).unwrap();
        assert_eq!(e.bound, BoundKind::Memory);

        let ap = apertif(1024);
        let wide = KernelConfig::new(64, 4, 4, 8).unwrap(); // D = 32
        let e = model.evaluate(&ap, &wide).unwrap();
        assert_eq!(e.bound, BoundKind::Compute);
    }

    #[test]
    fn apertif_plateau_near_paper_value() {
        // Figure 6: the tuned HD7970 plateaus around 350 GFLOP/s. A good
        // hand-picked configuration should land in that neighborhood.
        let model = CostModel::exact(amd_hd7970());
        let w = apertif(4096);
        let c = KernelConfig::new(64, 4, 4, 8).unwrap();
        let e = model.evaluate(&w, &c).unwrap();
        assert!(
            e.gflops > 250.0 && e.gflops < 450.0,
            "HD7970 Apertif {} GFLOP/s",
            e.gflops
        );
    }

    #[test]
    fn phi_is_roughly_an_order_of_magnitude_slower_on_apertif() {
        let hd = CostModel::exact(amd_hd7970());
        let phi = CostModel::exact(intel_xeon_phi_5110p());
        let w = apertif(4096);
        let hd_best = hd
            .evaluate(&w, &KernelConfig::new(64, 4, 4, 8).unwrap())
            .unwrap();
        let phi_best = phi
            .evaluate(&w, &KernelConfig::new(16, 4, 4, 8).unwrap())
            .unwrap();
        let ratio = hd_best.gflops / phi_best.gflops;
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn performance_grows_then_plateaus_with_instance_size() {
        let model = CostModel::exact(amd_hd7970());
        let c = KernelConfig::new(64, 4, 2, 2).unwrap(); // D = 8
        let g = |trials: usize| model.evaluate(&apertif(trials), &c).unwrap().gflops;
        let small = g(8);
        let mid = g(256);
        let large = g(4096);
        assert!(small < mid, "small {small}, mid {mid}");
        // Beyond saturation the curve flattens (within 25%).
        assert!((large - mid).abs() / mid < 0.25, "mid {mid}, large {large}");
    }

    #[test]
    fn zero_dm_boosts_lofar_much_more_than_apertif() {
        // The paper's third experiment (Figures 11-12): with all delays
        // zero, LOFAR's performance jumps to Apertif-like levels while
        // Apertif barely moves.
        let model = CostModel::exact(amd_hd7970());
        let c = KernelConfig::new(64, 4, 2, 4).unwrap(); // D = 16
        let lo = lofar(1024);
        let ap = apertif(1024);
        let lo_gain = model.evaluate(&lo.zero_dm(), &c).unwrap().gflops
            / model.evaluate(&lo, &c).unwrap().gflops;
        let ap_gain = model.evaluate(&ap.zero_dm(), &c).unwrap().gflops
            / model.evaluate(&ap, &c).unwrap().gflops;
        assert!(lo_gain > 2.0, "LOFAR gain {lo_gain}");
        assert!(ap_gain < 1.3, "Apertif gain {ap_gain}");
    }

    #[test]
    fn brute_force_algorithm_is_the_classic_model_bit_for_bit() {
        let model = CostModel::new(amd_hd7970());
        let w = apertif(2000);
        let c = KernelConfig::new(64, 4, 4, 8).unwrap();
        let classic = model.evaluate(&w, &c).unwrap();
        let routed = model
            .evaluate_algorithm(&w, &c, Algorithm::BruteForce)
            .unwrap();
        assert_eq!(classic, routed);
    }

    #[test]
    fn subband_raises_the_effective_rate_at_survey_scale() {
        let model = CostModel::exact(amd_hd7970());
        let w = apertif(2000);
        let c = KernelConfig::new(64, 4, 4, 8).unwrap();
        let brute = model.evaluate(&w, &c).unwrap();
        let sub = model
            .evaluate_algorithm(&w, &c, Algorithm::Subband { factor: 32 })
            .unwrap();
        assert!(sub.time_s < brute.time_s);
        assert!(sub.gflops > brute.gflops);
    }

    #[test]
    fn all_devices_evaluate_some_config() {
        let w = apertif(256);
        for dev in all_devices() {
            let wi_time = if dev.name.contains("Phi") { 16 } else { 64 };
            let c = KernelConfig::new(wi_time, 2, 2, 2).unwrap();
            let model = CostModel::new(dev);
            let e = model.evaluate(&w, &c).unwrap();
            assert!(e.gflops > 0.0 && e.time_s > 0.0);
            assert!(e.utilization > 0.0 && e.utilization <= 1.0);
        }
    }
}
