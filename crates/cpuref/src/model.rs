//! The Xeon E5-2620 as a cost-model device.
//!
//! Expressing the CPU in the same [`DeviceDescriptor`] vocabulary lets
//! the speedup figures (15–16) come from one model instead of two: a
//! "work-group" is a thread's block of work, the SIMD width is an AVX
//! vector, and latency hiding needs no wavefront pressure because the
//! hardware prefetchers do it (saturation at a single "wave").

use dedisp_core::KernelConfig;
use manycore_sim::{CostModel, DeviceDescriptor, Vendor, Workload};

/// The Intel Xeon E5-2620 (Sandy Bridge EP, 6 cores @ 2.0 GHz, AVX) used
/// by the paper's CPU comparison, compiled with icc 13.1.
pub fn xeon_e5_2620() -> DeviceDescriptor {
    DeviceDescriptor {
        name: "Intel Xeon E5-2620".into(),
        vendor: Vendor::Intel,
        compute_units: 6,
        elems_per_cu: 8,
        // 6 cores × 2.0 GHz × (8-wide add + 8-wide mul) = 192 GFLOP/s.
        peak_gflops: 192.0,
        // 4 × DDR3-1333 channels ≈ 42.6 GB/s.
        peak_bandwidth_gbs: 42.6,
        simd_width: 8,
        max_wg_size: 64,
        // Plentiful: 16 AVX registers spill to a warm L1.
        regfile_per_cu: 1 << 20,
        max_regs_per_item: 64,
        // Reuse happens in the 256 KiB L2, not a scratchpad.
        local_mem_per_cu: 262_144,
        max_local_per_wg: 262_144,
        cache_line_bytes: 64,
        max_wg_per_cu: 2,
        max_waves_per_cu: 2,
        // A parallel-for dispatch, not a driver round-trip.
        launch_overhead_us: 15.0,
        // Scalar address arithmetic, loads and loop control per
        // vectorized accumulate.
        instr_per_flop: 4.0,
        // icc-vectorized but bound by load ports on unaligned streams.
        compute_efficiency: 0.25,
        bandwidth_efficiency: 0.60,
        ilp_hiding: 0.2,
        // icc already unrolls the AVX loop; no further modeled gain.
        unroll_amortization: 0.0,
        // Out-of-order cores + prefetchers: no thread oversubscription
        // needed to reach streaming bandwidth.
        waves_saturate: 1.0,
    }
}

/// The best GFLOP/s the modeled CPU reaches on `workload` over a small
/// CPU-shaped configuration sweep (thread blocks × vector chunks). This
/// is the denominator of the paper's Figures 15–16.
pub fn tuned_cpu_gflops(workload: &Workload) -> f64 {
    let model = CostModel::new(xeon_e5_2620());
    let cell = model.cell(workload);
    let mut best = 0.0f64;
    // Blocks of 8-wide vectors; one thread per (trial, block).
    for wi_time in [8u32, 16, 32, 64] {
        for el_time in [1u32, 2, 4, 8, 16, 32] {
            for el_dm in [1u32, 2, 4] {
                let Ok(config) = KernelConfig::new(wi_time, 1, el_time, el_dm) else {
                    continue;
                };
                if let Ok(e) = cell.evaluate(&config) {
                    best = best.max(e.gflops);
                }
            }
        }
    }
    assert!(best > 0.0, "CPU model must evaluate at least one config");
    best
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn cpu_sustains_single_digit_gflops() {
        // The paper's many-core speedups (up to ~60x for a ~350 GFLOP/s
        // GPU) put the CPU baseline in single-digit GFLOP/s territory.
        let ap = tuned_cpu_gflops(&apertif(1024));
        assert!(ap > 2.0 && ap < 15.0, "Apertif CPU {ap}");
        let lo = tuned_cpu_gflops(&lofar(1024));
        assert!(lo > 2.0 && lo < 15.0, "LOFAR CPU {lo}");
    }

    #[test]
    fn gpu_speedup_bands_match_figures_15_16() {
        // Figure 15 (Apertif): HD7970 tens of times faster than the CPU.
        let ap = apertif(1024);
        let cpu = tuned_cpu_gflops(&ap);
        let hd = CostModel::new(manycore_sim::amd_hd7970())
            .evaluate(&ap, &KernelConfig::new(4, 16, 20, 1).unwrap())
            .unwrap()
            .gflops;
        let speedup = hd / cpu;
        assert!(
            speedup > 20.0 && speedup < 90.0,
            "Apertif speedup {speedup}"
        );

        // Figure 16 (LOFAR): the gap narrows to order-10x.
        let lo = lofar(1024);
        let cpu = tuned_cpu_gflops(&lo);
        let hd = CostModel::new(manycore_sim::amd_hd7970())
            .evaluate(&lo, &KernelConfig::new(100, 2, 25, 2).unwrap())
            .unwrap()
            .gflops;
        let speedup = hd / cpu;
        assert!(speedup > 4.0 && speedup < 25.0, "LOFAR speedup {speedup}");
    }

    #[test]
    fn device_descriptor_is_self_consistent() {
        let d = xeon_e5_2620();
        assert_eq!(d.compute_elements(), 48);
        assert!(d.dedispersion_compute_ceiling_gflops() < 10.0);
        assert!(d.effective_bandwidth_gbs() < 30.0);
    }
}
