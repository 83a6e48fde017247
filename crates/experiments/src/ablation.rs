//! Model ablations: which mechanism produces which paper phenomenon.
//!
//! DESIGN.md §5 calls out the cost model's design choices. Each ablation
//! removes one mechanism and re-runs the full tuning experiment, showing
//! what that mechanism contributes:
//!
//! * `no-reuse` — restrict the search to single-trial tiles (no
//!   local-memory data-reuse). Collapses Apertif to LOFAR-like levels;
//!   this is the paper's central data-reuse argument.
//! * `no-ilp` — per-item unrolled accumulators no longer help hide
//!   latency. Hurts the register-heavy Kepler optima.
//! * `no-unroll` — unrolling no longer amortizes instruction overhead.
//!   Removes the K20/Titan register story of Figures 4–5.
//! * `element-lines` — 4-byte memory transactions (no cache-line
//!   granularity): misalignment becomes free, removing the paper's
//!   ≤ 2× overhead mechanism.

use autotune::{ConfigSpace, Executor, SimExecutor, Tuner};
use dedisp_core::KernelConfig;
use manycore_sim::{all_devices, CostModel, DeviceDescriptor, Workload};
use radioastro::ObservationalSetup;

use crate::render::kv_table;
use crate::workload_for;

/// One ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The unmodified model.
    Full,
    /// Single-trial tiles only: no DM-dimension data-reuse.
    NoReuse,
    /// `ilp_hiding = 0` on every device.
    NoIlp,
    /// `unroll_amortization = 0` on every device.
    NoUnroll,
    /// 4-byte transactions: no cache-line granularity.
    ElementLines,
}

impl Ablation {
    /// All variants, baseline first.
    pub const ALL: [Ablation; 5] = [
        Ablation::Full,
        Ablation::NoReuse,
        Ablation::NoIlp,
        Ablation::NoUnroll,
        Ablation::ElementLines,
    ];

    /// Short stable label.
    pub fn label(&self) -> &'static str {
        match self {
            Ablation::Full => "full",
            Ablation::NoReuse => "no-reuse",
            Ablation::NoIlp => "no-ilp",
            Ablation::NoUnroll => "no-unroll",
            Ablation::ElementLines => "element-lines",
        }
    }

    /// Applies the ablation to a device descriptor.
    pub fn apply(&self, mut device: DeviceDescriptor) -> DeviceDescriptor {
        match self {
            Ablation::Full | Ablation::NoReuse => {}
            Ablation::NoIlp => device.ilp_hiding = 0.0,
            Ablation::NoUnroll => device.unroll_amortization = 0.0,
            Ablation::ElementLines => device.cache_line_bytes = 4,
        }
        device
    }
}

/// A `SimExecutor` wrapper that (for `no-reuse`) filters the space down
/// to single-trial tiles.
struct AblatedExecutor<'a> {
    inner: SimExecutor<'a>,
    /// The single-trial subset of `inner`'s configurations, when only
    /// those are searched.
    single_trial: Option<Vec<KernelConfig>>,
}

impl Executor for AblatedExecutor<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn configs(&self) -> &[KernelConfig] {
        self.single_trial
            .as_deref()
            .unwrap_or_else(|| self.inner.configs())
    }

    fn measure(&self, config: &KernelConfig) -> Option<f64> {
        self.inner.measure(config)
    }
}

/// Tuned GFLOP/s of one (ablation, device, setup) cell at `trials` DMs.
pub fn ablated_gflops(
    ablation: Ablation,
    device: &DeviceDescriptor,
    setup: &ObservationalSetup,
    trials: usize,
    space: &ConfigSpace,
) -> f64 {
    let device = ablation.apply(device.clone());
    let workload: Workload = workload_for(setup, trials, false);
    let model = CostModel::new(device);
    let inner = SimExecutor::new(&model, &workload, space);
    let single_trial = (ablation == Ablation::NoReuse).then(|| {
        let configs = inner.configs().iter();
        configs.filter(|c| c.tile_dm() == 1).copied().collect()
    });
    let executor = AblatedExecutor {
        inner,
        single_trial,
    };
    Tuner.tune(&executor).best_gflops()
}

/// Renders the full ablation study at 1,024 trial DMs.
pub fn ablation_study() -> String {
    let space = ConfigSpace::paper();
    let mut out = String::new();
    for setup in [ObservationalSetup::apertif(), ObservationalSetup::lofar()] {
        let mut rows = Vec::new();
        for device in all_devices() {
            let mut cells = Vec::new();
            for ab in Ablation::ALL {
                let g = ablated_gflops(ab, &device, &setup, 1024, &space);
                cells.push(format!("{}={:>6.1}", ab.label(), g));
            }
            rows.push((device.name.clone(), cells.join("  ")));
        }
        out.push_str(&kv_table(
            &format!(
                "Ablation study, {} @ 1024 DMs (tuned GFLOP/s per model variant)",
                setup.name
            ),
            &rows,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use manycore_sim::{amd_hd7970, nvidia_k20};

    fn space() -> ConfigSpace {
        ConfigSpace::paper()
    }

    #[test]
    fn removing_reuse_collapses_apertif_not_lofar() {
        let hd = amd_hd7970();
        let apertif = ObservationalSetup::apertif();
        let lofar = ObservationalSetup::lofar();
        let s = space();
        let full_ap = ablated_gflops(Ablation::Full, &hd, &apertif, 1024, &s);
        let none_ap = ablated_gflops(Ablation::NoReuse, &hd, &apertif, 1024, &s);
        let full_lo = ablated_gflops(Ablation::Full, &hd, &lofar, 1024, &s);
        let none_lo = ablated_gflops(Ablation::NoReuse, &hd, &lofar, 1024, &s);
        // Apertif lives on reuse: > 4x loss. LOFAR barely has any: < 2x.
        assert!(
            full_ap / none_ap > 4.0,
            "Apertif loss {}",
            full_ap / none_ap
        );
        assert!(full_lo / none_lo < 2.0, "LOFAR loss {}", full_lo / none_lo);
        // And without reuse, Apertif sinks to the Eq. 2 roofline zone.
        assert!(none_ap < 70.0, "no-reuse Apertif {none_ap}");
    }

    #[test]
    fn removing_unroll_hurts_kepler_not_gcn() {
        let s = space();
        let apertif = ObservationalSetup::apertif();
        let k20 = nvidia_k20();
        let full = ablated_gflops(Ablation::Full, &k20, &apertif, 1024, &s);
        let cut = ablated_gflops(Ablation::NoUnroll, &k20, &apertif, 1024, &s);
        assert!(full / cut > 1.3, "K20 unroll gain {}", full / cut);

        let hd = amd_hd7970();
        let full = ablated_gflops(Ablation::Full, &hd, &apertif, 1024, &s);
        let cut = ablated_gflops(Ablation::NoUnroll, &hd, &apertif, 1024, &s);
        assert!(
            (full / cut - 1.0).abs() < 0.05,
            "HD unroll gain {}",
            full / cut
        );
    }

    #[test]
    fn element_granularity_never_hurts() {
        // Removing cache-line rounding can only reduce modeled traffic.
        let s = space();
        for setup in [ObservationalSetup::apertif(), ObservationalSetup::lofar()] {
            let hd = amd_hd7970();
            let full = ablated_gflops(Ablation::Full, &hd, &setup, 256, &s);
            let fine = ablated_gflops(Ablation::ElementLines, &hd, &setup, 256, &s);
            assert!(
                fine >= full * 0.97,
                "{}: full {full}, fine {fine}",
                setup.name
            );
        }
    }

    #[test]
    fn study_renders_all_cells() {
        let text = ablation_study();
        for ab in Ablation::ALL {
            assert!(text.contains(ab.label()), "{}", ab.label());
        }
        assert!(text.contains("AMD HD7970"));
        assert!(text.contains("LOFAR"));
    }
}
