//! Property-based tests of the tuner: optimality, statistics, and
//! fixed-configuration invariants over arbitrary (device, workload)
//! pairs.

use autotune::{best_fixed_config, ConfigSpace, OptimizationStats, SimExecutor, Tuner};
use dedisp_core::{DedispersionPlan, DmGrid, FrequencyBand};
use manycore_sim::{all_devices, CostModel, Workload};
use proptest::prelude::*;

/// How a drawn workload gets its gradient.
#[derive(Debug, Clone, Copy)]
enum Gradient {
    /// Eq. 1 evaluated per channel: smooth and strictly decreasing.
    Analytic,
    /// From a built plan's whole-sample delays: ties and plateaus.
    FromPlan,
    /// All zeros.
    ZeroDm,
}

/// Small problems on purpose: few channels, instances and seconds short
/// enough that the tile-exceeds-problem checks reject part of the space.
fn arb_small_workload() -> impl Strategy<Value = Workload> {
    (
        100.0f64..1500.0, // low MHz
        0.05f64..1.0,     // channel width
        1usize..=96,      // channels
        prop::sample::select(vec![40u32, 250, 1_000, 20_000]),
        prop::sample::select(vec![1usize, 2, 3, 6, 16, 40]),
        prop::sample::select(vec![
            Gradient::Analytic,
            Gradient::FromPlan,
            Gradient::ZeroDm,
        ]),
    )
        .prop_map(|(low, width, channels, rate, trials, gradient)| {
            let band = FrequencyBand::new(low, width, channels).expect("valid band");
            let grid = DmGrid::paper_grid(trials).expect("valid grid");
            let analytic = || Workload::analytic("prop", &band, &grid, rate).expect("valid");
            match gradient {
                Gradient::Analytic => analytic(),
                Gradient::ZeroDm => analytic().zero_dm(),
                Gradient::FromPlan => {
                    let plan = DedispersionPlan::builder()
                        .band(band)
                        .dm_grid(grid)
                        .sample_rate(rate)
                        .build()
                        .expect("valid plan");
                    Workload::from_plan("prop", &plan)
                }
            }
        })
}

fn workload(channels: usize, rate: u32, trials: usize) -> Workload {
    Workload::analytic(
        "prop",
        &FrequencyBand::new(200.0, 0.5, channels).expect("valid band"),
        &DmGrid::paper_grid(trials).expect("valid grid"),
        rate,
    )
    .expect("valid workload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn optimum_dominates_space(
        dev_idx in 0usize..5,
        channels in 8usize..128,
        trials in prop::sample::select(vec![2usize, 16, 128, 1024]),
    ) {
        let model = CostModel::new(all_devices().swap_remove(dev_idx));
        let w = workload(channels, 5_000, trials);
        let space = ConfigSpace::reduced();
        let r = Tuner.tune(&SimExecutor::new(&model, &w, &space));
        let best = r.best_gflops();
        prop_assert!(r.samples.iter().all(|s| s.gflops <= best));
        // The optimum never violates the tile-fits-problem constraint.
        prop_assert!(r.best_config().tile_dm() as usize <= trials);
    }

    #[test]
    fn tuning_equals_the_straight_loop_bit_for_bit(
        dev_idx in 0usize..5,
        noisy in any::<bool>(),
        w in arb_small_workload(),
    ) {
        // The executor filters once and prices each tile shape once; the
        // reference asks the model about every configuration on its own.
        let dev = all_devices().swap_remove(dev_idx);
        let model = if noisy { CostModel::new(dev) } else { CostModel::exact(dev) };
        let space = ConfigSpace::paper();
        let straight: Vec<_> = space
            .meaningful(model.device(), &w)
            .into_iter()
            .map(|c| (c, model.evaluate(&w, &c).expect("meaningful").gflops.to_bits()))
            .collect();
        prop_assert!(straight.len() < space.raw_size(), "nothing was rejected");
        let tuned: Vec<_> = Tuner
            .try_tune(&SimExecutor::new(&model, &w, &space))
            .map(|r| r.samples)
            .unwrap_or_default()
            .iter()
            .map(|s| (s.config, s.gflops.to_bits()))
            .collect();
        prop_assert_eq!(tuned, straight);
    }

    #[test]
    fn stats_match_manual_computation(
        scores in prop::collection::vec(0.1f64..500.0, 2..200),
    ) {
        let s = OptimizationStats::from_samples(scores.iter().copied());
        let n = scores.len() as f64;
        let mean = scores.iter().sum::<f64>() / n;
        let var = scores.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean - mean).abs() < 1e-9);
        prop_assert!((s.std - var.sqrt()).abs() < 1e-9);
        prop_assert!(s.max >= s.mean && s.mean >= s.min);
        prop_assert!(s.snr_of_max() >= 0.0);
        // Chebyshev bound is a probability.
        let p = s.guess_probability_bound();
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn fixed_config_never_beats_tuned(
        dev_idx in 0usize..5,
        trials_pair in prop::sample::select(vec![(2usize, 64usize), (4, 256), (16, 1024)]),
    ) {
        let model = CostModel::new(all_devices().swap_remove(dev_idx));
        let space = ConfigSpace::reduced();
        let sweep: Vec<_> = [trials_pair.0, trials_pair.1]
            .iter()
            .map(|&t| {
                let w = workload(32, 5_000, t);
                Tuner.tune(&SimExecutor::new(&model, &w, &space))
            })
            .collect();
        let cmp = best_fixed_config(&sweep);
        for sp in cmp.speedups() {
            prop_assert!(sp >= 1.0 - 1e-12, "speedup {sp}");
        }
        // The fixed configuration is valid on the small instance.
        prop_assert!(cmp.fixed_config.tile_dm() as usize <= trials_pair.0);
    }

    #[test]
    fn meaningful_space_respects_all_constraints(
        dev_idx in 0usize..5,
        trials in prop::sample::select(vec![2usize, 32, 512]),
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        let w = workload(64, 5_000, trials);
        let space = ConfigSpace::paper();
        for c in space.meaningful(&dev, &w) {
            prop_assert!(manycore_sim::check_config(&dev, &w, &c).is_ok());
            prop_assert!(c.work_items() <= dev.max_wg_size);
            prop_assert!(c.tile_dm() as usize <= trials);
        }
    }
}
