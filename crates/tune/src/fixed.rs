//! The best *fixed* configuration baseline (paper, Section V-D).
//!
//! The paper compares its per-instance tuned optima against "the best
//! possible manually optimized version": the single configuration that,
//! working on **all** input instances of a (device, setup) pair,
//! maximizes the sum of achieved GFLOP/s — itself found by exhaustive
//! search. Figures 13 and 14 plot the tuned-over-fixed speedup.

use dedisp_core::KernelConfig;
use serde::{Deserialize, Serialize};

use crate::tuner::{Sample, TuningResult};

/// The fixed-configuration comparison for one (device, setup) sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedComparison {
    /// The best fixed configuration across all instances.
    pub fixed_config: KernelConfig,
    /// Per-instance GFLOP/s of the fixed configuration.
    pub fixed_gflops: Vec<f64>,
    /// Per-instance GFLOP/s of the tuned optimum.
    pub tuned_gflops: Vec<f64>,
}

impl FixedComparison {
    /// Per-instance speedup of the tuned optimum over the fixed
    /// configuration (the series of Figures 13–14).
    pub fn speedups(&self) -> Vec<f64> {
        self.fixed_gflops
            .iter()
            .zip(&self.tuned_gflops)
            .map(|(f, t)| t / f)
            .collect()
    }

    /// Mean speedup across instances.
    pub fn mean_speedup(&self) -> f64 {
        let s = self.speedups();
        s.iter().sum::<f64>() / s.len() as f64
    }
}

/// Finds the best fixed configuration over a sweep of tuning results
/// (one per input instance) and compares it with the per-instance
/// optima.
///
/// A configuration qualifies only if it was meaningful (hence scored) on
/// *every* instance — exactly the paper's "working on all input
/// instances".
///
/// # Panics
///
/// Panics if the sweep is empty or no configuration spans all instances
/// (with instance sizes down to 2 trials, single-DM-tile configurations
/// always qualify, so this cannot happen with a sane space).
pub fn best_fixed_config(sweep: &[TuningResult]) -> FixedComparison {
    assert!(!sweep.is_empty(), "empty sweep");

    // Candidate = configurations scored on the first instance; intersect
    // with all other instances while accumulating sums. Every result
    // lists its samples in the space's enumeration order, so a candidate
    // sits just past the previous one found in the same instance: one
    // advancing cursor per instance finds it in a step or two.
    let mut cursors = vec![0usize; sweep.len()];
    let mut best: Option<(KernelConfig, f64)> = None;
    'cand: for sample in &sweep[0].samples {
        let mut sum = sample.gflops;
        for (result, cursor) in sweep.iter().zip(&mut cursors).skip(1) {
            match find_from(&result.samples, *cursor, &sample.config) {
                Some(at) => {
                    sum += result.samples[at].gflops;
                    *cursor = at + 1;
                }
                None => continue 'cand,
            }
        }
        if best.is_none_or(|(_, s)| sum > s) {
            best = Some((sample.config, sum));
        }
    }
    let (fixed_config, _) = best.expect("no configuration spans all instances");

    let fixed_gflops = sweep
        .iter()
        .map(|r| {
            r.gflops_of(&fixed_config)
                .expect("fixed config spans all instances")
        })
        .collect();
    let tuned_gflops = sweep.iter().map(TuningResult::best_gflops).collect();

    FixedComparison {
        fixed_config,
        fixed_gflops,
        tuned_gflops,
    }
}

/// Index of `config` in `samples`, looking from `from` to the end and
/// then from the start: wherever it is, it is found.
fn find_from(samples: &[Sample], from: usize, config: &KernelConfig) -> Option<usize> {
    let (head, tail) = samples.split_at(from.min(samples.len()));
    let holds = |s: &Sample| s.config == *config;
    tail.iter()
        .position(holds)
        .map(|at| head.len() + at)
        .or_else(|| head.iter().position(holds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ConfigSpace;
    use crate::tuner::{SimExecutor, Tuner};
    use dedisp_core::{DmGrid, FrequencyBand};
    use manycore_sim::{amd_hd7970, CostModel, Workload};

    fn sweep(trial_counts: &[usize]) -> Vec<TuningResult> {
        let space = ConfigSpace::reduced();
        let model = CostModel::new(amd_hd7970());
        trial_counts
            .iter()
            .map(|&t| {
                let w = Workload::analytic(
                    "Apertif",
                    &FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap(),
                    &DmGrid::paper_grid(t).unwrap(),
                    20_000,
                )
                .unwrap();
                Tuner.tune(&SimExecutor::new(&model, &w, &space))
            })
            .collect()
    }

    #[test]
    fn tuned_never_loses_to_fixed() {
        let s = sweep(&[2, 16, 128, 1024]);
        let cmp = best_fixed_config(&s);
        for (i, sp) in cmp.speedups().iter().enumerate() {
            assert!(*sp >= 1.0 - 1e-12, "instance {i}: speedup {sp}");
        }
        assert!(cmp.mean_speedup() >= 1.0);
    }

    #[test]
    fn fixed_config_spans_all_instances() {
        let s = sweep(&[2, 16, 128]);
        let cmp = best_fixed_config(&s);
        // Valid on the 2-trial instance ⇒ tile_dm ≤ 2.
        assert!(cmp.fixed_config.tile_dm() <= 2);
        assert_eq!(cmp.fixed_gflops.len(), 3);
        assert_eq!(cmp.tuned_gflops.len(), 3);
    }

    #[test]
    fn small_instance_constraint_costs_large_instances() {
        // Because the fixed configuration must work at 2 trials, it
        // cannot tile many DMs — so the tuned version wins clearly on
        // the large Apertif instances (the paper's ≈3x on GPUs).
        let s = sweep(&[2, 1024]);
        let cmp = best_fixed_config(&s);
        let speedups = cmp.speedups();
        assert!(
            speedups[1] > 1.5,
            "expected a clear win at 1024 trials, got {}",
            speedups[1]
        );
    }

    #[test]
    fn single_instance_sweep_fixed_equals_tuned() {
        let s = sweep(&[256]);
        let cmp = best_fixed_config(&s);
        assert!((cmp.speedups()[0] - 1.0).abs() < 1e-12);
        assert_eq!(cmp.fixed_config, s[0].best_config());
    }

    fn cfg(wi_time: u32) -> KernelConfig {
        KernelConfig::new(wi_time, 1, 1, 1).unwrap()
    }

    /// A hand-built instance result scoring `cfg(wi_time)` at `gflops`,
    /// in the order given.
    fn instance(samples: &[(u32, f64)]) -> TuningResult {
        let samples: Vec<Sample> = samples
            .iter()
            .map(|&(wi_time, gflops)| Sample {
                config: cfg(wi_time),
                gflops,
            })
            .collect();
        let best_index = (0..samples.len())
            .max_by(|&a, &b| samples[a].gflops.total_cmp(&samples[b].gflops))
            .unwrap();
        TuningResult {
            label: "hand-built".into(),
            samples,
            best_index,
        }
    }

    #[test]
    fn the_first_of_two_tied_candidates_wins() {
        // 2 and 8 both sum to 12; 4 sums to 11.
        let s = [
            instance(&[(2, 5.0), (4, 6.0), (8, 7.0)]),
            instance(&[(2, 7.0), (4, 5.0), (8, 5.0)]),
        ];
        let cmp = best_fixed_config(&s);
        assert_eq!(cmp.fixed_config, cfg(2));
        assert_eq!(cmp.fixed_gflops, vec![5.0, 7.0]);
        assert_eq!(cmp.tuned_gflops, vec![7.0, 7.0]);
    }

    #[test]
    fn a_candidate_missing_from_a_middle_instance_does_not_qualify() {
        // 4 would win on the instances that have it, but the middle one
        // does not; the candidates after the miss are still found.
        let s = [
            instance(&[(2, 1.0), (4, 100.0), (8, 2.0), (16, 1.0)]),
            instance(&[(2, 1.0), (8, 2.0), (16, 1.0)]),
            instance(&[(2, 1.0), (4, 100.0), (8, 2.0), (16, 1.0)]),
        ];
        let cmp = best_fixed_config(&s);
        assert_eq!(cmp.fixed_config, cfg(8));
        assert_eq!(cmp.fixed_gflops, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn samples_out_of_enumeration_order_are_still_found() {
        // The second instance lists its samples backwards, so every
        // candidate after the first lies behind the cursor.
        let s = [
            instance(&[(2, 1.0), (4, 2.0), (8, 3.0)]),
            instance(&[(8, 30.0), (4, 50.0), (2, 10.0)]),
        ];
        let cmp = best_fixed_config(&s);
        assert_eq!(cmp.fixed_config, cfg(4));
        assert_eq!(cmp.fixed_gflops, vec![2.0, 50.0]);
        assert_eq!(cmp.tuned_gflops, vec![3.0, 50.0]);
    }
}
