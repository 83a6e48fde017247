//! `tune_paper`: the paper's first experiment (Section IV-A) — every
//! Table I device × {Apertif, LOFAR} × the twelve input instances, each
//! cell tuned exhaustively over `ConfigSpace::paper()` on the analytic
//! device model, then the best fixed configuration per (device, setup)
//! and the tuple store the experiment produces.
//!
//! All the time goes to `tune` and `sim`; no host kernel runs. It is
//! the workload a kernel change must *not* move and a tuner or
//! cost-model change must. The sweep is the paper's and the same for
//! every seed; every round's optima and configuration counts must equal
//! the first's.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use autotune::{
    best_fixed_config, ConfigSpace, InstanceResult, SimExecutor, Tuner, TuningDatabase,
    TuningResult,
};
use dedisp_core::KernelConfig;
use manycore_sim::{all_devices, CostModel, Workload as SimWorkload};
use radioastro::{ObservationalSetup, PAPER_INSTANCES};

use crate::harness::{Live, Round, SetUp, Staged, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// What one tuned cell must reproduce: the optimum, its score, and the
/// number of configurations scored.
type CellOutcome = (KernelConfig, u64, usize);

/// A (device, setup) pair of the sweep, by index.
type Pair = (usize, usize);

/// The paper's tuning sweep.
pub struct TunePaper {
    /// The ten (device, setup) sweeps.
    pairs: Vec<Pair>,
    /// Sweeps per round: one, or a single pair's in `--quick`.
    pairs_per_round: usize,
    /// Outcome of every cell tuned so far, by (pair, instance); later
    /// tunings of the same cell must match.
    reference: RefCell<Vec<Option<CellOutcome>>>,
}

impl TunePaper {
    /// The sweep; `quick` cuts a round to one (device, setup) pair.
    pub fn new(quick: bool) -> Self {
        let devices = all_devices().len();
        let pairs: Vec<Pair> = (0..devices).flat_map(|d| [(d, 0), (d, 1)]).collect();
        Self {
            pairs_per_round: if quick { 1 } else { pairs.len() },
            reference: RefCell::new(vec![None; 2 * devices * PAPER_INSTANCES.len()]),
            pairs,
        }
    }

    /// Checks one tuned cell against the first tuning of that cell.
    fn matches_reference(&self, (device, setup): Pair, instance: usize, r: &TuningResult) -> bool {
        let outcome = (r.best_config(), r.best_gflops().to_bits(), r.samples.len());
        let slot = (device * 2 + setup) * PAPER_INSTANCES.len() + instance;
        *self.reference.borrow_mut()[slot].get_or_insert(outcome) == outcome
    }
}

/// Everything the sweep runs against, built fresh by each set-up.
struct Bench {
    space: ConfigSpace,
    models: Vec<CostModel>,
    setups: [ObservationalSetup; 2],
    /// `workloads[setup][instance]`.
    workloads: [Vec<SimWorkload>; 2],
}

impl Bench {
    fn build() -> Self {
        let setups = [ObservationalSetup::apertif(), ObservationalSetup::lofar()];
        let workloads = [0, 1].map(|s| {
            let setup: &ObservationalSetup = &setups[s];
            PAPER_INSTANCES
                .iter()
                .map(|&trials| {
                    let grid = setup.dm_grid(trials).expect("paper instances are valid");
                    SimWorkload::analytic(&setup.name, &setup.band, &grid, setup.sample_rate)
                        .expect("paper setups are valid")
                })
                .collect()
        });
        Self {
            space: ConfigSpace::paper(),
            models: all_devices().into_iter().map(CostModel::new).collect(),
            setups,
            workloads,
        }
    }

    fn tune(&self, (device, setup): Pair, instance: usize) -> TuningResult {
        let workload = &self.workloads[setup][instance];
        Tuner.tune(&SimExecutor::new(
            &self.models[device],
            workload,
            &self.space,
        ))
    }
}

struct TuneLive<'w> {
    workload: &'w TunePaper,
    bench: Bench,
    db: TuningDatabase,
}

impl Live for TuneLive<'_> {
    fn round(&mut self) -> Round {
        let mut round = Round::default();
        let start = Instant::now();
        for &pair in &self.workload.pairs[..self.workload.pairs_per_round] {
            let sweep: Vec<TuningResult> = (0..PAPER_INSTANCES.len())
                .map(|instance| self.bench.tune(pair, instance))
                .collect();
            let fixed = best_fixed_config(&sweep);
            let platform = &self.bench.models[pair.0].device().name;
            let setup = &self.bench.setups[pair.1].name;
            for (instance, result) in sweep.iter().enumerate() {
                let summary = InstanceResult::from_tuning(PAPER_INSTANCES[instance], result);
                self.db.insert(
                    platform,
                    setup,
                    summary.trials,
                    summary.best_config,
                    summary.best_gflops,
                );
                round.units += summary.space_size as f64;
                round.attempted += 1;
                let tuned_wins = fixed.tuned_gflops[instance] >= fixed.fixed_gflops[instance];
                let ok = tuned_wins && self.workload.matches_reference(pair, instance, result);
                round.failed += u64::from(!ok);
            }
        }
        round.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        round
    }
}

impl Workload for TunePaper {
    fn work_unit(&self) -> &'static str {
        "configuration scored"
    }

    fn result(&self) -> &'static str {
        "one full sweep: 120 cells tuned, 10 best-fixed comparisons, 120 tuples stored"
    }

    fn root(&self) -> &'static str {
        "cell"
    }

    fn set_up(&self) -> SetUp<'_> {
        let bench = Bench::build();
        // First result out of every sweep: its smallest instance, tuned.
        let wrong = self
            .pairs
            .iter()
            .filter(|&&pair| !self.matches_reference(pair, 0, &bench.tune(pair, 0)))
            .count();
        SetUp {
            live: Box::new(TuneLive {
                workload: self,
                bench,
                db: TuningDatabase::new(),
            }),
            attempted: self.pairs.len() as u64,
            failed: wrong as u64,
        }
    }

    fn staged(&self, t: &mut Tracer, seconds: f64) -> Staged {
        let mut staged = Staged::default();
        let bench = Bench::build();
        let mut db = TuningDatabase::new();
        // Configurations scored by each `sim.evaluate` span, in order.
        let mut evaluated = Vec::new();
        let (mut configs_evaluated, mut sweeps) = (0u64, 0u64);
        let replay = Instant::now();
        while sweeps == 0 || replay.elapsed().as_secs_f64() < seconds / 2.0 {
            for &pair in &self.pairs[..self.pairs_per_round] {
                let (device, setup) = pair;
                let model = &bench.models[device];
                let mut sweep = Vec::new();
                for (instance, workload) in bench.workloads[setup].iter().enumerate() {
                    let request = ((device * 2 + setup) * PAPER_INSTANCES.len() + instance) as u64;
                    let result = t.span("cell", request, |t| {
                        // The tuner's two halves on their own first,
                        // then the call that does both.
                        let configs = t.span("tune.meaningful", request, |_| {
                            bench.space.meaningful(model.device(), workload)
                        });
                        t.span("sim.evaluate", request, |_| {
                            for config in &configs {
                                black_box(model.evaluate(workload, config).ok());
                            }
                        });
                        evaluated.push(configs.len() as f64);
                        t.span("tune.tune_cell", request, |_| bench.tune(pair, instance))
                    });
                    configs_evaluated += result.samples.len() as u64;
                    staged.attempted += 1;
                    staged.failed += u64::from(!self.matches_reference(pair, instance, &result));
                    sweep.push(result);
                }
                let request = (device * 2 + setup) as u64;
                t.span("tune.fixed_compare", request, |_| best_fixed_config(&sweep));
                t.span("tune.store", request, |_| {
                    for (result, &trials) in sweep.iter().zip(&PAPER_INSTANCES) {
                        let summary = InstanceResult::from_tuning(trials, result);
                        db.insert(
                            &model.device().name,
                            &bench.setups[setup].name,
                            trials,
                            summary.best_config,
                            summary.best_gflops,
                        );
                    }
                });
            }
            t.span("tune.db_roundtrip", sweeps, |_| {
                TuningDatabase::from_json(&db.to_json()).expect("own JSON parses")
            });
            sweeps += 1;
        }

        let p50 = |name: &str| median(&t.self_ms(name));
        let evaluate_ns: Vec<f64> = t
            .self_ms("sim.evaluate")
            .iter()
            .zip(&evaluated)
            .map(|(ms, n)| ms * 1e6 / n)
            .collect();
        staged.layers = vec![
            ("sim.evaluate_ns_p50", median(&evaluate_ns)),
            (
                "sim.evaluations",
                evaluated.iter().sum::<f64>() / sweeps as f64,
            ),
            ("tune.meaningful_ms_p50", p50("tune.meaningful")),
            ("tune.tune_cell_ms_p50", p50("tune.tune_cell")),
            (
                "tune.configs_evaluated",
                (configs_evaluated / sweeps) as f64,
            ),
            ("tune.fixed_compare_ms", p50("tune.fixed_compare")),
            ("tune.db_roundtrip_ms", p50("tune.db_roundtrip")),
        ];
        staged
    }
}
