//! Real-time streaming dedispersion pipelines.
//!
//! Modern survey telescopes cannot buffer their input: data must flow
//! through dedispersion and detection continuously. This module wires
//! the workspace crates into that shape with crossbeam channels:
//!
//! ```text
//! producer(s)  ──chunk──▶  dedisperse worker(s)  ──candidates──▶  collector
//! ```
//!
//! Each [`Chunk`] is one second of channelized data for one beam;
//! workers run the configuration-specialized [`ParallelKernel`] and scan
//! every trial for impulsive candidates. Beams are independent (paper,
//! Section II), so a worker pool scales across them naturally.
//!
//! A worker never holds the dm–time plane: the kernel finishes one
//! cache-sized slab of trials at a time
//! ([`Dedisperser::dedisperse_slabs`]), the worker reduces the slab to
//! its most significant trial while it is still cached, and only that
//! survives the slab.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crossbeam::channel::{bounded, Receiver, Sender};
use dedisp_core::{
    DedispError, Dedisperser, DedispersionPlan, InputBuffer, KernelConfig, ParallelKernel,
};
use radioastro::detect::{best_of_rows, more_significant, TrialStat};

/// One second of channelized data for one beam.
#[derive(Debug)]
pub struct Chunk {
    /// Which beam this chunk belongs to.
    pub beam: usize,
    /// Sequence number within the beam (seconds since start).
    pub second: u64,
    /// The channelized samples (`channels × in_samples`).
    pub data: InputBuffer,
}

/// A detection candidate emitted by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Beam of origin.
    pub beam: usize,
    /// Second of origin.
    pub second: u64,
    /// Statistics of the most significant trial.
    pub best: TrialStat,
    /// Dispersion measure of the most significant trial, in pc/cm³.
    pub dm: f64,
}

/// Configuration of a streaming pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Kernel configuration for the dedispersion workers.
    pub kernel: KernelConfig,
    /// Number of dedispersion worker threads.
    pub workers: usize,
    /// Channel capacity (chunks in flight), bounding memory.
    pub queue_depth: usize,
    /// Only emit candidates at least this significant.
    pub snr_threshold: f32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            kernel: KernelConfig::scalar(),
            workers: 2,
            queue_depth: 4,
            snr_threshold: 6.0,
        }
    }
}

/// A running streaming pipeline.
///
/// Feed chunks through [`StreamingPipeline::sender`], drop the sender to
/// signal end-of-stream, then drain candidates from
/// [`StreamingPipeline::candidates`] and [`StreamingPipeline::join`].
pub struct StreamingPipeline {
    input_tx: Option<Sender<Chunk>>,
    candidate_rx: Receiver<Candidate>,
    workers: Vec<thread::JoinHandle<u64>>,
    rejected: Arc<AtomicU64>,
}

impl StreamingPipeline {
    /// Spawns the worker pool for `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_depth` is zero, or if
    /// the kernel configuration is incompatible with the plan
    /// ([`StreamingPipeline::try_spawn`] returns that error instead).
    pub fn spawn(plan: Arc<DedispersionPlan>, config: PipelineConfig) -> Self {
        Self::try_spawn(plan, config).expect("kernel configuration must fit the plan")
    }

    /// Spawns the worker pool for `plan`.
    ///
    /// # Errors
    ///
    /// Returns the configuration error if the kernel configuration is
    /// incompatible with the plan.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_depth` is zero.
    pub fn try_spawn(
        plan: Arc<DedispersionPlan>,
        config: PipelineConfig,
    ) -> Result<Self, DedispError> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_depth > 0, "need a non-zero queue");
        config
            .kernel
            .validate_for(plan.out_samples(), plan.trials())?;

        let (input_tx, input_rx) = bounded::<Chunk>(config.queue_depth);
        let (candidate_tx, candidate_rx) = bounded::<Candidate>(config.queue_depth * 4);
        let rejected = Arc::new(AtomicU64::new(0));

        let workers = (0..config.workers)
            .map(|_| {
                let rx = input_rx.clone();
                let tx = candidate_tx.clone();
                let plan = Arc::clone(&plan);
                let rejected = Arc::clone(&rejected);
                let kernel = ParallelKernel::new(config.kernel);
                let threshold = config.snr_threshold;
                thread::spawn(move || {
                    let mut processed = 0u64;
                    while let Ok(Chunk { beam, second, data }) = rx.recv() {
                        let best = best_trial(&kernel, &plan, &data);
                        // Freed before the candidate is out: a producer
                        // waiting on it allocates the next chunk at once.
                        drop(data);
                        let Some(best) = best else {
                            // A statistic only: it publishes nothing else.
                            rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        if best.snr >= threshold {
                            let candidate = Candidate {
                                beam,
                                second,
                                dm: plan.dm_grid().dm(best.trial),
                                best,
                            };
                            // The collector may already have hung up.
                            let _ = tx.send(candidate);
                        }
                        processed += 1;
                    }
                    processed
                })
            })
            .collect();

        Ok(Self {
            input_tx: Some(input_tx),
            candidate_rx,
            workers,
            rejected,
        })
    }

    /// Chunks skipped so far because their shape did not match the plan;
    /// they produce no candidate and are not counted by
    /// [`StreamingPipeline::join`].
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The chunk intake. Clone freely for multiple producers; all clones
    /// (and the pipeline's own copy, via [`StreamingPipeline::close`])
    /// must drop before workers finish.
    pub fn sender(&self) -> Sender<Chunk> {
        self.input_tx
            .as_ref()
            .expect("pipeline already closed")
            .clone()
    }

    /// Closes the intake: workers drain the queue and exit.
    pub fn close(&mut self) {
        self.input_tx = None;
    }

    /// The candidate stream.
    pub fn candidates(&self) -> Receiver<Candidate> {
        self.candidate_rx.clone()
    }

    /// Closes the intake (if still open), waits for every worker, and
    /// returns the total number of chunks processed.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn join(mut self) -> u64 {
        self.close();
        self.workers
            .drain(..)
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    }
}

/// The most significant trial of `data` dedispersed under `plan`, folded
/// slab by slab — what `detect_best_trial` finds on the whole plane —
/// or `None` if `data` does not have the plan's shape.
fn best_trial(
    kernel: &ParallelKernel,
    plan: &DedispersionPlan,
    data: &InputBuffer,
) -> Option<TrialStat> {
    let best = Mutex::new(None::<TrialStat>);
    kernel
        .dedisperse_slabs(plan, data, &|first_trial, rows| {
            let slab = best_of_rows(first_trial, rows, plan.out_samples());
            let mut best = best.lock().expect("no sink panics holding the lock");
            *best = Some(best.map_or(slab, |best| more_significant(best, slab)));
        })
        .ok()?;
    best.into_inner().expect("no sink panics holding the lock")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisp_core::{DmGrid, FrequencyBand};
    use radioastro::{PulseSpec, SignalGenerator};

    fn plan() -> Arc<DedispersionPlan> {
        Arc::new(
            DedispersionPlan::builder()
                .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
                .dm_grid(DmGrid::new(0.0, 1.0, 8).unwrap())
                .sample_rate(400)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn pipeline_processes_all_chunks() {
        let plan = plan();
        let pipeline = StreamingPipeline::spawn(
            Arc::clone(&plan),
            PipelineConfig {
                kernel: KernelConfig::new(8, 2, 2, 2).unwrap(),
                workers: 3,
                queue_depth: 2,
                snr_threshold: 6.0,
            },
        );
        let tx = pipeline.sender();
        for second in 0..10 {
            let data = SignalGenerator::new(second).generate(&plan);
            tx.send(Chunk {
                beam: 0,
                second,
                data,
            })
            .unwrap();
        }
        drop(tx);
        assert_eq!(pipeline.join(), 10);
    }

    #[test]
    fn pulse_chunk_produces_candidate() {
        let plan = plan();
        let pipeline = StreamingPipeline::spawn(Arc::clone(&plan), PipelineConfig::default());
        let tx = pipeline.sender();
        let candidates = pipeline.candidates();

        // Second 0: noise only. Second 1: noise plus a strong pulse.
        tx.send(Chunk {
            beam: 3,
            second: 0,
            data: SignalGenerator::new(11).generate(&plan),
        })
        .unwrap();
        tx.send(Chunk {
            beam: 3,
            second: 1,
            data: SignalGenerator::new(12)
                .pulse(PulseSpec::impulse(5.0, 100, 4.0))
                .generate(&plan),
        })
        .unwrap();
        drop(tx);
        let processed = pipeline.join();
        assert_eq!(processed, 2);

        let found: Vec<Candidate> = candidates.try_iter().collect();
        assert_eq!(found.len(), 1, "exactly the pulse second fires");
        assert_eq!(found[0].beam, 3);
        assert_eq!(found[0].second, 1);
        assert_eq!(found[0].best.peak_sample, 100);
        assert!((found[0].dm - 5.0).abs() < 1e-9);
        assert!(found[0].best.snr >= 6.0);
    }

    #[test]
    fn multiple_beams_are_tagged() {
        let plan = plan();
        let pipeline = StreamingPipeline::spawn(
            Arc::clone(&plan),
            PipelineConfig {
                snr_threshold: 0.0, // emit everything
                ..PipelineConfig::default()
            },
        );
        let tx = pipeline.sender();
        for beam in 0..4 {
            tx.send(Chunk {
                beam,
                second: 7,
                data: SignalGenerator::new(beam as u64).generate(&plan),
            })
            .unwrap();
        }
        drop(tx);
        let candidates = pipeline.candidates();
        pipeline.join();
        let mut beams: Vec<usize> = candidates.try_iter().map(|c| c.beam).collect();
        beams.sort_unstable();
        assert_eq!(beams, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mis_shaped_chunk_is_skipped_and_counted() {
        let plan = plan();
        let pipeline = StreamingPipeline::spawn(
            Arc::clone(&plan),
            PipelineConfig {
                workers: 1,
                snr_threshold: 0.0,
                ..PipelineConfig::default()
            },
        );
        let tx = pipeline.sender();
        let candidates = pipeline.candidates();
        let good = |second| Chunk {
            beam: 0,
            second,
            data: SignalGenerator::new(second).generate(&plan),
        };
        tx.send(good(0)).unwrap();
        tx.send(Chunk {
            beam: 0,
            second: 1,
            data: InputBuffer::zeroed(plan.channels(), plan.in_samples() - 1),
        })
        .unwrap();
        tx.send(good(2)).unwrap();
        drop(tx);
        // The third chunk's candidate is behind the bad chunk in the
        // one worker's queue.
        let seconds: Vec<u64> = candidates.iter().take(2).map(|c| c.second).collect();
        assert_eq!(seconds, vec![0, 2]);
        assert_eq!(pipeline.rejected(), 1);
        assert_eq!(pipeline.join(), 2);
    }

    #[test]
    fn folded_best_equals_detect_best_trial_and_ties_go_to_the_later_trial() {
        let kernel = ParallelKernel::new(KernelConfig::new(8, 2, 2, 2).unwrap());
        let whole_plane = |plan: &DedispersionPlan, data: &InputBuffer| {
            let mut output = dedisp_core::OutputBuffer::for_plan(plan);
            kernel.dedisperse(plan, data, &mut output).unwrap();
            *radioastro::detect_best_trial(&output).best()
        };

        let plan = plan();
        let data = SignalGenerator::new(3)
            .pulse(PulseSpec::impulse(5.0, 100, 4.0))
            .generate(&plan);
        assert_eq!(
            best_trial(&kernel, &plan, &data),
            Some(whole_plane(&plan, &data))
        );

        // Under a zero-DM plan every trial is the same series.
        let flat = DedispersionPlan::builder()
            .band(FrequencyBand::new(140.0, 0.5, 32).unwrap())
            .dm_grid(DmGrid::new(0.0, 1.0, 8).unwrap())
            .sample_rate(400)
            .zero_dm(true)
            .build()
            .unwrap();
        let data = SignalGenerator::new(4).generate(&flat);
        let best = best_trial(&kernel, &flat, &data).unwrap();
        assert_eq!(best.trial, 7);
        assert_eq!(best, whole_plane(&flat, &data));
    }

    #[test]
    fn try_spawn_returns_the_configuration_error() {
        let oversized = PipelineConfig {
            kernel: KernelConfig::new(16, 16, 1, 1).unwrap(), // 16 > 8 trials
            ..PipelineConfig::default()
        };
        assert!(matches!(
            StreamingPipeline::try_spawn(plan(), oversized),
            Err(DedispError::IncompatibleConfig { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "must fit the plan")]
    fn oversized_kernel_rejected_at_spawn() {
        let plan = plan();
        let _ = StreamingPipeline::spawn(
            plan,
            PipelineConfig {
                kernel: KernelConfig::new(16, 16, 1, 1).unwrap(), // 16 > 8 trials
                ..PipelineConfig::default()
            },
        );
    }
}
