//! `stream_apertif` and `stream_lofar`: seconds of sky, bytes in →
//! candidates out, through `BeamFeeder` → `StreamingPipeline`.
//!
//! Each beam replays a seeded four-second *tape* (Gaussian noise plus
//! one dispersed impulse per second, cyclic, so any rotation of it is a
//! continuous signal). A raw second goes to `BeamFeeder::push_second`,
//! the chunk it returns to the pipeline, and the benchmark waits for
//! that second's `Candidate` before pushing the next: a closed loop
//! with one second in flight, which is also what the latency measures.
//!
//! Every candidate is compared, bit for bit, with a reference the
//! benchmark computes itself: the window the feeder must have built,
//! dedispersed by `NaiveKernel` and scanned by `detect_best_trial`.
//! The tape can only produce five distinct windows per beam — four
//! steady ones and the cold start — and each steady window's reference
//! must itself recover the injected impulse at its DM and sample.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpu_baseline::OpenMpAvxKernel;
use dedisp_core::{
    ArithmeticIntensity, Dedisperser, DedispersionPlan, InputBuffer, KernelConfig, NaiveKernel,
    OutputBuffer, ParallelKernel, StreamWindow, SubbandConfig, SubbandKernel, TiledKernel,
};
use dedisp_repro::feeder::BeamFeeder;
use dedisp_repro::pipeline::{Candidate, PipelineConfig, StreamingPipeline};
use radioastro::{detect_best_trial, ObservationalSetup, PulseSpec, SignalGenerator, TrialStat};

use crate::harness::{timed_ms, Live, Round, SetUp, SplitMix, Staged, Workload};
use crate::host::{triad, CpuMask};
use crate::stats::median;
use crate::trace::Tracer;

/// Trial DMs searched (of the paper's 2–4,096 range).
const TRIALS: usize = 256;
/// Trial DMs in `--quick`, where the reference must cost little.
const QUICK_TRIALS: usize = 64;
/// Independent beams fed round-robin.
const BEAMS: usize = 2;
/// Seconds of tape per beam.
const POOL: usize = 4;
/// Repetitions of each stand-alone kernel in the traced run,
const KERNEL_REPS: usize = 10;
/// cut short once one kernel has used this much (the slow ones are
/// context, not something an end-to-end metric rests on).
const KERNEL_PROBE_CAP: Duration = Duration::from_secs(2);
/// A candidate later than this counts as missing.
const RESULT_TIMEOUT: Duration = Duration::from_secs(20);

/// The best trial of one window and its DM: what a `Candidate` carries
/// besides its beam and second.
type Best = (TrialStat, f64);

/// One beam's seeded inputs.
struct BeamSpec {
    noise_seed: u64,
    /// One impulse per tape second.
    pulses: Vec<PulseSpec>,
    /// Tape second the beam starts at.
    start: usize,
}

/// One beam's inputs and the outputs they must produce.
struct Beam {
    spec: BeamSpec,
    /// Expected best trial after pushing tape second `k`, window full.
    steady: Vec<Best>,
    /// Expected best trial of the first chunk the feeder emits, whose
    /// window still begins with the zero-filled cold start.
    cold: Best,
}

impl Beam {
    fn tape_second(&self, pushes_so_far: usize) -> usize {
        (self.spec.start + pushes_so_far) % POOL
    }

    fn expected(&self, beam: usize, second: u64, tape_second: usize) -> Candidate {
        let (best, dm) = if second == 0 {
            self.cold
        } else {
            self.steady[tape_second]
        };
        Candidate {
            beam,
            second,
            best,
            dm,
        }
    }
}

/// A streaming workload on one observational setup.
pub struct Stream {
    setup: ObservationalSetup,
    trials: usize,
    /// Sky-seconds per round.
    round_seconds: usize,
    beams: Vec<Beam>,
    /// Reference windows checked and how many failed to recover their
    /// impulse; handed to the first set-up to report.
    reference: Cell<(u64, u64)>,
    /// The affinity mask held before pinning, for the scaling probe.
    unpinned: Option<CpuMask>,
}

impl Stream {
    /// Apertif scaled to 2,000 samples/s (the paper: 20,000): 1,024
    /// channels, small delays, high data reuse — the kernel is ≈95 % of
    /// a chunk.
    pub fn apertif(seed: u64, quick: bool, unpinned: Option<CpuMask>) -> Self {
        let setup = ObservationalSetup::apertif().scaled(2_000);
        Self::new(setup, quick, 10, 2.0, seed, unpinned)
    }

    /// LOFAR scaled to 20,000 samples/s (the paper: 200,000): 32
    /// channels, delays longer than the second itself, no reuse, 20 MB
    /// of output per chunk — detection is ≈30 % of a chunk.
    pub fn lofar(seed: u64, quick: bool, unpinned: Option<CpuMask>) -> Self {
        let setup = ObservationalSetup::lofar().scaled(20_000);
        Self::new(setup, quick, 20, 5.0, seed, unpinned)
    }

    fn new(
        setup: ObservationalSetup,
        quick: bool,
        round_seconds: usize,
        amplitude: f32,
        seed: u64,
        unpinned: Option<CpuMask>,
    ) -> Self {
        let mut stream = Self {
            setup,
            trials: if quick { QUICK_TRIALS } else { TRIALS },
            round_seconds: if quick { 2 } else { round_seconds },
            beams: Vec::new(),
            reference: Cell::new((0, 0)),
            unpinned,
        };
        let plan = stream.plan();
        let s = plan.out_samples();
        // A window's output second starts `r` samples into a tape
        // second; impulses all sit on one side of `r`, so every output
        // second holds exactly one.
        let r = warm_up_pushes(&plan) * s - (plan.in_samples() - s);
        let (lo, hi) = if r >= s - r { (0, r) } else { (r, s) };
        let trials = resolvable_trials(&plan);
        let mut rng = SplitMix(seed);
        let beams: Vec<Beam> = (0..BEAMS)
            .map(|_| {
                let noise_seed = rng.next_u64();
                let start = rng.range(0, POOL);
                let pulses = (0..POOL)
                    .map(|second| {
                        let dm = plan.dm_grid().dm(trials[rng.range(0, trials.len())]);
                        let sample = second * s + rng.range(lo + 8, hi - 8);
                        PulseSpec::impulse(dm, sample, amplitude)
                    })
                    .collect();
                stream.reference_for(
                    &plan,
                    BeamSpec {
                        noise_seed,
                        pulses,
                        start,
                    },
                )
            })
            .collect();
        stream.beams = beams;
        stream
    }

    fn plan(&self) -> DedispersionPlan {
        self.setup
            .plan(self.trials)
            .expect("scaled paper setups are valid")
    }

    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            kernel: KernelConfig::new(25, 4, 4, 2).expect("non-zero parameters"),
            workers: 1,
            queue_depth: 2,
            snr_threshold: 0.0,
        }
    }

    /// The two shapes input synthesis needs: `POOL` seconds of noise
    /// with no delay tail, and the same span with room for the tails of
    /// the dispersed impulses.
    fn tape_plans(&self) -> (DedispersionPlan, DedispersionPlan) {
        let span = POOL * self.setup.sample_rate as usize;
        let shape = || {
            DedispersionPlan::builder()
                .band(self.setup.band)
                .dm_grid(self.setup.dm_grid(self.trials).expect("non-zero trials"))
                .sample_rate(self.setup.sample_rate)
                .out_samples(span)
        };
        (
            shape().zero_dm(true).build().expect("valid tape shape"),
            shape().build().expect("valid tape shape"),
        )
    }

    /// Synthesizes one beam's cyclic tape (`channels × POOL·s`): noise,
    /// plus the impulses with the part dispersed past the end wrapped
    /// round to the start.
    fn synthesize(
        &self,
        plans: &(DedispersionPlan, DedispersionPlan),
        beam: &BeamSpec,
    ) -> InputBuffer {
        let (noise_plan, pulse_plan) = plans;
        let mut tape = SignalGenerator::new(beam.noise_seed).generate(noise_plan);
        let mut pulses = SignalGenerator::new(0).noise_sigma(0.0);
        for &pulse in &beam.pulses {
            pulses = pulses.pulse(pulse);
        }
        let pulses = pulses.generate(pulse_plan);
        let span = tape.samples();
        for ch in 0..tape.channels() {
            let row = tape.channel_mut(ch);
            for (i, &v) in pulses.channel(ch).iter().enumerate() {
                if v != 0.0 {
                    row[i % span] += v;
                }
            }
        }
        tape
    }

    /// Works out what `spec` must produce from the benchmark's own
    /// reference — the window the feeder must hold, `NaiveKernel`,
    /// `detect_best_trial` — and checks that each steady window's
    /// reference recovers the impulse injected into it.
    fn reference_for(&self, plan: &DedispersionPlan, spec: BeamSpec) -> Beam {
        let tape = self.synthesize(&self.tape_plans(), &spec);
        let best_of = |pushed: &[usize]| -> Best {
            let window = window_after(plan, &tape, pushed);
            let mut output = OutputBuffer::for_plan(plan);
            NaiveKernel
                .dedisperse(plan, &window, &mut output)
                .expect("reference window matches the plan");
            let best = *detect_best_trial(&output).best();
            (best, plan.dm_grid().dm(best.trial))
        };
        let warm_up = warm_up_pushes(plan);
        let s = plan.out_samples() as i64;
        let span = POOL as i64 * s;
        let (mut checked, mut unrecovered) = self.reference.get();
        let steady: Vec<Best> = (0..POOL)
            .map(|k| {
                // Tape seconds k - warm_up ..= k fill the window.
                let pushed: Vec<usize> = (0..=warm_up)
                    .map(|i| (k + POOL * warm_up + i - warm_up) % POOL)
                    .collect();
                let (best, dm) = best_of(&pushed);
                // The window's first output sample, as a tape position.
                let origin = (k as i64 + 1) * s - plan.in_samples() as i64;
                let (pulse, at) = spec
                    .pulses
                    .iter()
                    .map(|p| (p, (p.sample as i64 - origin).rem_euclid(span)))
                    .find(|(_, at)| *at < s)
                    .expect("every output second holds one impulse");
                checked += 1;
                unrecovered += u64::from(dm != pulse.dm || best.peak_sample as i64 != at);
                (best, dm)
            })
            .collect();
        self.reference.set((checked, unrecovered));
        let cold: Vec<usize> = (0..warm_up).map(|n| (spec.start + n) % POOL).collect();
        Beam {
            cold: best_of(&cold),
            steady,
            spec,
        }
    }
}

/// The trials an impulse can be told apart at: those whose delays
/// differ from both neighbours'. At a scaled-down sampling rate the
/// lowest trial DMs round to the same whole-sample delays (Apertif at
/// 2,000 samples/s cannot tell DM 0 from DM 0.25), and an impulse there
/// is recovered equally well at either.
fn resolvable_trials(plan: &DedispersionPlan) -> Vec<usize> {
    let delays = plan.delays();
    let same = |a: usize, b: usize| {
        (0..plan.channels()).all(|ch| delays.delay(a, ch) == delays.delay(b, ch))
    };
    (0..plan.trials())
        .filter(|&t| !(t > 0 && same(t - 1, t) || t + 1 < plan.trials() && same(t, t + 1)))
        .collect()
}

/// Pushes before the feeder emits its first chunk: `ceil(max_delay / s)`.
fn warm_up_pushes(plan: &DedispersionPlan) -> usize {
    let s = plan.out_samples();
    (plan.in_samples() - s).div_ceil(s).max(1)
}

/// Tape second `k` as the raw block `push_second` takes.
fn raw_second(tape: &InputBuffer, s: usize, k: usize) -> Vec<&[f32]> {
    (0..tape.channels())
        .map(|ch| &tape.channel(ch)[k * s..(k + 1) * s])
        .collect()
}

/// What a rolling window must hold after the tape seconds `pushed` were
/// pushed, in order, into a zeroed window: the newest `in_samples` of
/// them, zeros on the left while fewer have arrived.
fn window_after(plan: &DedispersionPlan, tape: &InputBuffer, pushed: &[usize]) -> InputBuffer {
    let s = plan.out_samples();
    let mut window = InputBuffer::for_plan(plan);
    for ch in 0..plan.channels() {
        let row = window.channel_mut(ch);
        let mut end = row.len();
        for &k in pushed.iter().rev() {
            let take = s.min(end);
            row[end - take..end]
                .copy_from_slice(&tape.channel(ch)[(k + 1) * s - take..(k + 1) * s]);
            end -= take;
        }
    }
    window
}

/// A set-up pipeline with every beam warm.
struct StreamLive<'w> {
    workload: &'w Stream,
    tapes: Vec<InputBuffer>,
    feeder: BeamFeeder,
    pipeline: Option<StreamingPipeline>,
    out_samples: usize,
    /// Raw seconds pushed so far, per beam.
    pushed: Vec<usize>,
    /// Sky-seconds pushed in rounds; picks the beam.
    turn: usize,
}

impl StreamLive<'_> {
    /// Hands `beam` its next raw second and waits for that second's
    /// candidate. `None` while the beam's window is warming up;
    /// otherwise the latency in milliseconds and whether the candidate
    /// arrived and matched the reference.
    fn push(&mut self, beam: usize) -> Option<(f64, bool)> {
        let workload = self.workload;
        let spec = &workload.beams[beam];
        let k = spec.tape_second(self.pushed[beam]);
        self.pushed[beam] += 1;
        let raw = raw_second(&self.tapes[beam], self.out_samples, k);
        let pipeline = self.pipeline.as_ref().expect("joined only on drop");
        let start = Instant::now();
        let got = match self.feeder.push_second(beam, &raw) {
            Ok(None) => return None,
            Ok(Some(chunk)) => {
                let want = spec.expected(beam, chunk.second, k);
                let sent = pipeline.sender().send(chunk).is_ok();
                let got = pipeline.candidates().recv_timeout(RESULT_TIMEOUT);
                sent && got.is_ok_and(|c| c == want)
            }
            Err(_) => false,
        };
        Some((start.elapsed().as_secs_f64() * 1e3, got))
    }
}

impl Live for StreamLive<'_> {
    fn round(&mut self) -> Round {
        let mut round = Round {
            units: self.workload.round_seconds as f64,
            ..Round::default()
        };
        for _ in 0..self.workload.round_seconds {
            let beam = self.turn % BEAMS;
            self.turn += 1;
            round.attempted += 1;
            match self.push(beam) {
                Some((ms, ok)) => {
                    round.latencies_ms.push(ms);
                    round.failed += u64::from(!ok);
                }
                // Every beam is warm after set-up: no result is a miss.
                None => round.failed += 1,
            }
        }
        round
    }
}

impl Drop for StreamLive<'_> {
    fn drop(&mut self) {
        if let Some(pipeline) = self.pipeline.take() {
            pipeline.join();
        }
    }
}

impl Workload for Stream {
    fn work_unit(&self) -> &'static str {
        "sky-second (one beam-second dedispersed and searched)"
    }

    fn result(&self) -> &'static str {
        "raw second handed to push_second -> its Candidate received"
    }

    fn root(&self) -> &'static str {
        "chunk"
    }

    fn set_up(&self) -> SetUp<'_> {
        let plan = Arc::new(self.plan());
        let tape_plans = self.tape_plans();
        let tapes = self
            .beams
            .iter()
            .map(|b| self.synthesize(&tape_plans, &b.spec))
            .collect();
        let mut live = StreamLive {
            workload: self,
            tapes,
            feeder: BeamFeeder::new(Arc::clone(&plan), BEAMS),
            pipeline: Some(StreamingPipeline::spawn(
                Arc::clone(&plan),
                self.pipeline_config(),
            )),
            out_samples: plan.out_samples(),
            pushed: vec![0; BEAMS],
            turn: 0,
        };
        // Through the first result out of every beam, so that each
        // later push yields exactly one chunk and rounds are equal.
        let (mut attempted, mut failed) = self.reference.take();
        for beam in 0..BEAMS {
            let ok = loop {
                if let Some((_, ok)) = live.push(beam) {
                    break ok;
                }
            };
            attempted += 1;
            failed += u64::from(!ok);
        }
        SetUp {
            live: Box::new(live),
            attempted,
            failed,
        }
    }

    fn staged(&self, t: &mut Tracer, seconds: f64) -> Staged {
        let mut staged = Staged::default();
        (staged.attempted, staged.failed) = self.reference.take();

        // Set-up, call by call.
        let plan = t.span("core.plan_build", 0, |_| Arc::new(self.plan()));
        let tape_plans = self.tape_plans();
        let tapes: Vec<InputBuffer> = (0..BEAMS)
            .map(|b| {
                t.span("astro.signal_gen", b as u64, |_| {
                    self.synthesize(&tape_plans, &self.beams[b].spec)
                })
            })
            .collect();
        let config = self.pipeline_config();
        let pipeline = t.span("pipeline.spawn", 0, |_| {
            StreamingPipeline::spawn(Arc::clone(&plan), config.clone())
        });
        pipeline.join();

        // The chunks of the untraced run, stage by stage on this thread.
        let s = plan.out_samples();
        let kernel = ParallelKernel::new(config.kernel);
        let mut feeder = BeamFeeder::new(Arc::clone(&plan), BEAMS);
        let mut output = OutputBuffer::for_plan(&plan);
        let mut pushed = [0usize; BEAMS];
        let mut kept = None;
        let replay = Instant::now();
        let mut turn = 0;
        while replay.elapsed().as_secs_f64() < seconds / 4.0 {
            let beam = turn % BEAMS;
            turn += 1;
            let spec = &self.beams[beam];
            let k = spec.tape_second(pushed[beam]);
            pushed[beam] += 1;
            let raw = raw_second(&tapes[beam], s, k);
            let request = ((beam as u64) << 32) | pushed[beam] as u64;
            t.span("chunk", request, |t| {
                let chunk = match t.span("feeder.push", request, |_| feeder.push_second(beam, &raw))
                {
                    Ok(Some(chunk)) => chunk,
                    Ok(None) => return,
                    Err(_) => {
                        staged.failed += 1;
                        return;
                    }
                };
                output.clear();
                t.span("core.kernel", request, |_| {
                    kernel.dedisperse(&plan, &chunk.data, &mut output)
                })
                .expect("chunk shape matches the plan");
                let best = t.span("astro.detect", request, |_| {
                    *detect_best_trial(&output).best()
                });
                let candidate = Candidate {
                    beam,
                    second: chunk.second,
                    dm: plan.dm_grid().dm(best.trial),
                    best,
                };
                staged.attempted += 1;
                staged.failed += u64::from(candidate != spec.expected(beam, chunk.second, k));
                if chunk.second > 0 {
                    kept = Some(chunk.data);
                }
            });
        }
        let chunk = kept.expect("the replay runs past warm-up");

        // Each layer on its own: the window alone, then every
        // `Dedisperser` on one and the same steady chunk.
        let mut window = StreamWindow::for_plan(&plan);
        for k in 0..2 * POOL {
            let raw = raw_second(&tapes[0], s, k % POOL);
            t.span("core.window_push", k as u64, |_| window.push_second(&raw))
                .expect("tape seconds match the plan");
        }
        let subband = SubbandConfig::new((plan.channels() / 32).max(8), 4).expect("non-zero");
        let kernels: [(&'static str, Box<dyn Dedisperser>); 4] = [
            ("core.naive", Box::new(NaiveKernel)),
            ("core.tiled", Box::new(TiledKernel::new(config.kernel))),
            ("core.subband", Box::new(SubbandKernel::new(subband))),
            ("cpuref.kernel", Box::new(OpenMpAvxKernel::default())),
        ];
        for (name, dedisperser) in &kernels {
            let probe = Instant::now();
            for rep in 0..KERNEL_REPS {
                output.clear();
                t.span(name, rep as u64, |_| {
                    dedisperser.dedisperse(&plan, &chunk, &mut output)
                })
                .expect("chunk shape matches the plan");
                if probe.elapsed() > KERNEL_PROBE_CAP {
                    break;
                }
            }
        }

        // Scaling, the one probe run unpinned: tiled on one thread
        // against parallel on every allowed CPU.
        let tiled_ms = median(&t.self_ms("core.tiled"));
        let mut parallel_speedup = 0.0;
        if let (Some(unpinned), Some(pinned)) = (self.unpinned, CpuMask::current()) {
            if unpinned.apply() {
                let reps: Vec<f64> = (0..KERNEL_REPS)
                    .map(|_| {
                        timed_ms(|| kernel.dedisperse(&plan, &chunk, &mut output).expect("fits")).1
                    })
                    .collect();
                parallel_speedup = tiled_ms / median(&reps);
                pinned.apply();
            }
        }

        // The real pipeline's per-chunk wall, for what the stages leave
        // unexplained: hand-off, allocation, queue wait.
        let e2e_ms = {
            let mut set_up = self.set_up();
            staged.attempted += set_up.attempted;
            staged.failed += set_up.failed;
            let mut latencies = Vec::new();
            for _ in 0..3 {
                let round = set_up.live.round();
                staged.attempted += round.attempted;
                staged.failed += round.failed;
                latencies.extend(round.latencies_ms);
            }
            median(&latencies)
        };

        let bandwidth = triad();
        println!(
            "# triad arrays {} B each = {:.1}x the {} B last-level cache",
            bandwidth.array_bytes,
            bandwidth.array_bytes as f64 / bandwidth.llc_bytes as f64,
            bandwidth.llc_bytes
        );

        let p50 = |name: &str| median(&t.self_ms(name));
        let kernel_ms = p50("core.kernel");
        let kernel_gbs = (plan.input_bytes() + plan.output_bytes()) as f64 / kernel_ms / 1e6;
        let staged_ms = p50("feeder.push") + kernel_ms + p50("astro.detect");
        let overlap = plan.in_samples() - s;
        staged.layers = vec![
            ("core.plan_build_ms", p50("core.plan_build")),
            ("astro.signal_gen_ms", p50("astro.signal_gen")),
            ("pipeline.spawn_ms", p50("pipeline.spawn")),
            ("feeder.push_ms_p50", p50("feeder.push")),
            (
                "feeder.bytes_copied_per_chunk",
                (plan.channels() * (overlap + s + plan.in_samples()) * 4) as f64,
            ),
            ("core.window_push_ms_p50", p50("core.window_push")),
            ("core.kernel_ms_p50", kernel_ms),
            ("core.kernel_gflops", plan.flop() as f64 / kernel_ms / 1e6),
            ("core.kernel_gbs_computed", kernel_gbs),
            (
                "core.ai_flop_per_byte",
                ArithmeticIntensity::for_execution(&plan, &config.kernel).flop_per_byte(),
            ),
            ("host.triad_gbs", bandwidth.gbs),
            ("core.kernel_roofline_frac", kernel_gbs / bandwidth.gbs),
            ("core.naive_ms_p50", p50("core.naive")),
            ("core.tiled_ms_p50", tiled_ms),
            ("core.subband_ms_p50", p50("core.subband")),
            ("cpuref.kernel_ms_p50", p50("cpuref.kernel")),
            ("core.parallel_speedup", parallel_speedup),
            ("astro.detect_ms_p50", p50("astro.detect")),
            ("pipeline.overhead_frac", (e2e_ms - staged_ms) / e2e_ms),
        ];
        staged
    }
}
