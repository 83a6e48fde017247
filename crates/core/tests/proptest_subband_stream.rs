//! Property-based tests for the extension modules: the two-stage
//! subband kernel's bits (against a loop-by-loop oracle) and error
//! bound, and the streaming window's equivalence to offline slicing.

use dedisp_core::prelude::*;
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = DedispersionPlan> {
    (
        100.0f64..400.0, // low band => meaningful delays
        0.1f64..0.6,
        prop::sample::select(vec![8usize, 16, 24, 32]),
        100u32..400,
        2usize..16,
    )
        .prop_map(|(low, width, channels, rate, trials)| {
            DedispersionPlan::builder()
                .band(FrequencyBand::new(low, width, channels).expect("valid band"))
                .dm_grid(DmGrid::new(0.0, 0.5, trials).expect("valid grid"))
                .sample_rate(rate)
                .allocation_limit(64 << 20)
                .build()
                .expect("plan fits")
        })
        .prop_filter("bounded", |p| p.in_samples() * p.channels() < 400_000)
}

fn fill(plan: &DedispersionPlan, seed: u64) -> InputBuffer {
    let mut buf = InputBuffer::for_plan(plan);
    let samples = buf.samples();
    for ch in 0..buf.channels() {
        for (s, v) in buf.channel_mut(ch).iter_mut().enumerate() {
            let mut x = seed ^ ((ch * samples + s) as u64);
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27);
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            *v = ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
    }
    buf
}

/// The two-stage scheme written as two plain loops: stage 1 sums each
/// subband's channels at their capped intra-subband shift of the coarse
/// trial over the whole input length, stage 2 sums each fine trial's
/// subband partials at the residual delay of the subband's top channel,
/// both in ascending order from zero. `SubbandKernel` must equal it bit
/// for bit.
fn two_loops(plan: &DedispersionPlan, input: &InputBuffer, config: SubbandConfig) -> OutputBuffer {
    let (trials, in_samples, out_samples) = (plan.trials(), plan.in_samples(), plan.out_samples());
    let per_sub = plan.channels() / config.subbands;
    let delays = plan.delays();
    let max_delay = delays.max_delay();
    let coarse_of = |trial: usize| trial / config.dm_stride * config.dm_stride;
    let mut out = OutputBuffer::for_plan(plan);
    for trial in 0..trials {
        let coarse = coarse_of(trial);
        let trial_hi = (coarse + config.dm_stride - 1).min(trials - 1);
        let series = out.series_mut(trial);
        series.fill(0.0);
        for sub in 0..config.subbands {
            let sub_ref = sub * per_sub + per_sub - 1;
            let mut acc = vec![0.0f32; in_samples];
            for ch in sub * per_sub..(sub + 1) * per_sub {
                let raw = delays.delay(coarse, ch) - delays.delay(coarse, sub_ref);
                let shift = raw.min(max_delay - delays.delay(trial_hi, sub_ref));
                let n = in_samples - shift;
                for (a, s) in acc[..n].iter_mut().zip(&input.channel(ch)[shift..]) {
                    *a += *s;
                }
            }
            let shift = delays.delay(trial, sub_ref);
            for (o, s) in series.iter_mut().zip(&acc[shift..shift + out_samples]) {
                *o += *s;
            }
        }
    }
    out
}

/// `SubbandKernel` into a NaN-poisoned buffer, against [`two_loops`].
fn equals_two_loops(
    plan: &DedispersionPlan,
    input: &InputBuffer,
    subbands: usize,
    stride: usize,
) -> bool {
    let config = SubbandConfig::new(subbands, stride).unwrap();
    let mut out = OutputBuffer::for_plan(plan);
    out.as_mut_slice().fill(f32::NAN);
    SubbandKernel::new(config)
        .dedisperse(plan, input, &mut out)
        .unwrap();
    out.bits_eq(&two_loops(plan, input, config))
}

#[test]
fn subband_equals_two_loops_on_a_zero_dm_plan() {
    let plan = DedispersionPlan::builder()
        .band(FrequencyBand::new(140.0, 0.3, 24).unwrap())
        .dm_grid(DmGrid::new(0.0, 0.5, 7).unwrap())
        .sample_rate(150)
        .zero_dm(true)
        .build()
        .unwrap();
    let input = fill(&plan, 3);
    for (subbands, stride) in [(1, 1), (4, 3), (24, 8)] {
        assert!(
            equals_two_loops(&plan, &input, subbands, stride),
            "{subbands} x {stride}"
        );
    }
}

#[test]
fn subband_equals_two_loops_across_batches_of_coarse_trials() {
    // 24 subbands of two channels and ~33,000 samples are 3.2 MB of
    // partial sums per coarse trial, so the kernel holds two coarse
    // trials at a time: 9 trials at stride 2 are five coarse trials in
    // batches of two, two and one; at stride 4, three in batches of two
    // and one. 48 one-channel subbands hold one coarse trial at a time.
    let plan = DedispersionPlan::builder()
        .band(FrequencyBand::new(140.0, 0.3, 48).unwrap())
        .dm_grid(DmGrid::new(0.0, 0.5, 9).unwrap())
        .sample_rate(33_000)
        .build()
        .unwrap();
    let input = fill(&plan, 5);
    for (subbands, stride) in [(24, 2), (24, 4), (48, 3)] {
        assert!(
            equals_two_loops(&plan, &input, subbands, stride),
            "{subbands} x {stride}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn subband_equals_two_loops(
        plan in arb_plan(),
        seed in any::<u64>(),
        subbands in prop::sample::select(vec![1usize, 2, 4, 8, 0]),
        stride in 1usize..20,
    ) {
        // 0 draws one subband per channel; strides past the trial count
        // leave a single coarse trial.
        let subbands = if subbands == 0 { plan.channels() } else { subbands };
        prop_assume!(plan.channels() % subbands == 0);
        let input = fill(&plan, seed);
        prop_assert!(equals_two_loops(&plan, &input, subbands, stride));
    }

    #[test]
    fn subband_conserves_total_flux(
        plan in arb_plan(),
        subbands in prop::sample::select(vec![1usize, 2, 4, 8]),
        stride in 1usize..6,
    ) {
        prop_assume!(plan.channels() % subbands == 0);
        // A constant input dedisperses to channels x value through any
        // correct shifting scheme: no sample is lost or double counted.
        let input = InputBuffer::constant(&plan, 0.5);
        let kernel = SubbandKernel::new(SubbandConfig::new(subbands, stride).unwrap());
        let mut out = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut out).unwrap();
        let expected = 0.5 * plan.channels() as f32;
        for &v in out.as_slice() {
            prop_assert!((v - expected).abs() < 1e-3, "{v} != {expected}");
        }
    }

    #[test]
    fn subband_exact_when_unstrided_single_channel_bands(
        plan in arb_plan(),
        seed in any::<u64>(),
    ) {
        // One channel per subband + stride 1 degenerates to brute force.
        let input = fill(&plan, seed);
        let kernel = SubbandKernel::new(SubbandConfig::new(plan.channels(), 1).unwrap());
        prop_assert_eq!(kernel.max_smear_samples(&plan).unwrap(), 0);
        let mut out = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut out).unwrap();
        let reference = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        prop_assert!(out.bits_eq(&reference));
    }

    #[test]
    fn subband_smear_monotone_in_stride(
        plan in arb_plan(),
        subbands in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        prop_assume!(plan.channels() % subbands == 0);
        let mut last = 0;
        for stride in [1usize, 2, 4] {
            let k = SubbandKernel::new(SubbandConfig::new(subbands, stride).unwrap());
            let smear = k.max_smear_samples(&plan).unwrap();
            prop_assert!(smear >= last, "stride {stride}: {smear} < {last}");
            last = smear;
        }
    }

    #[test]
    fn stream_window_equals_offline(
        plan in arb_plan(),
        seed in any::<u64>(),
        seconds in 2usize..5,
    ) {
        let s = plan.out_samples();
        let total = s * seconds + plan.delays().max_delay();
        // One long continuous stream per channel.
        let signal: Vec<Vec<f32>> = (0..plan.channels())
            .map(|ch| {
                (0..total)
                    .map(|i| {
                        let mut x = seed ^ ((ch * total + i) as u64);
                        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(23);
                        (x >> 40) as f32 / (1u64 << 24) as f32
                    })
                    .collect()
            })
            .collect();

        let mut window = StreamWindow::for_plan(&plan);
        for second in 0..seconds {
            let blocks: Vec<&[f32]> = signal
                .iter()
                .map(|chan| &chan[second * s..(second + 1) * s])
                .collect();
            window.push_second(&blocks).unwrap();
        }
        prop_assume!(window.warmed_up());

        let streamed = dedisp_core::kernel::dedisperse(&plan, window.window()).unwrap();

        let start = seconds * s - plan.in_samples();
        let mut offline_in = InputBuffer::for_plan(&plan);
        for (ch, chan) in signal.iter().enumerate().take(plan.channels()) {
            offline_in
                .channel_mut(ch)
                .copy_from_slice(&chan[start..start + plan.in_samples()]);
        }
        let offline = dedisp_core::kernel::dedisperse(&plan, &offline_in).unwrap();
        prop_assert_eq!(streamed.max_abs_diff(&offline), 0.0);
    }
}
