//! Property-based tests of the observational substrate: pulse recovery,
//! filterbank round-trips, and real-time threshold arithmetic.

use dedisp_core::prelude::*;
use proptest::prelude::*;
use radioastro::{
    detect_best_trial, Filterbank, ObservationalSetup, PulseSpec, RealtimeCheck, SignalGenerator,
};

fn arb_plan() -> impl Strategy<Value = DedispersionPlan> {
    (
        100.0f64..300.0, // low MHz — low band so delays are meaningful
        0.2f64..0.8,     // channel width
        16usize..40,     // channels
        200u32..500,     // sample rate
        4usize..16,      // trials
    )
        .prop_map(|(low, width, channels, rate, trials)| {
            DedispersionPlan::builder()
                .band(FrequencyBand::new(low, width, channels).expect("valid band"))
                .dm_grid(DmGrid::new(0.0, 1.0, trials).expect("valid grid"))
                .sample_rate(rate)
                .allocation_limit(128 << 20)
                .build()
                .expect("plan fits")
        })
        .prop_filter("bounded input", |p| {
            p.in_samples() * p.channels() < 1_000_000
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn injected_pulse_recovered_at_true_dm(
        plan in arb_plan(),
        trial_idx_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let trial = ((plan.trials() - 1) as f64 * trial_idx_frac).round() as usize;
        let dm = plan.dm_grid().dm(trial);
        let sample = plan.out_samples() / 2;
        let input = SignalGenerator::new(seed)
            .noise_sigma(1.0)
            .pulse(PulseSpec::impulse(dm, sample, 4.0))
            .generate(&plan);
        let out = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let det = detect_best_trial(&out);
        // The strongest trial is the injected one (adjacent trials can
        // tie only when their delays are quantized identically).
        let best_dm = plan.dm_grid().dm(det.best_trial);
        prop_assert!(
            (best_dm - dm).abs() <= plan.dm_grid().step() + 1e-9,
            "injected {dm}, detected {best_dm}"
        );
        prop_assert_eq!(det.best().peak_sample, sample);
        prop_assert!(det.best().snr > 5.0, "snr {}", det.best().snr);
    }

    #[test]
    fn noiseless_pulse_sums_coherently(
        plan in arb_plan(),
    ) {
        let dm = plan.dm_grid().dm(plan.trials() - 1);
        let sample = 10;
        let input = SignalGenerator::new(0)
            .noise_sigma(0.0)
            .pulse(PulseSpec::impulse(dm, sample, 1.0))
            .generate(&plan);
        let out = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let trial = plan.trials() - 1;
        let peak = out.series(trial)[sample];
        prop_assert!(
            (peak - plan.channels() as f32).abs() < 1e-2,
            "peak {peak} != {}",
            plan.channels()
        );
    }

    #[test]
    fn filterbank_roundtrip(
        plan in arb_plan(),
        seed in any::<u64>(),
    ) {
        let data = SignalGenerator::new(seed).generate(&plan);
        let fb = Filterbank::new(*plan.band(), plan.sample_rate(), data).unwrap();
        let bytes = fb.to_bytes();
        let back = Filterbank::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, fb);
    }

    #[test]
    fn realtime_threshold_is_linear_and_monotone(
        trials_a in 1usize..4096,
        trials_b in 1usize..4096,
    ) {
        for setup in [ObservationalSetup::apertif(), ObservationalSetup::lofar()] {
            let a = RealtimeCheck::for_setup(&setup, trials_a);
            let b = RealtimeCheck::for_setup(&setup, trials_b);
            let ratio = a.required_gflops / b.required_gflops;
            let expect = trials_a as f64 / trials_b as f64;
            prop_assert!((ratio - expect).abs() < 1e-9);
            prop_assert!(a.satisfied_by(a.required_gflops));
            prop_assert!(!a.satisfied_by(a.required_gflops * 0.999));
        }
    }

    #[test]
    fn noise_generation_is_seed_deterministic(
        plan in arb_plan(),
        seed in any::<u64>(),
    ) {
        let a = SignalGenerator::new(seed).generate(&plan);
        let b = SignalGenerator::new(seed).generate(&plan);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }
}
