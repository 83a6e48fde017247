//! Cross-algorithm parity: the two-stage subband kernel agrees with
//! the brute-force CPU baseline within its *documented* error bound
//! (`SubbandKernel::max_smear_samples`), its exact degenerate
//! configuration matches it bit for bit, and the simulator's
//! per-algorithm cost plane orders the algorithms the same way real
//! wall-clock does on a preset — the evidence the admission ladder
//! needs before it trades algorithms against shed tiers.

use cpu_baseline::{xeon_e5_2620, OpenMpAvxKernel};
use dedisp_core::prelude::*;
use dedisp_core::KernelConfig;
use manycore_sim::{Algorithm, CostModel, Workload};
use proptest::prelude::*;

fn plan_for(channels: usize, trials: usize, rate: u32) -> DedispersionPlan {
    DedispersionPlan::builder()
        .band(FrequencyBand::new(140.0, 0.25, channels).expect("valid band"))
        .dm_grid(DmGrid::new(0.0, 0.4, trials).expect("valid grid"))
        .sample_rate(rate)
        .allocation_limit(256 << 20)
        .build()
        .expect("plan fits")
}

fn fill(plan: &DedispersionPlan, seed: u64) -> InputBuffer {
    let mut buf = InputBuffer::for_plan(plan);
    let samples = buf.samples();
    for ch in 0..buf.channels() {
        for (s, v) in buf.channel_mut(ch).iter_mut().enumerate() {
            let mut x = seed ^ ((ch * samples + s) as u64);
            x = x.wrapping_mul(0xA076_1D64_78BD_642F).rotate_left(25);
            x = x.wrapping_mul(0xE703_7ED1_A0B4_28DB);
            *v = ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The degenerate subband configuration (one channel per subband,
    /// no DM decimation) is the exact transform: it matches the CPU
    /// baseline on arbitrary plans and inputs.
    #[test]
    fn degenerate_subband_matches_the_cpu_baseline_exactly(
        channels in 2usize..24,
        trials in 1usize..12,
        rate in 100u32..500,
        seed in any::<u64>(),
    ) {
        let plan = plan_for(channels, trials, rate);
        prop_assume!(plan.in_samples() * plan.channels() < 300_000);
        let input = fill(&plan, seed);

        let mut brute = OutputBuffer::for_plan(&plan);
        OpenMpAvxKernel::default()
            .dedisperse(&plan, &input, &mut brute)
            .unwrap();

        let kernel = SubbandKernel::new(SubbandConfig::new(channels, 1).unwrap());
        prop_assert_eq!(kernel.max_smear_samples(&plan).unwrap(), 0);
        let mut out = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut out).unwrap();
        // Each channel is its own subband's partial, and the partials are
        // summed in channel order from zero: the brute-force order.
        prop_assert!(out.bits_eq(&brute));
    }

    /// On arbitrary decimating configurations the approximation honours
    /// its documented bound: a band-wide impulse the CPU baseline lands
    /// in one bin is fully recovered by the subband path within
    /// `±max_smear_samples` of that bin.
    #[test]
    fn subband_recovers_an_impulse_within_its_documented_smear_bound(
        subbands_pow in 1u32..4,
        per_sub in 1usize..5,
        stride in 1usize..6,
        trials in 2usize..14,
        rate in 300u32..2_000,
        which in 0usize..1024,
    ) {
        let subbands = 1usize << subbands_pow;
        let channels = subbands * per_sub;
        let plan = plan_for(channels, trials, rate);
        prop_assume!(plan.in_samples() * plan.channels() < 400_000);

        let kernel = SubbandKernel::new(SubbandConfig::new(subbands, stride).unwrap());
        let smear = kernel.max_smear_samples(&plan).unwrap();
        prop_assume!(plan.out_samples() > 2 * smear + 4);

        // A dispersed impulse matching one fine trial exactly.
        let trial = which % trials;
        let base = smear + 1;
        let mut input = InputBuffer::for_plan(&plan);
        for ch in 0..channels {
            input.channel_mut(ch)[base + plan.delays().delay(trial, ch)] = 1.0;
        }

        let mut brute = OutputBuffer::for_plan(&plan);
        OpenMpAvxKernel::default()
            .dedisperse(&plan, &input, &mut brute)
            .unwrap();
        let peak = brute.series(trial)[base];
        prop_assert!((peak - channels as f32).abs() < 1e-3, "baseline peak {peak}");

        let mut out = OutputBuffer::for_plan(&plan);
        kernel.dedisperse(&plan, &input, &mut out).unwrap();
        let captured: f32 = out.series(trial)[base - smear..=base + smear].iter().sum();
        prop_assert!(
            (captured - channels as f32).abs() < 1e-3,
            "captured {captured} of {channels} within ±{smear}"
        );
    }
}

/// The simulator's per-algorithm cost plane and real wall-clock agree
/// on which algorithm is cheaper for the preset the fleet tests lean
/// on: subband-with-decimation undercuts brute force in both worlds.
#[test]
fn sim_cost_ordering_matches_wall_clock_ordering_on_a_preset() {
    let plan = plan_for(128, 128, 4_000);
    let factor = 32u32;
    let workload = Workload::from_plan("parity-preset", &plan);

    let model = CostModel::exact(xeon_e5_2620());
    let config = KernelConfig::new(8, 1, 8, 1).unwrap();
    let brute_pred = model.evaluate(&workload, &config).unwrap().time_s;
    let sub_pred = model
        .evaluate_algorithm(&workload, &config, Algorithm::Subband { factor })
        .unwrap()
        .time_s;
    assert!(
        sub_pred < brute_pred,
        "model must rank subband cheaper: {sub_pred} vs {brute_pred}"
    );

    // Wall-clock on the same serial kernel family (shift-and-sum vs
    // two-stage), best of two runs each to shave scheduler noise.
    let input = fill(&plan, 7);
    let subband = SubbandKernel::new(
        SubbandConfig::new(
            workload.channels.min(manycore_sim::MAX_SUBBANDS),
            factor as usize,
        )
        .unwrap(),
    );
    let mut brute_wall = f64::INFINITY;
    let mut sub_wall = f64::INFINITY;
    for _ in 0..2 {
        let mut out = OutputBuffer::for_plan(&plan);
        let t = std::time::Instant::now();
        NaiveKernel.dedisperse(&plan, &input, &mut out).unwrap();
        brute_wall = brute_wall.min(t.elapsed().as_secs_f64());

        let mut out = OutputBuffer::for_plan(&plan);
        let t = std::time::Instant::now();
        subband.dedisperse(&plan, &input, &mut out).unwrap();
        sub_wall = sub_wall.min(t.elapsed().as_secs_f64());
    }
    assert!(
        sub_wall < brute_wall,
        "measured ordering must match the model: subband {sub_wall}s vs brute {brute_wall}s"
    );
}
