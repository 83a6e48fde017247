//! Property tests: the CPU baseline kernel is exactly the reference
//! transform for arbitrary plans.

use cpu_baseline::OpenMpAvxKernel;
use dedisp_core::prelude::*;
use proptest::prelude::*;

fn arb_plan() -> impl Strategy<Value = DedispersionPlan> {
    (
        80.0f64..1500.0,
        0.05f64..1.0,
        2usize..40,
        50u32..400,
        1usize..20,
    )
        .prop_map(|(low, width, channels, rate, trials)| {
            DedispersionPlan::builder()
                .band(FrequencyBand::new(low, width, channels).expect("valid band"))
                .dm_grid(DmGrid::new(0.0, 0.7, trials).expect("valid grid"))
                .sample_rate(rate)
                .allocation_limit(64 << 20)
                .build()
                .expect("plan fits")
        })
        .prop_filter("bounded", |p| p.in_samples() * p.channels() < 300_000)
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cpu_kernel_equals_reference(
        plan in arb_plan(),
        seed in any::<u64>(),
    ) {
        let input = fill(&plan, seed);
        let reference = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let mut out = OutputBuffer::for_plan(&plan);
        out.as_mut_slice().fill(f32::NAN);
        OpenMpAvxKernel::default()
            .dedisperse(&plan, &input, &mut out)
            .unwrap();
        prop_assert!(out.bits_eq(&reference));
    }

}
