//! Property-based tests: every kernel implementation is exactly
//! equivalent to the sequential reference (Algorithm 1) for arbitrary
//! plans, inputs, and tile configurations.

use dedisp_core::prelude::*;
use proptest::prelude::*;

/// A small but non-degenerate plan drawn from arbitrary band shapes,
/// sampling rates and trial grids.
fn arb_plan() -> impl Strategy<Value = DedispersionPlan> {
    arb_plan_below(48)
}

/// [`arb_plan`] with fewer than `channels` channels. The tiled kernels
/// sum channels in blocks of 32, so their plans go up to 160: one to
/// five blocks, the last one usually partial. Sampling rates, and with
/// them `out_samples`, are odd as often as even.
fn arb_plan_below(channels: usize) -> impl Strategy<Value = DedispersionPlan> {
    (
        50.0f64..2000.0,  // low frequency, MHz
        0.05f64..2.0,     // channel width, MHz
        2usize..channels, // channels
        50u32..400,       // sample rate
        1usize..24,       // trials
        0.05f64..2.0,     // dm step
    )
        .prop_map(|(low, width, channels, rate, trials, step)| {
            DedispersionPlan::builder()
                .band(FrequencyBand::new(low, width, channels).expect("valid band"))
                .dm_grid(DmGrid::new(0.0, step, trials).expect("valid grid"))
                .sample_rate(rate)
                .allocation_limit(64 << 20)
                .build()
                .expect("plan within limits")
        })
        .prop_filter("keep inputs small", |p| {
            p.in_samples() * p.channels() < 400_000
        })
}

/// A plan whose rows are long enough — 80 to 600 kB — for a megabyte
/// slab to hold only a few of them, so that a handful of trials make
/// several slabs whose height rarely divides the trial count. Few
/// channels keep the reference kernel cheap.
fn arb_long_row_plan() -> impl Strategy<Value = DedispersionPlan> {
    (
        50.0f64..2000.0,      // low frequency, MHz
        0.05f64..2.0,         // channel width, MHz
        2usize..6,            // channels
        50u32..400,           // sample rate: sets the delays
        20_000usize..150_000, // output samples per trial
        1usize..24,           // trials
        0.05f64..2.0,         // dm step
    )
        .prop_map(|(low, width, channels, rate, samples, trials, step)| {
            DedispersionPlan::builder()
                .band(FrequencyBand::new(low, width, channels).expect("valid band"))
                .dm_grid(DmGrid::new(0.0, step, trials).expect("valid grid"))
                .sample_rate(rate)
                .out_samples(samples)
                .allocation_limit(64 << 20)
                .build()
                .expect("plan within limits")
        })
}

/// Pseudo-random input derived deterministically from a seed: values in
/// [-0.5, 0.5), so sums cancel, with one sample in 16 a signed zero.
fn fill_input(plan: &DedispersionPlan, seed: u64) -> InputBuffer {
    let mut buf = InputBuffer::for_plan(plan);
    let samples = buf.samples();
    for ch in 0..buf.channels() {
        let row = buf.channel_mut(ch);
        for (s, v) in row.iter_mut().enumerate() {
            let mut x = seed ^ ((ch * samples + s) as u64);
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            *v = match x & 0xF {
                0 if x & 0x10 == 0 => 0.0,
                0 => -0.0,
                _ => ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
            };
        }
    }
    buf
}

/// A tile configuration that fits the given plan: time tiles up to 512
/// samples, one in four narrower than a four-lane vector; DM tiles from
/// 1 to 32, odd ones included.
fn arb_config_for(samples: usize, trials: usize) -> impl Strategy<Value = KernelConfig> {
    (1u32..=64, 1u32..=8, 1u32..=8, 1u32..=4, 0u32..4).prop_map(move |(wt, wd, et, ed, narrow)| {
        let (wt, et) = if narrow == 0 {
            (wt % 3 + 1, 1)
        } else {
            (wt, et)
        };
        let mut c = KernelConfig::new(wt, wd, et, ed).expect("non-zero");
        // Shrink the tile until it fits the problem.
        while (c.tile_time() as usize) > samples || (c.tile_dm() as usize) > trials {
            let wt = (c.wi_time() / 2).max(1);
            let wd = (c.wi_dm() / 2).max(1);
            let et = (c.el_time() / 2).max(1);
            let ed = (c.el_dm() / 2).max(1);
            let next = KernelConfig::new(wt, wd, et, ed).expect("non-zero");
            if next == c {
                break;
            }
            c = next;
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_kernels_equal_reference_bit_for_bit(
        (plan, config, seed) in arb_plan_below(161).prop_flat_map(|p| {
            let (s, d) = (p.out_samples(), p.trials());
            (Just(p), arb_config_for(s, d), any::<u64>())
        }),
    ) {
        prop_assume!(config.validate_for(plan.out_samples(), plan.trials()).is_ok());
        let input = fill_input(&plan, seed);
        let mut reference = OutputBuffer::for_plan(&plan);
        NaiveKernel.dedisperse(&plan, &input, &mut reference).unwrap();

        for config in [config, KernelConfig::scalar()] {
            let mut tiled = OutputBuffer::for_plan(&plan);
            TiledKernel::new(config).dedisperse(&plan, &input, &mut tiled).unwrap();
            prop_assert!(tiled.bits_eq(&reference), "tiled under {}", config);

            let mut parallel = OutputBuffer::for_plan(&plan);
            ParallelKernel::new(config).dedisperse(&plan, &input, &mut parallel).unwrap();
            prop_assert!(parallel.bits_eq(&reference), "parallel under {}", config);
        }
    }

    #[test]
    fn slab_sink_delivers_the_reference_rows_exactly_once(
        (plan, config, seed) in arb_long_row_plan().prop_flat_map(|p| {
            let (s, d) = (p.out_samples(), p.trials());
            (Just(p), arb_config_for(s, d), any::<u64>())
        }),
    ) {
        prop_assume!(config.validate_for(plan.out_samples(), plan.trials()).is_ok());
        let input = fill_input(&plan, seed);
        let mut reference = OutputBuffer::for_plan(&plan);
        NaiveKernel.dedisperse(&plan, &input, &mut reference).unwrap();

        let kernels: [Box<dyn Dedisperser>; 3] = [
            Box::new(TiledKernel::new(config)),
            Box::new(ParallelKernel::new(config)),
            // The default: one slab, the whole plane.
            Box::new(NaiveKernel),
        ];
        for kernel in kernels {
            // First trials in order of arrival, how often each trial
            // came, and a trial that came with other bits.
            let seen = std::sync::Mutex::new((Vec::new(), vec![0u32; plan.trials()], None));
            kernel.dedisperse_slabs(&plan, &input, &|first, rows| {
                let mut seen = seen.lock().unwrap();
                seen.0.push(first);
                for (r, row) in rows.chunks(plan.out_samples()).enumerate() {
                    seen.1[first + r] += 1;
                    let want = reference.series(first + r);
                    if row.len() != want.len()
                        || row.iter().zip(want).any(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        seen.2 = Some(first + r);
                    }
                }
            }).unwrap();
            let (firsts, arrivals, wrong) = seen.into_inner().unwrap();
            let name = kernel.name();
            prop_assert_eq!(wrong, None, "{} under {}", name, config);
            prop_assert!(arrivals.iter().all(|&n| n == 1), "{} under {}: {:?}", name, config, arrivals);
            if name != "parallel" {
                // One thread delivers in ascending order; the parallel
                // kernel's bands interleave.
                prop_assert!(firsts.windows(2).all(|w| w[0] < w[1]), "{}: {:?}", name, firsts);
            }
        }
    }

    #[test]
    fn delay_table_is_monotone(
        plan in arb_plan(),
    ) {
        let t = plan.delays();
        // Non-decreasing in trial DM for every channel.
        for ch in 0..t.channels() {
            for trial in 1..t.trials() {
                prop_assert!(t.delay(trial, ch) >= t.delay(trial - 1, ch));
            }
        }
        // Non-increasing in channel (higher frequency) for every trial.
        for trial in 0..t.trials() {
            for ch in 1..t.channels() {
                prop_assert!(t.delay(trial, ch) <= t.delay(trial, ch - 1));
            }
        }
        // The input shape always covers the worst-case delay.
        prop_assert_eq!(plan.in_samples(), plan.out_samples() + t.max_delay());
    }

    #[test]
    fn constant_input_dedisperses_to_channel_sum(
        plan in arb_plan(),
        value in -8.0f32..8.0,
    ) {
        let input = InputBuffer::constant(&plan, value);
        let out = dedisp_core::kernel::dedisperse(&plan, &input).unwrap();
        let expected = value * plan.channels() as f32;
        let tol = plan.channels() as f32 * 1e-4;
        for &v in out.as_slice() {
            prop_assert!((v - expected).abs() <= tol, "{v} != {expected}");
        }
    }

    #[test]
    fn ai_respects_eq2_without_reuse(plan in arb_plan()) {
        let ai = ArithmeticIntensity::for_execution(&plan, &KernelConfig::scalar());
        prop_assert!(ai.flop_per_byte() < ArithmeticIntensity::NO_REUSE_BOUND);
        prop_assert!((ai.reuse_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_factor_bounded_by_tile_dm(
        (plan, config) in arb_plan().prop_flat_map(|p| {
            let (s, d) = (p.out_samples(), p.trials());
            (Just(p), arb_config_for(s, d))
        }),
    ) {
        prop_assume!(config.validate_for(plan.out_samples(), plan.trials()).is_ok());
        let ai = ArithmeticIntensity::for_execution(&plan, &config);
        // Staged reuse can never exceed the DM-tile height. It CAN drop
        // below 1: when the delay spread across a tile's trials exceeds
        // the tile width, staging the whole span reads more than the
        // no-reuse kernel would — the reason the tuner abandons wide DM
        // tiles in reuse-hostile setups like LOFAR (paper, Section V-A).
        prop_assert!(ai.reuse_factor() <= f64::from(config.tile_dm()) + 1e-9);
        prop_assert!(ai.reuse_factor() > 0.0);
    }

    #[test]
    fn codegen_always_compilesish(
        (plan, config) in arb_plan().prop_flat_map(|p| {
            let (s, d) = (p.out_samples(), p.trials());
            (Just(p), arb_config_for(s, d))
        }),
    ) {
        prop_assume!(config.validate_for(plan.out_samples(), plan.trials()).is_ok());
        let src = dedisp_core::codegen::generate_opencl(&plan, &config).unwrap();
        // Structural sanity: balanced braces, one accumulator and one
        // output write per element.
        let opens = src.matches('{').count();
        let closes = src.matches('}').count();
        prop_assert_eq!(opens, closes);
        let elems = (config.el_time() * config.el_dm()) as usize;
        prop_assert_eq!(src.matches("float acc_").count(), elems);
        prop_assert_eq!(src.matches("output[(dm0 + ").count(), elems);
    }
}
