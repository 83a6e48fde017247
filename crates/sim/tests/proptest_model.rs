//! Property-based tests of the analytic device model: physical
//! invariants that must hold for every device, workload, and meaningful
//! configuration.

use dedisp_core::{DmGrid, FrequencyBand, KernelConfig};
use manycore_sim::{
    all_devices, check_config, Algorithm, BoundKind, Cell, CostEstimate, CostModel,
    DeviceDescriptor, Occupancy, TrafficEstimate, Workload,
};
use proptest::prelude::*;

/// The oracle for [`Cell::tile_lines`]: the channel-by-channel sum it
/// replaced, kept here verbatim so a wrong run walk cannot agree with
/// itself.
fn channel_loop(device: &DeviceDescriptor, gradient: &[f64], tile_time: u32, tile_dm: u32) -> f64 {
    let line_elems = device.cache_line_elems();
    let line = f64::from(line_elems);
    let t = f64::from(tile_time);
    let d = f64::from(tile_dm);
    let mut lines_per_wg = 0.0;
    for &g in gradient {
        if g >= t {
            lines_per_wg += d * ((t / line).ceil() + 1.0);
        } else {
            let span = t + (d - 1.0) * g;
            let aligned = g <= 0.0 && tile_time.is_multiple_of(line_elems);
            let misalign = if aligned { 0.0 } else { 1.0 };
            lines_per_wg += (span / line).ceil() + misalign;
        }
    }
    lines_per_wg
}

/// How a drawn gradient is laid out along the channels.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Sorted: the walk's long runs.
    Sorted,
    /// Sorted whole samples: ties and plateaus.
    Plateaus,
    /// In draw order: not monotone, one-channel runs.
    Shuffled,
    /// All zeros: the 0-DM scenario, one run.
    Zeros,
    /// Sorted across zero.
    Negatives,
    /// Sorted with −∞ at the low end and +∞ at the high end.
    Infinite,
    /// Sorted with one NaN.
    Nan,
}

/// 1–1,100 channels, laid out as [`Layout`] says, ascending or
/// descending. Magnitudes stay below 5,000 samples per step, so every
/// sum of terms stays far below 2⁵³.
fn arb_gradient() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec(0.0f64..1.0, 1..=1_100),
        prop::sample::select(vec![1.0f64, 4.0, 100.0, 5_000.0]),
        prop::sample::select(vec![
            Layout::Sorted,
            Layout::Plateaus,
            Layout::Shuffled,
            Layout::Zeros,
            Layout::Negatives,
            Layout::Infinite,
            Layout::Nan,
        ]),
        any::<bool>(),
        0usize..4,
    )
        .prop_map(|(unit, scale, layout, descending, cut)| {
            let mut g: Vec<f64> = unit.iter().map(|u| u * scale).collect();
            match layout {
                Layout::Shuffled => return g,
                Layout::Plateaus => g.iter_mut().for_each(|v| *v = v.floor()),
                Layout::Zeros => g.fill(0.0),
                Layout::Negatives => g.iter_mut().for_each(|v| *v -= scale / 2.0),
                _ => {}
            }
            g.sort_by(f64::total_cmp);
            let n = g.len();
            match layout {
                Layout::Infinite => {
                    g[..cut.min(n)].fill(f64::NEG_INFINITY);
                    g[n - cut.min(n)..].fill(f64::INFINITY);
                }
                Layout::Nan => g[cut * 331 % n] = f64::NAN,
                _ => {}
            }
            if descending {
                g.reverse();
            }
            g
        })
}

/// A tile side: a paper-space product, or a line multiple, or 1.
fn arb_tile() -> impl Strategy<Value = (u32, u32)> {
    let time = (
        prop::sample::select(vec![
            2u32, 4, 5, 8, 10, 16, 20, 25, 32, 50, 64, 100, 125, 128, 200, 250, 256, 500, 512,
            1000, 1024,
        ]),
        prop::sample::select(vec![1u32, 2, 4, 5, 8, 10, 16, 20, 25, 32]),
        prop::sample::select(vec![
            None,
            Some(1u32),
            Some(16),
            Some(32),
            Some(96),
            Some(4096),
        ]),
    )
        .prop_map(|(wt, et, other)| other.unwrap_or(wt * et));
    let dm = (
        prop::sample::select(vec![1u32, 2, 4, 8, 16, 32]),
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
    )
        .prop_map(|(wd, ed)| wd * ed);
    (time, dm)
}

/// Every field of an estimate, floats as bit patterns.
fn bits(e: &CostEstimate) -> ([u64; 6], BoundKind) {
    let floats = [
        e.time_s,
        e.gflops,
        e.mem_time_s,
        e.compute_time_s,
        e.utilization,
        e.achieved_ai,
    ];
    (floats.map(f64::to_bits), e.bound)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        100.0f64..1800.0, // low MHz
        0.1f64..1.0,      // channel width
        8usize..256,      // channels
        prop::sample::select(vec![1_000u32, 5_000, 20_000, 200_000]),
        prop::sample::select(vec![2usize, 8, 32, 128, 1024, 4096]),
    )
        .prop_map(|(low, width, channels, rate, trials)| {
            Workload::analytic(
                "prop",
                &FrequencyBand::new(low, width, channels).expect("valid band"),
                &DmGrid::paper_grid(trials).expect("valid grid"),
                rate,
            )
            .expect("valid workload")
        })
}

fn arb_config() -> impl Strategy<Value = KernelConfig> {
    (
        prop::sample::select(vec![
            2u32, 4, 8, 16, 25, 32, 64, 100, 128, 250, 256, 512, 1024,
        ]),
        prop::sample::select(vec![1u32, 2, 4, 8, 16, 32]),
        prop::sample::select(vec![1u32, 2, 4, 5, 8, 16, 25, 32]),
        prop::sample::select(vec![1u32, 2, 4, 8]),
    )
        .prop_map(|(wt, wd, et, ed)| KernelConfig::new(wt, wd, et, ed).expect("non-zero"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimates_are_finite_positive_and_consistent(
        w in arb_workload(),
        c in arb_config(),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        prop_assume!(check_config(&dev, &w, &c).is_ok());
        let model = CostModel::new(dev);
        let e = model.evaluate(&w, &c).unwrap();
        prop_assert!(e.time_s.is_finite() && e.time_s > 0.0);
        prop_assert!(e.gflops.is_finite() && e.gflops > 0.0);
        prop_assert!(e.mem_time_s > 0.0 && e.compute_time_s > 0.0);
        prop_assert!(e.utilization > 0.0 && e.utilization <= 1.0);
        prop_assert!(e.achieved_ai > 0.0);
        // GFLOP/s metric is definitionally useful_flop / time.
        let expect = w.useful_flop as f64 / e.time_s / 1e9;
        prop_assert!((e.gflops - expect).abs() / expect < 1e-9);
        // The physical ceiling: never faster than the roofline with
        // perfect reuse and zero overheads.
        prop_assert!(e.gflops < model.device().peak_gflops);
    }

    #[test]
    fn evaluation_is_deterministic(
        w in arb_workload(),
        c in arb_config(),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        prop_assume!(check_config(&dev, &w, &c).is_ok());
        let model = CostModel::new(dev);
        let a = model.evaluate(&w, &c).unwrap();
        let b = model.evaluate(&w, &c).unwrap();
        prop_assert_eq!(a.time_s, b.time_s);
        prop_assert_eq!(a.gflops, b.gflops);
    }

    #[test]
    fn traffic_covers_at_least_the_output(
        w in arb_workload(),
        c in arb_config(),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        prop_assume!(check_config(&dev, &w, &c).is_ok());
        let t = TrafficEstimate::estimate(&dev, &w, &c);
        let useful_out = (w.trials * w.out_samples * 4) as f64;
        prop_assert!(t.write_bytes >= useful_out - 1.0);
        // Reads are never below one line-rounded pass over the samples
        // each work-group column touches... at minimum the output count
        // of elements must be read across channels once per reuse tile.
        prop_assert!(t.read_bytes > 0.0);
        prop_assert!(t.computed_flop >= w.useful_flop as f64);
        // Zero-DM (perfect reuse) never increases traffic.
        let z = TrafficEstimate::estimate(&dev, &w.zero_dm(), &c);
        prop_assert!(z.read_bytes <= t.read_bytes + 1.0);
    }

    #[test]
    fn occupancy_within_device_limits(
        w in arb_workload(),
        c in arb_config(),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        prop_assume!(check_config(&dev, &w, &c).is_ok());
        let (nt, nd) = c.grid(w.out_samples, w.trials);
        let occ = Occupancy::compute(&dev, &w, &c, (nt * nd) as u64);
        prop_assert!(occ.waves_per_wg >= 1);
        prop_assert!(occ.wg_per_cu_limit >= 1);
        prop_assert!(occ.wg_per_cu_actual <= f64::from(occ.wg_per_cu_limit));
        prop_assert!(occ.active_waves <= f64::from(dev.max_waves_per_cu) + 1e-9);
        prop_assert!(occ.simd_efficiency > 0.0 && occ.simd_efficiency <= 1.0);
        let h = occ.hiding(&dev, &c);
        prop_assert!(h > 0.0 && h <= 1.0);
    }

    #[test]
    fn more_trials_never_reduce_total_flop_rate_potential(
        w in arb_workload(),
        dev_idx in 0usize..5,
    ) {
        // Growing the instance can only grow the amount of exploitable
        // parallelism: the best simple configuration's utilization is
        // monotone (weakly) in the grid size.
        let dev = all_devices().swap_remove(dev_idx);
        let c = KernelConfig::new(dev.simd_width.min(dev.max_wg_size), 1, 2, 1).unwrap();
        prop_assume!(check_config(&dev, &w, &c).is_ok());
        let mut big = w.clone();
        big.trials *= 2;
        big.useful_flop *= 2;
        let (nt, nd) = c.grid(w.out_samples, w.trials);
        let (bt, bd) = c.grid(big.out_samples, big.trials);
        let occ_small = Occupancy::compute(&dev, &w, &c, (nt * nd) as u64);
        let occ_big = Occupancy::compute(&dev, &big, &c, (bt * bd) as u64);
        prop_assert!(occ_big.active_waves >= occ_small.active_waves - 1e-9);
    }

    #[test]
    fn violations_are_stable_under_repeat(
        w in arb_workload(),
        c in arb_config(),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        let first = check_config(&dev, &w, &c);
        let second = check_config(&dev, &w, &c);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn tile_lines_equals_the_channel_loop_bit_for_bit(
        gradient in arb_gradient(),
        tiles in prop::collection::vec(arb_tile(), 1..8),
        dev_idx in 0usize..5,
    ) {
        let dev = all_devices().swap_remove(dev_idx);
        let w = Workload {
            name: "prop".into(),
            channels: gradient.len(),
            out_samples: 20_000,
            trials: 4_096,
            gradient,
            useful_flop: 0,
            realtime_gflops: 0.0,
        };
        let cell = Cell::new(&dev, &w);
        for (t, d) in tiles {
            let walked = cell.tile_lines(t, d);
            let looped = channel_loop(&dev, &w.gradient, t, d);
            if looped.is_nan() {
                prop_assert!(walked.is_nan(), "{t} x {d}: {walked}, loop NaN");
            } else {
                prop_assert_eq!(
                    walked.to_bits(),
                    looped.to_bits(),
                    "{} x {} on {} channels: {} vs loop {}",
                    t, d, w.channels, walked, looped
                );
            }
        }
    }

    #[test]
    fn one_context_answers_as_the_one_call_paths_do(
        w in arb_workload(),
        zero_dm in any::<bool>(),
        configs in prop::collection::vec(arb_config(), 1..24),
        dev_idx in 0usize..5,
        noisy in any::<bool>(),
        factor in prop::sample::select(vec![2u32, 8, 32]),
    ) {
        // One context asked about many configurations, valid or not,
        // against a fresh one-configuration call for each.
        let w = if zero_dm { w.zero_dm() } else { w };
        let dev = all_devices().swap_remove(dev_idx);
        let model = if noisy { CostModel::new(dev.clone()) } else { CostModel::exact(dev.clone()) };
        let cell = model.cell(&w);
        for c in &configs {
            prop_assert_eq!(cell.check(c), check_config(&dev, &w, c));
            let one_call = model.evaluate(&w, c);
            let in_cell = cell.evaluate(c);
            prop_assert_eq!(in_cell.as_ref().map(bits), one_call.as_ref().map(bits));
            for algorithm in [
                Algorithm::BruteForce,
                Algorithm::Subband { factor },
                Algorithm::FourierDomain,
            ] {
                let one_call = model.evaluate_algorithm(&w, c, algorithm);
                let in_cell = cell.evaluate_algorithm(c, algorithm);
                prop_assert_eq!(in_cell.as_ref().map(bits), one_call.as_ref().map(bits));
            }
            if one_call.is_err() {
                continue;
            }
            let (nt, nd) = c.grid(w.out_samples, w.trials);
            let n_wg = (nt * nd) as u64;
            prop_assert_eq!(cell.occupancy(c, n_wg), Occupancy::compute(&dev, &w, c, n_wg));
            let lines = cell.tile_lines(c.tile_time(), c.tile_dm());
            prop_assert_eq!(lines, lines.trunc(), "a line count");
            prop_assert_eq!(cell.traffic(c, lines), TrafficEstimate::estimate(&dev, &w, c));
            prop_assert_eq!(bits(&cell.price(c, lines)), bits(&in_cell.unwrap()));
        }
    }
}
