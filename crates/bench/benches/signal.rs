//! Substrate costs: delay-table construction, synthetic observation
//! generation, and filterbank (de)serialization. (The detection scan is
//! `astro.detect_ms_p50` in `benchmark/`.)

use bench::{apertif_plan, noisy_input};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dedisp_core::{DelayTable, DmGrid, FrequencyBand};
use radioastro::{Filterbank, ObservationalSetup, PulseSpec, SignalGenerator};
use std::hint::black_box;

fn bench_delay_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal/delay_table");
    let apertif = FrequencyBand::from_edges(1420.0, 1720.0, 1024).unwrap();
    for trials in [256usize, 1024, 4096] {
        let grid = DmGrid::paper_grid(trials).unwrap();
        group.throughput(Throughput::Elements((trials * 1024) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(trials), &trials, |b, _| {
            b.iter(|| DelayTable::build(black_box(&apertif), black_box(&grid), 20_000).unwrap())
        });
    }
    group.finish();
}

fn bench_signal_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal/generate");
    let plan = apertif_plan(500, 16);
    group.throughput(Throughput::Elements(
        (plan.channels() * plan.in_samples()) as u64,
    ));
    group.bench_function("noise_only", |b| {
        b.iter(|| SignalGenerator::new(9).generate(black_box(&plan)))
    });
    group.bench_function("noise_plus_pulses", |b| {
        b.iter(|| {
            SignalGenerator::new(9)
                .pulse(PulseSpec::impulse(1.0, 100, 2.0))
                .pulse(PulseSpec::impulse(2.5, 300, 2.0))
                .generate(black_box(&plan))
        })
    });
    group.finish();
}

fn bench_filterbank(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal/filterbank");
    let setup = ObservationalSetup::lofar().scaled(2000);
    let plan = setup.plan(16).unwrap();
    let data = noisy_input(&plan, 5);
    let fb = Filterbank::new(setup.band, setup.sample_rate, data).unwrap();
    let bytes = fb.to_bytes();
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode", |b| b.iter(|| black_box(&fb).to_bytes()));
    group.bench_function("decode", |b| {
        b.iter(|| Filterbank::from_bytes(black_box(bytes.clone())).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_delay_table,
    bench_signal_generation,
    bench_filterbank
);
criterion_main!(benches);
