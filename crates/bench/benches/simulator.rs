//! Ablation benchmark for the substrate: the exact analytic engine versus
//! the event-driven reference engine, per simulated round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ring_sim::prelude::*;
use ring_sim::AnalyticScratch;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &[64usize, 256, 1024] {
        let config = RingConfig::builder(n)
            .random_positions(n as u64)
            .build()
            .unwrap();
        let dirs: Vec<ObjectiveDirection> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    ObjectiveDirection::Anticlockwise
                } else {
                    ObjectiveDirection::Clockwise
                }
            })
            .collect();
        let mut scratch = AnalyticScratch::new();
        group.bench_with_input(BenchmarkId::new("analytic", n), &n, |b, _| {
            b.iter(|| AnalyticEngine::new().execute_into(&config, 0, &dirs, &mut scratch))
        });
        if n <= 256 {
            group.bench_with_input(BenchmarkId::new("event", n), &n, |b, _| {
                b.iter(|| EventEngine::new().simulate(&config, 0, &dirs))
            });
        }
    }
    group.finish();
}

/// The zero-alloc batched round path (one reused `RoundBuffers`) against
/// the allocating one (a fresh `RoundBuffers` per round), at ring sizes up
/// to 10⁵.
fn bench_batched_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/batched_rounds");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2000));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &[64usize, 1024, 100_000] {
        let config = RingConfig::builder(n)
            .random_positions(n as u64)
            .build()
            .unwrap();
        let dirs: Vec<LocalDirection> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    LocalDirection::Left
                } else {
                    LocalDirection::Right
                }
            })
            .collect();
        let rounds = (1 << 14) / n.max(64) + 4;
        group.bench_with_input(BenchmarkId::new("buffered", n), &n, |b, _| {
            b.iter(|| {
                let mut ring = RingState::new(&config);
                let mut bufs = RoundBuffers::new();
                for _ in 0..rounds {
                    ring.execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
                        .unwrap();
                }
                ring.rounds_executed()
            })
        });
        group.bench_with_input(BenchmarkId::new("allocating", n), &n, |b, _| {
            b.iter(|| {
                let mut ring = RingState::new(&config);
                for _ in 0..rounds {
                    ring.execute_round_into(&dirs, EngineKind::Analytic, &mut RoundBuffers::new())
                        .unwrap();
                }
                ring.rounds_executed()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_batched_rounds);
criterion_main!(benches);
