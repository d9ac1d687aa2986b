//! Benchmark for the Section IV machinery: construction of distinguishers
//! and the distinguisher-driven weak nontrivial-move protocol on
//! adversarial (balanced) rings — the quantity whose Θ(n·log(N/n)/log n)
//! growth is the paper's key lower bound. (Selective families are implicit
//! and O(log n) to build; `bench_combinat` times their verification.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ring_bench::balanced_deployment;
use ring_combinat::{reference, Distinguisher};
use ring_protocols::coordination::nontrivial::weak_nontrivial_move_even_distinguisher;
use ring_protocols::Network;
use ring_sim::Model;

fn bench_constructions(c: &mut Criterion) {
    let mut group = c.benchmark_group("distinguisher/construction");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &[8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("distinguisher", n), &n, |b, &n| {
            b.iter(|| Distinguisher::random(1 << 12, n, 7))
        });
    }
    group.finish();
}

/// The word-parallel construction at large universes (N ≥ 10⁵), against
/// the element-wise reference implementation it replaced — the speedup
/// the `BENCH_combinat.json` trajectory tracks.
fn bench_constructions_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("distinguisher/construction_large");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let universe = 100_000u64;
    for &n in &[64usize, 256] {
        group.bench_with_input(BenchmarkId::new("distinguisher", n), &n, |b, &n| {
            b.iter(|| Distinguisher::random(universe, n, 7))
        });
    }
    // The reference paths are too slow to sweep; one size anchors the ratio.
    group.bench_with_input(
        BenchmarkId::new("distinguisher_reference", 64),
        &64,
        |b, &n| b.iter(|| reference::distinguisher_random_reference(universe, n, 7)),
    );
    group.finish();
}

fn bench_weak_nontrivial_move(c: &mut Criterion) {
    let mut group = c.benchmark_group("distinguisher/weak_nontrivial_move");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &[8usize, 16, 32] {
        let (config, ids) = balanced_deployment(n, 64, 500 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut net = Network::new(&config, ids.clone(), Model::Basic).unwrap();
                weak_nontrivial_move_even_distinguisher(&mut net, 3).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_constructions,
    bench_constructions_large,
    bench_weak_nontrivial_move
);
criterion_main!(benches);
