//! Ablation bench: the shipped k-way merge — a loser tree, the balanced
//! tournament tree of §3.1 — vs a naive rescan of all stream heads, as
//! the number of input files grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ute_merge::kway::{LoserTreeMerge, NaiveMerge, VecSource};

fn streams(k: usize, per_stream: usize) -> Vec<VecSource> {
    let mut state = 0x2468_ace0u64;
    let mut xorshift = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..k)
        .map(|_| {
            let mut v: Vec<(u64, u64)> = (0..per_stream)
                .map(|_| (xorshift() % 10_000_000, 0))
                .collect();
            v.sort_unstable();
            VecSource::new(v)
        })
        .collect()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("kway_merge");
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let per_stream = 10_000;
    for k in [4usize, 16, 64] {
        group.throughput(Throughput::Elements((k * per_stream) as u64));
        group.bench_with_input(BenchmarkId::new("loser_tree", k), &k, |b, &k| {
            b.iter_batched(
                || streams(k, per_stream),
                |s| LoserTreeMerge::new(s).count(),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("naive_rescan", k), &k, |b, &k| {
            b.iter_batched(
                || streams(k, per_stream),
                |s| NaiveMerge::new(s).count(),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
