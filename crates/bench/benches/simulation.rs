//! Criterion micro-benchmarks: exact (parallel pipeline) vs aggregate vs
//! streaming simulation paths, all through the unified trait API.
//!
//! The ablation behind the "two execution paths" decision: the exact path
//! performs `n·m` Bernoulli draws (chunked across cores by
//! `SimulationPipeline`), the aggregate path `O(n + m)` binomials. Both
//! produce identically distributed server-side counts. The streaming path
//! replays the exact path one report at a time through a
//! `ShardedAccumulator` — same counts bit for bit — and its overhead over
//! the batch pipeline is the price of online ingestion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use idldp_core::budget::Epsilon;
use idldp_core::idue::Idue;
use idldp_core::idue_ps::IduePs;
use idldp_core::mechanism::InputBatch;
use idldp_num::rng::stream_rng;
use idldp_sim::stream::{SeededReportStream, ShapedAccumulator, ShardedAccumulator};
use idldp_sim::{aggregate, SimulationPipeline};
use std::hint::black_box;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn bench_single_item_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate/single-item");
    group.sample_size(10);
    for (n, m) in [(10_000usize, 100usize), (50_000, 100)] {
        let mech = Idue::oue(m, eps(1.0)).unwrap();
        let items: Vec<u32> = (0..n).map(|i| (i % m) as u32).collect();
        let pipeline = SimulationPipeline::new();
        group.bench_with_input(
            BenchmarkId::new("exact-parallel", format!("n{n}-m{m}")),
            &items,
            |b, items| {
                b.iter(|| black_box(pipeline.run(&mech, InputBatch::Items(items), 1).unwrap()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact-sequential", format!("n{n}-m{m}")),
            &items,
            |b, items| {
                b.iter(|| {
                    black_box(
                        pipeline
                            .run_sequential(&mech, InputBatch::Items(items), 1)
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("aggregate", format!("n{n}-m{m}")),
            &items,
            |b, items| {
                let mut rng = stream_rng(2, 0);
                b.iter(|| {
                    black_box(
                        aggregate::run_counts(&mut rng, &mech, InputBatch::Items(items)).unwrap(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streaming-sharded", format!("n{n}-m{m}")),
            &items,
            |b, items| {
                b.iter(|| {
                    let sink = ShardedAccumulator::new(
                        ShapedAccumulator::for_mechanism(&mech),
                        idldp_sim::stream::DEFAULT_SHARDS,
                    );
                    SeededReportStream::new(&mech, InputBatch::Items(items), 1)
                        .ingest_all(&sink)
                        .unwrap();
                    black_box(sink.snapshot())
                })
            },
        );
    }
    group.finish();
}

fn bench_item_set_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate/item-set");
    group.sample_size(10);
    let (n, m, l) = (10_000usize, 200usize, 4usize);
    let mech = IduePs::oue_ps(m, eps(1.0), l).unwrap();
    let sets: Vec<Vec<u32>> = (0..n)
        .map(|i| vec![(i % m) as u32, ((i + 7) % m) as u32, ((i + 31) % m) as u32])
        .collect();
    let pipeline = SimulationPipeline::new();
    group.bench_function("exact-parallel", |b| {
        b.iter(|| black_box(pipeline.run(&mech, InputBatch::Sets(&sets), 1).unwrap()))
    });
    group.bench_function("aggregate", |b| {
        let mut rng = stream_rng(3, 0);
        b.iter(|| {
            black_box(aggregate::run_counts(&mut rng, &mech, InputBatch::Sets(&sets)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_item_paths, bench_item_set_paths);
criterion_main!(benches);
