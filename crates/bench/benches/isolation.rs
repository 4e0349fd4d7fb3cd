//! Sweep-memo costs of a cold `sweep-2c`-shaped sweep: 4 Table II mixes ×
//! 6 schemes × 2 L2 sizes at 20k instructions.
//!
//! Report-only id `isolation/cold-sweep-2c`: mean ns to fill an empty
//! `IsolationCache` with the sweep's 48 isolation keys (8 benchmarks ×
//! {L, N, BT} × {512 KB, 2 MB}), without the sweep's own shared-L2
//! cases. Every case's keys are planned first, as `WorkerPool::submit`
//! does, and then two threads pull cases off one cursor and look up each
//! case's isolation IPCs, as the pool's two workers do after their
//! shared-L2 runs.
//!
//! Report-only id `isolation/front-end-sweep-2c`: mean ns of the whole
//! cold sweep on a 2-worker `SweepRunner`, where the 12 cases of each mix
//! read their cores' front ends from the memo's shared logs. It prints
//! the memo's front-end counters: records produced vs read, and the
//! peak bytes the logs held.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plru_repro::cmpsim::FrontEndStats;
use plru_repro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const WORKERS: usize = 2;

fn sweep_2c_cases() -> Vec<ScenarioCase> {
    let names = |xs: &[&str]| {
        xs.iter()
            .map(|x| WorkloadSel::Named(x.to_string()))
            .collect()
    };
    let schemes = ["L", "N", "BT", "M-L", "M-0.75N", "M-BT"];
    ScenarioSpec {
        name: "isolation-cold-sweep-2c".into(),
        insts: Some(20_000),
        interval_cycles: Some(150_000),
        workloads: names(&["2T_01", "2T_02", "2T_03", "2T_04"]),
        schemes: SchemeAxis::List(schemes.iter().map(|s| s.to_string()).collect()),
        l2_sizes: Some(vec![512 * 1024, 2 * 1024 * 1024]),
        ..ScenarioSpec::default()
    }
    .expand()
    .expect("valid spec")
}

/// Fill a cold memo with every isolation key of `cases`.
fn cold_fill(cases: &[ScenarioCase]) -> MemoStats {
    let memo = Arc::new(IsolationCache::new());
    for c in cases {
        memo.plan(&c.machine(), &c.benchmarks, c.scheme.policy(), c.seed_salt);
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                while let Some(c) = cases.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    black_box(c.engine(memo.clone()).isolation_ipcs(&c.benchmarks));
                }
            });
        }
    });
    memo.stats()
}

fn bench_isolation(c: &mut Criterion) {
    let cases = sweep_2c_cases();
    let stats = cold_fill(&cases);
    assert_eq!(cases.len(), 48);
    assert_eq!(stats.misses, 48, "8 benchmarks x 3 policies x 2 sizes");
    println!(
        "isolation/cold-sweep-2c: {} cases, {} keys simulated per fill",
        cases.len(),
        stats.misses
    );
    let mut group = c.benchmark_group("isolation");
    group.sample_size(10);
    group.bench_function("cold-sweep-2c", |b| b.iter(|| cold_fill(&cases)));
    group.finish();
}

/// One cold sweep of `cases` on a fresh memo.
fn cold_sweep(cases: &[ScenarioCase]) -> FrontEndStats {
    let memo = Arc::new(IsolationCache::new());
    let runner = SweepRunner::with_threads(WORKERS).isolation(memo.clone());
    black_box(runner.run_cases(cases));
    memo.front_end_stats()
}

fn bench_front_end(c: &mut Criterion) {
    let cases = sweep_2c_cases();
    let stats = cold_sweep(&cases);
    assert_eq!(stats.live_bytes, 0, "every log is freed after the sweep");
    println!(
        "isolation/front-end-sweep-2c: {} cases, {} front-end records produced, {} read, \
         peak {} log bytes",
        cases.len(),
        stats.produced,
        stats.consumed,
        stats.peak_bytes
    );
    let mut group = c.benchmark_group("isolation");
    group.sample_size(10);
    group.bench_function("front-end-sweep-2c", |b| b.iter(|| cold_sweep(&cases)));
    group.finish();
}

criterion_group!(benches, bench_isolation, bench_front_end);
criterion_main!(benches);
