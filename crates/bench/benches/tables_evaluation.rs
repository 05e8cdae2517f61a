//! Tables 3–5 benchmark: end-to-end evaluation time of each rewriting over
//! a (scaled) Table 2 dataset. One benchmark per (strategy, query-length)
//! pair on dataset 2; the full sweep is produced by `experiments table3..5`.
//! Evaluation is measured warm: the database memoises the `*`-completions
//! the engine derives, so every iteration after the first reuses them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obda_bench::{dataset, paper_system, prefix_query, EVAL_STRATEGIES};
use obda_ndl::eval::evaluate;
use obda_ndl::storage::Database;
use std::hint::black_box;

fn bench_evaluation(c: &mut Criterion) {
    let sys = paper_system();
    let data = dataset(&sys, 1, 0.04); // dataset 2.ttl at laptop scale
    let db = Database::new(&data); // built once, shared across every strategy
    let mut group = c.benchmark_group("tables_evaluation_ds2");
    group.sample_size(10);
    for n in [3usize, 7] {
        let q = prefix_query(&sys, 0, n);
        for strategy in EVAL_STRATEGIES {
            let Ok(rewriting) = sys.rewrite(&q, strategy) else { continue };
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy}"), format!("n{n}")),
                &rewriting,
                |b, rw| b.iter(|| black_box(evaluate(black_box(rw), &db).unwrap())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_evaluation);
criterion_main!(benches);
