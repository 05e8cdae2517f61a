//! Ablations called out in DESIGN.md:
//!
//! * splitting strategy (Lin vs Log vs Tw vs Tw* vs the adaptive chooser) —
//!   the Section 6 observation that none dominates;
//! * skinny transform on/off for evaluation;
//! * natural vs min-fill tree decomposition for the Log rewriting.
//!
//! Bottom-up evaluation is measured warm: the database memoises the
//! `*`-completions the engine derives, so every iteration after the first
//! reuses them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obda::Strategy;
use obda_bench::{dataset, paper_system, prefix_query};
use obda_ndl::eval::evaluate;
use obda_ndl::skinny::to_skinny;
use obda_ndl::storage::Database;
use obda_rewrite::log::LogRewriter;
use obda_rewrite::omq::{Omq, Rewriter};
use std::hint::black_box;

fn bench_splitting_strategies(c: &mut Criterion) {
    let sys = paper_system();
    let data = dataset(&sys, 1, 0.04);
    let db = Database::new(&data);
    let mut group = c.benchmark_group("ablation_splitting_strategy");
    group.sample_size(10);
    for n in [5usize, 9] {
        let q = prefix_query(&sys, 2, n);
        for strategy in
            [Strategy::Lin, Strategy::Log, Strategy::Tw, Strategy::TwStar, Strategy::Adaptive]
        {
            let rewriting = sys.rewrite(&q, strategy).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy}"), format!("n{n}")),
                &rewriting,
                |b, rw| b.iter(|| black_box(evaluate(rw, &db).unwrap())),
            );
        }
    }
    group.finish();
}

fn bench_skinny_on_off(c: &mut Criterion) {
    let sys = paper_system();
    let data = dataset(&sys, 1, 0.04);
    let db = Database::new(&data);
    let q = prefix_query(&sys, 0, 7);
    let log = sys.rewrite(&q, Strategy::Log).unwrap();
    let skinny = to_skinny(&log);
    let mut group = c.benchmark_group("ablation_skinny");
    group.sample_size(10);
    group.bench_function("log_plain", |b| b.iter(|| black_box(evaluate(&log, &db).unwrap())));
    group.bench_function("log_skinny", |b| b.iter(|| black_box(evaluate(&skinny, &db).unwrap())));
    group.finish();
}

fn bench_tree_decomposition_choice(c: &mut Criterion) {
    let sys = paper_system();
    let q = prefix_query(&sys, 0, 9);
    let omq = Omq { ontology: sys.ontology(), query: &q };
    let mut group = c.benchmark_group("ablation_log_decomposition");
    group.sample_size(10);
    for (name, natural) in [("natural", true), ("min_fill", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let rw = LogRewriter { natural_tree_decomposition: natural }
                    .rewrite_complete(&omq)
                    .unwrap();
                black_box(rw)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_splitting_strategies,
    bench_skinny_on_off,
    bench_tree_decomposition_choice
);
criterion_main!(benches);
