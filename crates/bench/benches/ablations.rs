//! Ablations called out in DESIGN.md:
//!
//! * splitting strategy (Lin vs Log vs Tw vs Tw* vs the adaptive chooser) —
//!   the Section 6 observation that none dominates;
//! * natural vs min-fill tree decomposition for the Log rewriting;
//! * Adaptive `prepare` of never-seen query texts with the system's
//!   tree-witness memo warm vs empty (DESIGN §16).
//!
//! Bottom-up evaluation is measured warm: the database memoises the
//! `*`-completions the engine derives, so every iteration after the first
//! reuses them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use obda::{ObdaSystem, Strategy};
use obda_bench::{dataset, paper_system, prefix_query};
use obda_ndl::eval::evaluate;
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

fn bench_tree_decomposition_choice(c: &mut Criterion) {
    let sys = paper_system();
    let q = prefix_query(&sys, 0, 9);
    let omq = Omq::new(sys.ontology(), &q);
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

/// The Table-1 prefixes of the `cold_misses` benchmark workload.
const COLD_PREFIXES: [&str; 20] = [
    "RRSRSRSR",
    "SRRRRRSR",
    "SRRSSRSR",
    "RRSRSRSRR",
    "SRRRRRSRS",
    "SRRSSRSRS",
    "RRSRSRSRRS",
    "SRRRRRSRSR",
    "SRRSSRSRSR",
    "RRSRSRSRRSR",
    "SRRRRRSRSRR",
    "SRRSSRSRSRR",
    "RRSRSRSRRSRR",
    "SRRSSRSRSRRS",
    "RRSRSRSRRSRRS",
    "SRRSSRSRSRRSR",
    "RRSRSRSRRSRRSS",
    "SRRSSRSRSRRSRR",
    "RRSRSRSRRSRRSSR",
    "SRRSSRSRSRRSRRS",
];

/// Prepares every cold prefix under Adaptive, its variables named with a
/// stem no earlier iteration used, as a cache miss of `obda serve` would.
fn prepare_cold_prefixes(sys: &ObdaSystem, stem: u64) {
    for word in COLD_PREFIXES {
        let atoms: Vec<String> = word
            .chars()
            .enumerate()
            .map(|(i, c)| format!("{c}(v{stem}_{i}, v{stem}_{})", i + 1))
            .collect();
        let text = format!("q(v{stem}_0, v{stem}_{}) :- {}", word.len(), atoms.join(", "));
        let query = sys.parse_query(&text).unwrap();
        black_box(sys.prepare(&query, Strategy::Adaptive).unwrap());
    }
}

fn bench_cold_prepare(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_prepare_adaptive");
    group.sample_size(10);
    let shared = paper_system();
    let mut stem = 0u64;
    group.bench_function("shared_system", |b| {
        b.iter(|| {
            stem += 1;
            prepare_cold_prefixes(&shared, stem);
        })
    });
    group.bench_function("fresh_system", |b| {
        b.iter(|| {
            stem += 1;
            prepare_cold_prefixes(&paper_system(), stem);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_splitting_strategies,
    bench_tree_decomposition_choice,
    bench_cold_prepare
);
criterion_main!(benches);
