//! Micro-benchmarks of the substrates: ontology saturation, canonical-model
//! construction, homomorphism search, and bottom-up NDL evaluation — plus
//! the head-to-head of the indexed join path against the seed hash-set
//! engine.
//!
//! Bottom-up evaluation is measured warm: the database memoises the
//! `*`-completions the engine derives, so every iteration after the first
//! reuses them. The hash-set engine keeps no such memo and derives
//! everything on every call.

use criterion::{criterion_group, criterion_main, Criterion};
use obda::budget::Budget;
use obda::Strategy;
use obda_bench::{dataset, paper_system, prefix_query};
use obda_chase::homomorphism::HomSearch;
use obda_chase::model::{word_bound, CanonicalModel};
use obda_ndl::eval::evaluate;
use obda_ndl::reference::evaluate_reference;
use obda_ndl::storage::Database;
use std::hint::black_box;

fn bench_saturation(c: &mut Criterion) {
    let sys = paper_system();
    c.bench_function("taxonomy_saturation", |b| b.iter(|| black_box(sys.ontology().taxonomy())));
}

fn bench_chase(c: &mut Criterion) {
    let sys = paper_system();
    let q = prefix_query(&sys, 0, 5);
    let data = dataset(&sys, 1, 0.02);
    let bound = word_bound(sys.taxonomy(), q.num_vars());
    c.bench_function("canonical_model_build", |b| {
        b.iter(|| black_box(CanonicalModel::new(sys.ontology(), &data, bound)))
    });
    let model = CanonicalModel::new(sys.ontology(), &data, bound);
    c.bench_function("hom_search_exists", |b| {
        b.iter(|| black_box(HomSearch::new(&model, &q).exists(&[])))
    });
}

fn bench_evaluators(c: &mut Criterion) {
    let sys = paper_system();
    let q = prefix_query(&sys, 0, 5);
    let data = dataset(&sys, 1, 0.02);
    let db = Database::new(&data);
    let lin = sys.rewrite(&q, Strategy::Lin).unwrap();
    c.bench_function("eval_bottom_up_lin", |b| b.iter(|| black_box(evaluate(&lin, &db).unwrap())));
}

/// Indexed join path over the shared columnar [`Database`] vs the seed
/// hash-set engine (which rebuilds its relations and per-clause join
/// indexes on every call), on a Sequence-2 workload.
fn bench_storage_substrate(c: &mut Criterion) {
    let sys = paper_system();
    let q = prefix_query(&sys, 1, 5); // sequence 2
    let data = dataset(&sys, 1, 0.02);
    let db = Database::new(&data);
    let tw = sys.rewrite(&q, Strategy::Tw).unwrap();
    let mut group = c.benchmark_group("storage_substrate_seq2");
    group.bench_function("indexed_database", |b| b.iter(|| black_box(evaluate(&tw, &db).unwrap())));
    group.bench_function("hashset_reference", |b| {
        b.iter(|| black_box(evaluate_reference(&tw, &data, &mut Budget::unlimited()).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_saturation, bench_chase, bench_evaluators, bench_storage_substrate);
criterion_main!(benches);
