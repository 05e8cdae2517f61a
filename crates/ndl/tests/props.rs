//! Property tests for the storage-backed evaluators: the engine agrees
//! with the seed hash-set reference engine on random nonrecursive
//! programs (renaming clauses included) at every thread count, with and
//! without goal-directed pruning and demand-driven evaluation (override
//! the counts under test with `OBDA_TEST_THREADS=n1,n2,...`).

use obda_budget::Budget;
use obda_ndl::engine::{evaluate_engine_on_traced, EngineConfig};
use obda_ndl::eval::evaluate;
use obda_ndl::explain::explain_plan_executed;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredKind, Program};
use obda_ndl::reference::evaluate_reference;
use obda_ndl::storage::Database;
use obda_owlql::abox::DataInstance;
use obda_owlql::vocab::Vocab;
use obda_owlql::{ClassId, PropId};
use obda_telemetry::Telemetry;
use proptest::prelude::*;

const NUM_CLASSES: u32 = 3;
const NUM_PROPS: u32 = 2;
const NUM_IDB: usize = 3;

fn vocab() -> Vocab {
    let mut v = Vocab::new();
    for i in 0..NUM_CLASSES {
        v.class(&format!("A{i}"));
    }
    for i in 0..NUM_PROPS {
        v.prop(&format!("P{i}"));
    }
    v
}

fn build_data(atoms: &[(u8, u8, u8)]) -> DataInstance {
    let mut d = DataInstance::new();
    let cs: Vec<_> = (0..4).map(|i| d.constant(&format!("c{i}"))).collect();
    for &(kind, s, t) in atoms {
        if kind % 2 == 0 {
            d.add_class_atom(ClassId((kind as u32 / 2) % NUM_CLASSES), cs[s as usize % 4]);
        } else {
            d.add_prop_atom(
                PropId((kind as u32 / 2) % NUM_PROPS),
                cs[s as usize % 4],
                cs[t as usize % 4],
            );
        }
    }
    d
}

/// One random clause: which IDB predicate it defines, its EDB atoms, an
/// optional single IDB body atom (kept strictly below the head so the
/// program is nonrecursive *and* linear by construction), the head
/// projection, and a shape selector: `0..2` keeps that join, `2` replaces
/// it by a renaming of an EDB property, `3` by a renaming of an earlier
/// IDB predicate, both with the identity or the swapped head.
type ClauseSpec = (u8, Vec<(u8, u8, u8)>, bool, u8, u8, u8, u8);

/// Random clause lists for [`build_program`].
fn clause_specs() -> impl Strategy<Value = Vec<ClauseSpec>> {
    prop::collection::vec(
        (
            0u8..3,
            prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 1..4),
            any::<bool>(),
            0u8..3,
            0u8..4,
            0u8..4,
            0u8..4,
        ),
        1..6,
    )
}

/// Random data atoms for [`build_data`].
fn data_atoms() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..4, 0u8..4), 0..10)
}

/// Builds a random linear program over `A0..A2`, `P0..P1` with IDB chain
/// `G0, G1, G2` (all binary, `G2` the goal). Every variable appearing in a
/// clause occurs in a predicate atom, so every clause is safe.
fn build_program(specs: &[ClauseSpec]) -> NdlQuery {
    let v = vocab();
    let mut p = Program::new();
    let classes: Vec<_> = (0..NUM_CLASSES).map(|i| p.edb_class(ClassId(i), &v)).collect();
    let props: Vec<_> = (0..NUM_PROPS).map(|i| p.edb_prop(PropId(i), &v)).collect();
    let idbs: Vec<_> = (0..NUM_IDB)
        .map(|i| {
            if i + 1 == NUM_IDB {
                p.add_idb_with_params(format!("G{i}"), 2, 2)
            } else {
                p.add_pred(format!("G{i}"), 2, PredKind::Idb)
            }
        })
        .collect();
    for (head, edb_atoms, use_idb, idb_pick, hv1, hv2, shape) in specs {
        let head_idx = *head as usize % NUM_IDB;
        if *shape >= 2 {
            // `H(x, y) ← Q(x, y)` or `H(y, x) ← Q(x, y)`.
            let source = match (*shape, head_idx) {
                (3, 1..) => idbs[*idb_pick as usize % head_idx],
                _ => props[*idb_pick as usize % props.len()],
            };
            let head_args =
                if hv1 % 2 == 0 { vec![CVar(0), CVar(1)] } else { vec![CVar(1), CVar(0)] };
            p.add_clause(Clause {
                head: idbs[head_idx],
                head_args,
                body: vec![BodyAtom::Pred(source, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
            continue;
        }
        let mut body = Vec::new();
        let mut used: Vec<u32> = Vec::new();
        let touch = |used: &mut Vec<u32>, v: u8| {
            let v = v as u32 % 4;
            if !used.contains(&v) {
                used.push(v);
            }
            CVar(v)
        };
        for &(kind, v1, v2) in edb_atoms {
            let atom = if kind % 5 < 3 {
                BodyAtom::Pred(classes[(kind % 3) as usize], vec![touch(&mut used, v1)])
            } else {
                BodyAtom::Pred(
                    props[(kind % 2) as usize],
                    vec![touch(&mut used, v1), touch(&mut used, v2)],
                )
            };
            body.push(atom);
        }
        // At most one IDB atom per clause, defined strictly earlier in the
        // chain: nonrecursive and linear by construction.
        if *use_idb && head_idx > 0 {
            let target = idbs[*idb_pick as usize % head_idx];
            body.push(BodyAtom::Pred(target, vec![touch(&mut used, *hv1), touch(&mut used, *hv2)]));
        }
        if body.is_empty() {
            continue;
        }
        // Heads project variables that occur in the body, keeping the
        // clause safe; remap the used variables to a contiguous range.
        used.sort_unstable();
        let remap: Vec<u32> = used.clone();
        let pos = |v: CVar| CVar(remap.iter().position(|&u| u == v.0).unwrap() as u32);
        for atom in &mut body {
            if let BodyAtom::Pred(_, args) = atom {
                for a in args.iter_mut() {
                    *a = pos(*a);
                }
            }
        }
        let h1 = CVar((*hv1 as usize % used.len()) as u32);
        let h2 = CVar((*hv2 as usize % used.len()) as u32);
        p.add_clause(Clause {
            head: idbs[head_idx],
            head_args: vec![h1, h2],
            body,
            num_vars: used.len() as u32,
        });
    }
    NdlQuery::new(p, idbs[NUM_IDB - 1])
}

/// One random clause of [`build_branching_program`]: its head index, its
/// EDB atoms, up to two IDB atoms (each a pick among the predicates below
/// the head and two argument variables), and the two head variables.
type BranchingSpec = (u8, Vec<(u8, u8, u8)>, Vec<(u8, u8, u8)>, u8, u8);

/// Random clause lists for [`build_branching_program`].
fn branching_specs() -> impl Strategy<Value = Vec<BranchingSpec>> {
    prop::collection::vec(
        (
            0u8..4,
            prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 0..3),
            prop::collection::vec((0u8..4, 0u8..4, 0u8..4), 0..3),
            0u8..4,
            0u8..4,
        ),
        1..8,
    )
}

/// Builds a random nonrecursive program over `A0..A2`, `P0..P1` with IDB
/// predicates `H0..H3` (all binary, `H3` the goal) whose clauses join up
/// to two lower IDB predicates, so a clause has several demands to order.
fn build_branching_program(specs: &[BranchingSpec]) -> NdlQuery {
    const HEADS: usize = 4;
    let v = vocab();
    let mut p = Program::new();
    let classes: Vec<_> = (0..NUM_CLASSES).map(|i| p.edb_class(ClassId(i), &v)).collect();
    let props: Vec<_> = (0..NUM_PROPS).map(|i| p.edb_prop(PropId(i), &v)).collect();
    let idbs: Vec<_> = (0..HEADS).map(|i| p.add_pred(format!("H{i}"), 2, PredKind::Idb)).collect();
    for (head, edb_atoms, idb_atoms, hv1, hv2) in specs {
        let head_idx = *head as usize % HEADS;
        let mut body = Vec::new();
        for &(kind, v1, v2) in edb_atoms {
            let (v1, v2) = (CVar(v1 as u32 % 4), CVar(v2 as u32 % 4));
            body.push(if kind % 5 < 3 {
                BodyAtom::Pred(classes[(kind % 3) as usize], vec![v1])
            } else {
                BodyAtom::Pred(props[(kind % 2) as usize], vec![v1, v2])
            });
        }
        if head_idx > 0 {
            for &(pick, v1, v2) in idb_atoms.iter().take(2) {
                let target = idbs[pick as usize % head_idx];
                body.push(BodyAtom::Pred(target, vec![CVar(v1 as u32 % 4), CVar(v2 as u32 % 4)]));
            }
        }
        // Remap the used variables to a contiguous range; the head takes
        // two of them, so the clause is safe.
        let mut used: Vec<u32> = body.iter().flat_map(|a| a.vars()).map(|v| v.0).collect();
        used.sort_unstable();
        used.dedup();
        if used.is_empty() {
            continue;
        }
        let pos = |v: CVar| CVar(used.iter().position(|&u| u == v.0).unwrap() as u32);
        for atom in &mut body {
            if let BodyAtom::Pred(_, args) = atom {
                for a in args.iter_mut() {
                    *a = pos(*a);
                }
            }
        }
        let head_args = vec![
            CVar((*hv1 as usize % used.len()) as u32),
            CVar((*hv2 as usize % used.len()) as u32),
        ];
        p.add_clause(Clause { head: idbs[head_idx], head_args, body, num_vars: used.len() as u32 });
    }
    NdlQuery::new(p, idbs[HEADS - 1])
}

/// Thread counts exercised by the differential tests: the
/// `OBDA_TEST_THREADS` environment variable (comma-separated, as set by the
/// CI matrix), or `1,2,4` by default.
fn test_threads() -> Vec<usize> {
    match std::env::var("OBDA_TEST_THREADS") {
        Ok(spec) => spec.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 4],
    }
}

/// A heavily skewed join column defeats the planner's uniformity
/// assumption — one hub key holds most of `P0`'s rows, so the per-key
/// estimate `rows/distinct` undershoots badly — yet the planned engine
/// still answers exactly like the syntactic order and the reference
/// engine, and the executed explain records the misestimation.
#[test]
fn skewed_columns_misestimate_but_stay_correct() {
    let v = vocab();
    let mut d = DataInstance::new();
    let hub = d.constant("hub");
    let t = d.constant("t");
    // P0 col 0: 10 distinct keys over 50 rows, 41 of them on `hub`.
    for i in 0..41 {
        let s = d.constant(&format!("s{i}"));
        d.add_prop_atom(PropId(0), hub, s);
    }
    for j in 0..9 {
        let k = d.constant(&format!("k{j}"));
        let u = d.constant(&format!("u{j}"));
        d.add_prop_atom(PropId(0), k, u);
    }
    // P1: a single row from the hub, so the plan scans P1 and probes P0
    // on its skewed first column.
    d.add_prop_atom(PropId(1), hub, t);

    let mut p = Program::new();
    let p0 = p.edb_prop(PropId(0), &v);
    let p1 = p.edb_prop(PropId(1), &v);
    let g = p.add_pred("G", 2, PredKind::Idb);
    p.add_clause(Clause {
        head: g,
        head_args: vec![CVar(1), CVar(2)],
        body: vec![
            BodyAtom::Pred(p0, vec![CVar(0), CVar(1)]),
            BodyAtom::Pred(p1, vec![CVar(0), CVar(2)]),
        ],
        num_vars: 3,
    });
    let q = NdlQuery::new(p, g);

    let db = Database::new(&d);
    let reference = evaluate_reference(&q, &d, &mut Budget::unlimited()).unwrap();
    assert_eq!(reference.answers.len(), 41, "all hub spokes join the single P1 row");
    for plan in [false, true] {
        let cfg = EngineConfig { threads: 2, plan, chunk_min_rows: 2, ..EngineConfig::default() };
        let res = evaluate_engine_on_traced(
            &q,
            &db,
            &mut Budget::unlimited(),
            &cfg,
            Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(res.answers, reference.answers, "plan={plan}");
    }

    let (expl, result) = explain_plan_executed(&q, &db, &mut Budget::unlimited()).unwrap();
    assert_eq!(result.answers, reference.answers);
    let clause = &expl.strata[0].clauses[0];
    assert_eq!(clause.order.len(), 2);
    // The probe into the skewed column: estimated ~5 rows per key
    // (50 rows / 10 distinct), actually 41.
    let est = clause.est_rows[1];
    let actual = clause.actual_rows[1];
    assert_eq!(actual, 41);
    assert!(
        (actual as f64) >= 5.0 * est,
        "skew must make the uniform estimate undershoot: est={est}, actual={actual}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// The engine computes exactly the reference engine's answers on
    /// random programs, at every thread count, with and without relevance
    /// pruning. Unpruned, it materialises exactly the reference engine's
    /// tuples per predicate; pruned, never more in total. Per-predicate
    /// statistics stay deterministic across thread counts.
    #[test]
    fn parallel_engine_agrees_with_sequential_and_reference(
        specs in clause_specs(),
        atoms in data_atoms(),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let reference = evaluate_reference(&q, &data, &mut Budget::unlimited()).unwrap();
        for prune in [false, true] {
            let mut stats_fingerprint = None;
            for threads in test_threads() {
                let cfg = EngineConfig { threads, prune, chunk_min_rows: 2, ..EngineConfig::default() };
                let mut budget = Budget::unlimited();
                let res = evaluate_engine_on_traced(
                    &q, &db, &mut budget, &cfg, Telemetry::disabled(),
                ).unwrap();
                prop_assert_eq!(
                    &res.answers, &reference.answers,
                    "threads={} prune={}", threads, prune
                );
                if !prune {
                    prop_assert_eq!(&res.stats.per_predicate, &reference.stats.per_predicate);
                    prop_assert_eq!(res.stats.generated_tuples, reference.stats.generated_tuples);
                } else {
                    prop_assert!(res.stats.generated_tuples <= reference.stats.generated_tuples);
                }
                let fp = (res.stats.generated_tuples, res.stats.per_predicate.clone());
                match &stats_fingerprint {
                    None => stats_fingerprint = Some(fp),
                    Some(prev) => prop_assert_eq!(
                        prev, &fp,
                        "stats must not depend on the thread count (prune={})", prune
                    ),
                }
            }
        }
    }

    /// Cost-based join planning is invisible in the results: on random
    /// programs the planned engine, the syntactic-order engine
    /// (`plan: false`) and the reference engine agree at every thread
    /// count, with identical generated-tuple accounting.
    #[test]
    fn planned_and_syntactic_engines_agree_with_reference(
        specs in clause_specs(),
        atoms in data_atoms(),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let reference = evaluate_reference(&q, &data, &mut Budget::unlimited()).unwrap();
        for threads in test_threads() {
            let mut fingerprints = Vec::new();
            for plan in [false, true] {
                let cfg = EngineConfig {
                    threads, plan, chunk_min_rows: 2, ..EngineConfig::default()
                };
                let mut budget = Budget::unlimited();
                let res = evaluate_engine_on_traced(
                    &q, &db, &mut budget, &cfg, Telemetry::disabled(),
                ).unwrap();
                prop_assert_eq!(
                    &res.answers, &reference.answers,
                    "threads={} plan={}", threads, plan
                );
                fingerprints.push((res.stats.generated_tuples, res.stats.per_predicate.clone()));
            }
            prop_assert_eq!(
                &fingerprints[0], &fingerprints[1],
                "join order must not change the generated tuples (threads={})", threads
            );
        }
    }

    /// Demand-driven evaluation only ever leaves work out: on programs
    /// whose clauses join several IDB predicates, the pruned engine derives
    /// no more tuples for any predicate than full materialisation does,
    /// its demands (and so its counts) do not depend on the join order,
    /// and every configuration answers like the reference engine.
    #[test]
    fn demanded_counts_never_exceed_full_materialisation(
        specs in branching_specs(),
        atoms in data_atoms(),
    ) {
        let q = build_branching_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let reference = evaluate_reference(&q, &data, &mut Budget::unlimited()).unwrap();
        for threads in test_threads() {
            let run = |prune: bool, plan: bool| {
                let cfg = EngineConfig { threads, prune, plan, chunk_min_rows: 2 };
                evaluate_engine_on_traced(
                    &q, &db, &mut Budget::unlimited(), &cfg, Telemetry::disabled(),
                ).unwrap()
            };
            let full = run(false, true);
            let planned = run(true, true);
            let syntactic = run(true, false);
            for (name, res) in [("full", &full), ("planned", &planned), ("syntactic", &syntactic)] {
                prop_assert_eq!(&res.answers, &reference.answers, "{} threads={}", name, threads);
            }
            prop_assert_eq!(&full.stats.per_predicate, &reference.stats.per_predicate);
            for (i, (&pruned, &all)) in
                planned.stats.per_predicate.iter().zip(&full.stats.per_predicate).enumerate()
            {
                prop_assert!(pruned <= all, "predicate {}: {} > {} (threads={})", i, pruned, all, threads);
            }
            prop_assert_eq!(
                &planned.stats.per_predicate, &syntactic.stats.per_predicate,
                "join order must not change what is demanded (threads={})", threads
            );
        }
    }

    /// The engine at its unpruned single-thread configuration over the
    /// shared `Database` computes exactly the answers of the seed hash-set
    /// engine (which re-scans the `DataInstance` per call) — the indexed
    /// storage preserves semantics.
    #[test]
    fn indexed_engine_agrees_with_reference(
        specs in clause_specs(),
        atoms in data_atoms(),
    ) {
        let q = build_program(&specs);
        let data = build_data(&atoms);
        let db = Database::new(&data);
        let indexed = evaluate(&q, &db).unwrap();
        let reference = evaluate_reference(&q, &data, &mut Budget::unlimited()).unwrap();
        prop_assert_eq!(&indexed.answers, &reference.answers);
        prop_assert_eq!(
            indexed.stats.num_answers,
            reference.stats.num_answers
        );
    }
}
