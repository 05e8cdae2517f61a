//! Tree witnesses (Section 3.4, after Kikot, Kontchakov & Zakharyaschev, KR 2012).
//!
//! For an OMQ `Q(x) = (T, q(x))`, a pair `t = (t_r, t_i)` of disjoint
//! variable sets with `t_i ≠ ∅`, `t_i ∩ x = ∅` is a *tree witness generated
//! by ̺* if, with `q_t` the atoms of `q` having a variable in `t_i`, there
//! is a homomorphism `h : q_t → C_{T,{A̺(a)}}` with `h⁻¹(a) = t_r`.
//! Intuitively, `q_t` is a minimal part of `q` that can fold into the
//! anonymous subtree hanging below the individual the `t_r`-variables map
//! to.
//!
//! Tree witnesses are enumerated by growing connected sets of existential
//! variables (`t_i`); for tree-shaped CQs with `ℓ` leaves there are
//! `O(|q|^ℓ)` of them.

use crate::omq::Omq;
use obda_budget::{Budget, BudgetExceeded};
use obda_chase::homomorphism::HomSearch;
use obda_chase::model::{word_bound, CanonicalModel, Element};
use obda_cq::gaifman::Gaifman;
use obda_cq::query::{Atom, Cq, Var};
use obda_owlql::util::{FxHashMap, FxHashSet};
use obda_owlql::vocab::Role;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A tree witness with its generating roles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeWitness {
    /// The root variables `t_r` (mapped to an individual).
    pub roots: BTreeSet<Var>,
    /// The interior variables `t_i` (mapped to labelled nulls).
    pub interior: BTreeSet<Var>,
    /// The atom indices of `q_t` in the host query's atom list.
    pub atoms: BTreeSet<usize>,
    /// The roles `̺` generating the witness.
    pub generators: Vec<Role>,
}

/// Enumerates the connected subsets of existential variables of `q`
/// (within the Gaifman graph), up to `cap` subsets.
pub(crate) fn connected_existential_subsets(q: &Cq, cap: usize) -> Vec<BTreeSet<Var>> {
    let g = Gaifman::new(q);
    let existential: FxHashSet<Var> = q.existential_vars().collect();
    let mut seen: FxHashSet<BTreeSet<Var>> = FxHashSet::default();
    let mut queue: Vec<BTreeSet<Var>> = Vec::new();
    for &v in &existential {
        let s = BTreeSet::from([v]);
        if seen.insert(s.clone()) {
            queue.push(s);
        }
    }
    let mut i = 0;
    while i < queue.len() && queue.len() < cap {
        let s = queue[i].clone();
        i += 1;
        // Grow by one adjacent existential variable.
        let frontier: Vec<Var> = s
            .iter()
            .flat_map(|&v| g.neighbours(v))
            .filter(|v| existential.contains(v) && !s.contains(v))
            .collect();
        for v in frontier {
            let mut s2 = s.clone();
            s2.insert(v);
            if seen.insert(s2.clone()) {
                queue.push(s2);
            }
        }
    }
    queue
}

/// How many shapes a [`TreeWitnessMemo`] stores at most. Past the cap,
/// new shapes are still searched, but not stored.
pub const TREE_WITNESS_MEMO_CAP: usize = 4096;

/// Everything a candidate's homomorphism searches read, up to a renaming
/// of variables: the generator models' word bound, the number of roots,
/// and the atoms of `q_t` in host order, with their variables numbered by
/// first occurrence, roots first. Every non-root variable of `q_t` is
/// interior, so two candidates with one shape have one search result
/// (DESIGN §16).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    bound: usize,
    roots: u32,
    atoms: Vec<Atom>,
}

impl Shape {
    /// The shape of the candidate with atoms `atoms` and roots `roots` of
    /// the host query `q`, searched with generator models of word bound
    /// `bound`.
    fn of(q: &Cq, atoms: &BTreeSet<usize>, roots: &BTreeSet<Var>, bound: usize) -> Shape {
        let mut numbered: Vec<Var> = Vec::with_capacity(roots.len() + atoms.len());
        let mut number = |v: Var| -> Var {
            let i = numbered.iter().position(|&n| n == v).unwrap_or_else(|| {
                numbered.push(v);
                numbered.len() - 1
            });
            Var(i as u32)
        };
        // The roots first, in order of first occurrence, so the numbering
        // does not depend on the host's variable ids.
        for v in atoms.iter().flat_map(|&i| q.atoms()[i].vars()).filter(|v| roots.contains(v)) {
            number(v);
        }
        let atoms = atoms
            .iter()
            .map(|&i| match q.atoms()[i] {
                Atom::Class(c, z) => Atom::Class(c, number(z)),
                Atom::Prop(p, z, z2) => {
                    let z = number(z);
                    Atom::Prop(p, z, number(z2))
                }
            })
            .collect();
        Shape { bound, roots: roots.len() as u32, atoms }
    }

    /// `q_t` as a standalone [`Cq`] whose answer variables are the roots
    /// (variables `0..roots`); the rest are the interior.
    fn qt(&self) -> Cq {
        let mut qt = Cq::new();
        let num_vars = self.atoms.iter().flat_map(|a| a.vars()).map(|v| v.0 + 1).max().unwrap_or(0);
        for i in 0..num_vars.max(self.roots) {
            let v = qt.var(&format!("v{i}"));
            if i < self.roots {
                qt.add_answer_var(v);
            }
        }
        for &atom in &self.atoms {
            match atom {
                Atom::Class(c, z) => qt.add_class_atom(c, z),
                Atom::Prop(p, z, z2) => qt.add_prop_atom(p, z, z2),
            }
        }
        qt
    }
}

/// The generators of tree-witness candidates, by `Shape`, for one
/// ontology. `ObdaSystem` owns one next to its taxonomy and hands it to
/// every rewriting through [`Omq::tree_witness_memo`], so a shape is
/// searched once per system, not once per query.
///
/// A memo must only ever serve OMQs over one ontology: the shape does not
/// name the ontology the searches ran against.
#[derive(Debug)]
pub struct TreeWitnessMemo {
    generators: Mutex<FxHashMap<Shape, Vec<Role>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

impl Default for TreeWitnessMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeWitnessMemo {
    /// An empty memo, capped at [`TREE_WITNESS_MEMO_CAP`] shapes.
    pub fn new() -> Self {
        TreeWitnessMemo {
            generators: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: TREE_WITNESS_MEMO_CAP,
        }
    }

    /// A memo with a smaller cap, so tests can fill it.
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> Self {
        TreeWitnessMemo { cap, ..Self::new() }
    }

    fn locked(&self) -> MutexGuard<'_, FxHashMap<Shape, Vec<Role>>> {
        self.generators.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The number of shapes stored.
    pub fn len(&self) -> usize {
        self.locked().len()
    }

    /// Whether no shape is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidates answered without a homomorphism search.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Candidates that ran their homomorphism searches.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn get(&self, shape: &Shape) -> Option<Vec<Role>> {
        self.locked().get(shape).cloned()
    }

    /// Stores the shapes one enumeration searched, up to the cap.
    fn store(&self, searched: FxHashMap<Shape, Vec<Role>>) {
        let mut generators = self.locked();
        for (shape, roles) in searched {
            if generators.len() >= self.cap {
                break;
            }
            generators.entry(shape).or_insert(roles);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Interior candidates visited on this thread: tests read it to count
    /// how often a rewriter enumerates tree witnesses.
    pub(crate) static CANDIDATES_VISITED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Generator models built and homomorphism searches run on this
    /// thread: tests read them to see what a memo hit skips.
    pub(crate) static MODELS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    pub(crate) static SEARCHES_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count(counter: &'static std::thread::LocalKey<std::cell::Cell<usize>>, n: usize) {
    counter.with(|c| c.set(c.get() + n));
}

/// Enumerates all tree witnesses of the OMQ (with a safety cap on interior
/// candidates; the cap is generous for bounded-leaf queries).
pub fn tree_witnesses(omq: &Omq<'_>, cap: usize) -> Vec<TreeWitness> {
    match tree_witnesses_budgeted(omq, cap, &mut Budget::unlimited()) {
        Ok(tws) => tws,
        Err(_) => unreachable!("an unlimited budget never trips"),
    }
}

/// One generator model per role, shared across all interior candidates
/// (the locality bound for the whole query covers every sub-CQ `q_t`).
fn generator_models(
    omq: &Omq<'_>,
    bound: usize,
    budget: &mut Budget,
) -> Result<Vec<(Role, CanonicalModel)>, BudgetExceeded> {
    #[cfg(test)]
    count(&MODELS_BUILT, omq.ontology.vocab().roles().count());
    omq.ontology
        .vocab()
        .roles()
        .map(|role| {
            CanonicalModel::for_generator_budgeted(omq.ontology, role, bound, budget)
                .map(|m| (role, m))
                .map_err(|e| e.exceeded)
        })
        .collect()
}

/// The roles whose generator model admits a homomorphism from the shape's
/// `q_t` sending the roots to the individual `a` and the interior to nulls.
fn search_generators(
    shape: &Shape,
    models: &[(Role, CanonicalModel)],
    budget: &mut Budget,
) -> Result<Vec<Role>, BudgetExceeded> {
    let qt = shape.qt();
    let roots = shape.roots;
    let mut generators = Vec::new();
    for &(role, ref model) in models {
        #[cfg(test)]
        count(&SEARCHES_RUN, 1);
        // `for_generator` seeds every model with the individual `a`.
        #[allow(clippy::expect_used)]
        let a = model.completed().get_constant("a").expect("generator model has the individual a");
        let fixed: Vec<(Var, Element)> = (0..roots).map(|v| (Var(v), Element::Const(a))).collect();
        // Interior variables must start below a·̺ — i.e. map to nulls
        // of the generator model (whose anonymous part is exactly the
        // subtree below a·̺ and its `W_T`-continuations).
        let null_vars = (roots..qt.num_vars() as u32).map(Var);
        let search = HomSearch::new(model, &qt).require_null(null_vars);
        if search.try_exists(&fixed, budget)? {
            generators.push(role);
        }
    }
    Ok(generators)
}

/// Budgeted [`tree_witnesses`]: the generator models' materialisation and
/// the folding homomorphism searches all draw on `budget`, so a cyclic
/// ontology whose anonymous subtrees are exponential trips the budget
/// instead of hanging the rewriter.
///
/// With a [`TreeWitnessMemo`] on the OMQ, a candidate whose shape the memo
/// (or an earlier candidate of this call) already knows skips its
/// searches, and the generator models are built only when a candidate
/// must search. The shapes this call searched are stored once it
/// completes: a budget trip or an injected fault stores nothing.
pub fn tree_witnesses_budgeted(
    omq: &Omq<'_>,
    cap: usize,
    budget: &mut Budget,
) -> Result<Vec<TreeWitness>, BudgetExceeded> {
    let q = omq.query;
    if q.existential_vars().next().is_none() {
        return Ok(Vec::new()); // no interior candidates, skip the models
    }
    let g = Gaifman::new(q);
    let bound = word_bound(&omq.ontology.taxonomy(), q.num_vars());
    let memo = omq.tree_witness_memo;
    let mut models: Option<Vec<(Role, CanonicalModel)>> = None;
    let mut searched: FxHashMap<Shape, Vec<Role>> = FxHashMap::default();
    let mut out = Vec::new();
    for interior in connected_existential_subsets(q, cap) {
        crate::fault::inject(crate::fault::site::REWRITE_TREE_WITNESS);
        #[cfg(test)]
        count(&CANDIDATES_VISITED, 1);
        budget.tick()?;
        // t_r: outside neighbours of the interior.
        let roots: BTreeSet<Var> = interior
            .iter()
            .flat_map(|&v| g.neighbours(v))
            .filter(|v| !interior.contains(v))
            .collect();
        // q_t: atoms with a variable in the interior.
        let atoms: BTreeSet<usize> = (0..q.num_atoms())
            .filter(|&i| q.atoms()[i].vars().any(|v| interior.contains(&v)))
            .collect();
        let shape = Shape::of(q, &atoms, &roots, bound);
        let known = memo.and_then(|m| searched.get(&shape).cloned().or_else(|| m.get(&shape)));
        let generators = match known {
            Some(generators) => {
                if let Some(m) = memo {
                    m.hits.fetch_add(1, Ordering::Relaxed);
                }
                generators
            }
            None => {
                if models.is_none() {
                    models = Some(generator_models(omq, bound, budget)?);
                }
                let Some(models) = &models else { unreachable!("built above") };
                let generators = search_generators(&shape, models, budget)?;
                if let Some(m) = memo {
                    m.misses.fetch_add(1, Ordering::Relaxed);
                    searched.insert(shape, generators.clone());
                }
                generators
            }
        };
        if !generators.is_empty() {
            out.push(TreeWitness { roots, interior, atoms, generators });
        }
    }
    if let Some(m) = memo {
        m.store(searched);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_cq::parse_cq;
    use obda_owlql::parse_ontology;

    #[test]
    fn example_11_tree_witnesses() {
        // Ontology of Example 11; for the query R(x0,x1), S(x1,x2), R(x2,x3)
        // with answer x0, x3 there is a tree witness t with
        // t_i = {x1}, t_r = {x0, x2} generated by P⁻ (x1 maps to a·P⁻), and
        // one with t_i = {x2}, t_r = {x1, x3} generated by P.
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tws = tree_witnesses(&omq, 1024);
        let x1 = q.get_var("x1").unwrap();
        let x2 = q.get_var("x2").unwrap();
        let p = obda_owlql::parser::resolve_role(o.vocab(), "P").unwrap();
        let t1 = tws
            .iter()
            .find(|t| t.interior == BTreeSet::from([x1]))
            .expect("tree witness with interior {x1}");
        assert!(t1.generators.contains(&p.inv()));
        assert_eq!(t1.roots, BTreeSet::from([q.get_var("x0").unwrap(), x2]));
        assert_eq!(t1.atoms.len(), 2); // R(x0,x1) and S(x1,x2)
        let t2 = tws
            .iter()
            .find(|t| t.interior == BTreeSet::from([x2]))
            .expect("tree witness with interior {x2}");
        assert!(t2.generators.contains(&p));
        // {x1, x2} cannot fold: the two-atom path S then R cannot sit in a
        // single anonymous subtree of this depth-1 ontology together with
        // both root edges.
        assert!(!tws.iter().any(|t| t.interior.len() == 2));
    }

    #[test]
    fn no_witness_without_existential_folding() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let q = parse_cq("q(x) :- R(x, y), A(y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        // No axiom generates an anonymous part, so no tree witness.
        assert!(tree_witnesses(&omq, 1024).is_empty());
    }

    #[test]
    fn deep_witness_with_unbounded_ontology() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists P\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y), P(y, z)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tws = tree_witnesses(&omq, 1024);
        // {y,z} folds below x via generator P; {z} folds below y via P.
        let y = q.get_var("y").unwrap();
        let z = q.get_var("z").unwrap();
        assert!(tws.iter().any(|t| t.interior == BTreeSet::from([y, z])));
        assert!(tws.iter().any(|t| t.interior == BTreeSet::from([z])));
        // {y} alone is not a witness: q_t = both atoms, and z would also
        // need to map into the tree while being… actually z is existential
        // too, but z ∉ t_i means z ∈ t_r maps to the root individual, and
        // P(y, z) cannot point back at the root.
        assert!(!tws.iter().any(|t| t.interior == BTreeSet::from([y])));
    }

    fn example_11() -> obda_owlql::Ontology {
        parse_ontology("P SubPropertyOf S\nP SubPropertyOf R-\n").unwrap()
    }

    fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        MODELS_BUILT.with(|c| c.set(0));
        SEARCHES_RUN.with(|c| c.set(0));
        let out = f();
        (out, MODELS_BUILT.with(|c| c.get()), SEARCHES_RUN.with(|c| c.get()))
    }

    /// An alpha-renamed query finds every candidate's shape in the memo:
    /// no generator model, no homomorphism search, the same witnesses.
    #[test]
    fn memo_hit_builds_no_model_and_runs_no_search() {
        let o = example_11();
        let q = parse_cq("q(x0, x5) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4), R(x4, x5)", &o)
            .unwrap();
        let renamed =
            parse_cq("q(a0, a5) :- S(a0, a1), R(a1, a2), R(a2, a3), S(a3, a4), R(a4, a5)", &o)
                .unwrap();
        let plain = tree_witnesses(&Omq::new(&o, &q), 1024);
        assert!(!plain.is_empty());
        let memo = TreeWitnessMemo::new();
        let (first, models, searches) =
            counted(|| tree_witnesses(&Omq::new(&o, &q).with_tree_witness_memo(&memo), 1024));
        assert_eq!(first, plain);
        assert!(models > 0 && searches > 0);
        let misses = memo.misses();
        let (second, models, searches) =
            counted(|| tree_witnesses(&Omq::new(&o, &renamed).with_tree_witness_memo(&memo), 1024));
        assert_eq!((models, searches), (0, 0));
        assert_eq!(second, plain, "same variable ids, same witnesses");
        assert_eq!(memo.misses(), misses);
        assert_eq!(
            memo.hits() as usize,
            connected_existential_subsets(&q, 1024).len() * 2 - misses as usize
        );
    }

    /// A budget trip at any point of the enumeration stores nothing, and
    /// the next call through the same memo still matches a memo-less one.
    #[test]
    fn budget_trip_leaves_no_entry_behind() {
        let o = example_11();
        let warm = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let q = parse_cq(
            "q(x0, x6) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4), R(x4, x5), S(x5, x6)",
            &o,
        )
        .unwrap();
        let plain = tree_witnesses(&Omq::new(&o, &q), 1024);
        let warmed = || {
            let memo = TreeWitnessMemo::new();
            tree_witnesses(&Omq::new(&o, &warm).with_tree_witness_memo(&memo), 1024);
            memo
        };
        let memo = warmed();
        let mut full = Budget::unlimited();
        tree_witnesses_budgeted(&Omq::new(&o, &q).with_tree_witness_memo(&memo), 1024, &mut full)
            .unwrap();
        let steps = full.spent_steps();
        for cap in (1..steps).step_by((steps / 40).max(1) as usize) {
            let memo = warmed();
            let entries = memo.len();
            let omq = Omq::new(&o, &q).with_tree_witness_memo(&memo);
            let mut budget = Budget::unlimited().max_steps(cap);
            assert!(tree_witnesses_budgeted(&omq, 1024, &mut budget).is_err(), "cap {cap}");
            assert_eq!(memo.len(), entries, "cap {cap}: a tripped call stored a shape");
            assert_eq!(tree_witnesses(&omq, 1024), plain, "cap {cap}");
        }
    }

    /// The memo stops growing at its cap; shapes past it are searched and
    /// the witnesses stay exact.
    #[test]
    fn memo_never_grows_past_its_cap() {
        let o = example_11();
        let memo = TreeWitnessMemo::with_cap(5);
        for word in ["RSR", "SRRS", "RRSRS", "SRRSSRSR", "RRSRSRSRRS", "SRRSSRSRSRRSRRS"] {
            let atoms: Vec<String> =
                word.chars().enumerate().map(|(i, c)| format!("{c}(x{i}, x{})", i + 1)).collect();
            let text = format!("q(x0, x{}) :- {}", word.len(), atoms.join(", "));
            let q = parse_cq(&text, &o).unwrap();
            let memoised = tree_witnesses(&Omq::new(&o, &q).with_tree_witness_memo(&memo), 1024);
            assert_eq!(memoised, tree_witnesses(&Omq::new(&o, &q), 1024), "{word}");
            assert!(memo.len() <= 5, "{word}: {} shapes", memo.len());
        }
        assert_eq!(memo.len(), 5);
    }
}
