//! The `Tw` rewriting (Section 3.4, Theorem 13): skinny-reducible
//! NDL-rewritings of OMQs from `OMQ(∞, 1, ℓ)` — arbitrary ontologies with
//! tree-shaped CQs with `ℓ` leaves — evaluable in LOGCFL.
//!
//! The CQ is split at a balanced vertex `z_q` (Lemma 14); a predicate `G_q`
//! per subquery `q(x) ∈ 𝒬` has one clause that keeps `z_q` on an individual
//! (recursing into the subqueries hanging off `z_q`'s neighbours) and one
//! clause per tree witness `t` with `z_q ∈ t_i` and generator `̺` that folds
//! `q_t` into the anonymous part below an `A̺`-individual.

use crate::omq::{charge_clause, tick_rewrite, Omq, RewriteError, Rewriter};
use crate::tree_witness::{tree_witnesses_budgeted, TreeWitness};
use obda_budget::Budget;
use obda_chase::answer::{certain_answers_budgeted, CertainAnswers};
use obda_cq::gaifman::Gaifman;
use obda_cq::query::{Atom, Var};
use obda_cq::split::centroid;
use obda_ndl::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, Program};
use obda_owlql::util::FxHashMap;
use std::collections::BTreeSet;

/// The `Tw` rewriter. Requires a connected tree-shaped CQ; the ontology may
/// have infinite depth.
#[derive(Debug, Clone, Copy)]
pub struct TwRewriter {
    /// Cap on the tree-witness interior candidates of the whole query: the
    /// host OMQ's tree witnesses are enumerated once and every subquery
    /// draws on that one enumeration.
    pub tree_witness_cap: usize,
}

impl Default for TwRewriter {
    fn default() -> Self {
        TwRewriter { tree_witness_cap: 1 << 16 }
    }
}

/// A subquery `q(x) ∈ 𝒬`: a set of atom indices of the host query plus its
/// answer variables.
type SubKey = (BTreeSet<usize>, BTreeSet<Var>);

struct Builder<'a> {
    omq: &'a Omq<'a>,
    /// The host OMQ's tree witnesses; a subquery's are the ones whose
    /// interior lies in its existential variables
    /// ([`Builder::subquery_witnesses`]).
    witnesses: &'a [TreeWitness],
    program: Program,
    memo: FxHashMap<SubKey, PredId>,
    counter: usize,
    budget: &'a mut Budget,
}

impl Rewriter for TwRewriter {
    fn name(&self) -> &'static str {
        "Tw"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        let q = omq.query;
        let g = Gaifman::new(q);
        if !g.is_connected() {
            return Err(RewriteError::NotConnected);
        }
        if !g.is_tree() {
            return Err(RewriteError::NotTreeShaped);
        }
        let witnesses = tree_witnesses_budgeted(omq, self.tree_witness_cap, budget)
            .map_err(|e| RewriteError::from_budget(e, 0, 0))?;
        let (mut builder, goal) = Builder::run(omq, &witnesses, budget)?;

        // Boolean queries additionally match entirely inside the anonymous
        // part: G_{q₀} ← A(z) whenever T, {A(a)} ⊨ q₀.
        if q.is_boolean() {
            let vocab = builder.omq.ontology.vocab().clone();
            for class in vocab.class_ids() {
                tick_rewrite(builder.budget, &builder.program)?;
                let mut data = obda_owlql::DataInstance::new();
                let a = data.constant("a");
                data.add_class_atom(class, a);
                let entailed = certain_answers_budgeted(omq.ontology, q, &data, builder.budget)
                    .map_err(|e| {
                        let clauses = builder.program.clauses().len();
                        let atoms = builder.program.clauses().iter().map(|c| c.body.len()).sum();
                        RewriteError::from_budget(e.exceeded, clauses, atoms)
                    })?;
                if entailed == CertainAnswers::Boolean(true) {
                    let p = builder.program.edb_class(class, &vocab);
                    charge_clause(builder.budget, &builder.program)?;
                    builder.program.add_clause(Clause {
                        head: goal,
                        head_args: vec![],
                        body: vec![BodyAtom::Pred(p, vec![CVar(0)])],
                        num_vars: 1,
                    });
                }
            }
        }
        Ok(NdlQuery::new(builder.program, goal))
    }
}

impl<'a> Builder<'a> {
    /// Generates `G_q` for the whole query (the goal) and, memoised, for
    /// every subquery it reaches.
    fn run(
        omq: &'a Omq<'a>,
        witnesses: &'a [TreeWitness],
        budget: &'a mut Budget,
    ) -> Result<(Self, PredId), RewriteError> {
        let q = omq.query;
        let mut builder = Builder {
            omq,
            witnesses,
            program: Program::new(),
            memo: FxHashMap::default(),
            counter: 0,
            budget,
        };
        let all_atoms: BTreeSet<usize> = (0..q.num_atoms()).collect();
        let answers: BTreeSet<Var> = q.answer_vars().iter().copied().collect();
        let goal = builder.generate(&(all_atoms, answers))?;
        Ok((builder, goal))
    }

    /// The sorted answer variables of a subquery, the head-argument order of
    /// its predicate.
    fn head_order(key: &SubKey) -> Vec<Var> {
        key.1.iter().copied().collect()
    }

    /// Generates (memoised) the predicate `G_q` for the subquery.
    fn generate(&mut self, key: &SubKey) -> Result<PredId, RewriteError> {
        if let Some(&p) = self.memo.get(key) {
            return Ok(p);
        }
        tick_rewrite(self.budget, &self.program)?;
        let name = format!("T{}", self.counter);
        self.counter += 1;
        let heads = Self::head_order(key);
        let pid = self.program.add_idb_with_params(name, heads.len(), heads.len());
        self.memo.insert(key.clone(), pid);

        let q = self.omq.query;
        let (atoms, answers) = key;
        let vars: BTreeSet<Var> = atoms.iter().flat_map(|&i| q.atoms()[i].vars()).collect();
        let existential: Vec<Var> = vars.iter().copied().filter(|v| !answers.contains(v)).collect();

        if existential.is_empty() {
            // Base case: G_q(x) ← q(x).
            self.emit_base_clause(pid, &heads, atoms)?;
            return Ok(pid);
        }

        // Choose the splitting vertex z_q (Lemma 14; prefer an existential
        // variable for two-variable subqueries).
        let zq = self.choose_zq(atoms, &vars, &existential);

        // Clause 1: z_q stays on an individual.
        self.emit_split_clause(pid, &heads, key, zq)?;

        // Clause 2: one clause per tree witness containing z_q, per
        // generator.
        let witnesses = self.witnesses;
        for tw in Self::subquery_witnesses(witnesses, &existential) {
            tick_rewrite(self.budget, &self.program)?;
            if !tw.interior.contains(&zq) || tw.roots.is_empty() {
                continue;
            }
            self.emit_tree_witness_clauses(pid, &heads, key, tw)?;
        }
        Ok(pid)
    }

    /// The tree witnesses of a subquery with the given existential
    /// variables: the host's witnesses whose interior lies among them.
    /// Exact because every subquery is closed under the atoms touching its
    /// existential variables, so roots, `q_t` and the folding test agree
    /// with enumerating the subquery on its own (DESIGN.md §16).
    fn subquery_witnesses<'w>(
        witnesses: &'w [TreeWitness],
        existential: &'w [Var],
    ) -> impl Iterator<Item = &'w TreeWitness> + 'w {
        witnesses.iter().filter(|tw| tw.interior.iter().all(|v| existential.contains(v)))
    }

    fn choose_zq(&self, atoms: &BTreeSet<usize>, vars: &BTreeSet<Var>, existential: &[Var]) -> Var {
        let q = self.omq.query;
        if vars.len() == 2 {
            return existential[0];
        }
        if vars.len() == 1 {
            // Guarded by the length check on the line above.
            #[allow(clippy::expect_used)]
            return *vars.iter().next().expect("nonempty");
        }
        // Centroid of the subquery's Gaifman tree. Build adjacency over the
        // subquery's variables (indices into a dense renumbering).
        let dense: Vec<Var> = vars.iter().copied().collect();
        let index: FxHashMap<Var, usize> = dense.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); dense.len()];
        for &i in atoms {
            if let Atom::Prop(_, u, v) = q.atoms()[i] {
                if u != v {
                    let (a, b) = (index[&u], index[&v]);
                    if !adj[a].contains(&b) {
                        adj[a].push(b);
                        adj[b].push(a);
                    }
                }
            }
        }
        let nodes: Vec<usize> = (0..dense.len()).collect();
        dense[centroid(&adj, &nodes)]
    }

    /// `G_q(x) ← q(x)` for subqueries without existential variables.
    fn emit_base_clause(
        &mut self,
        pid: PredId,
        heads: &[Var],
        atoms: &BTreeSet<usize>,
    ) -> Result<(), RewriteError> {
        let q = self.omq.query;
        let vocab = self.omq.ontology.vocab().clone();
        let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
        let mut next = 0u32;
        let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
            *cvars.entry(v).or_insert_with(|| {
                let c = CVar(*next);
                *next += 1;
                c
            })
        };
        for &v in heads {
            alloc(v, &mut cvars, &mut next);
        }
        let mut body = Vec::new();
        for &i in atoms {
            match q.atoms()[i] {
                Atom::Class(c, z) => {
                    let p = self.program.edb_class(c, &vocab);
                    let cz = alloc(z, &mut cvars, &mut next);
                    body.push(BodyAtom::Pred(p, vec![cz]));
                }
                Atom::Prop(p, z, z2) => {
                    let pe = self.program.edb_prop(p, &vocab);
                    let cz = alloc(z, &mut cvars, &mut next);
                    let cz2 = alloc(z2, &mut cvars, &mut next);
                    body.push(BodyAtom::Pred(pe, vec![cz, cz2]));
                }
            }
        }
        let head_args: Vec<CVar> = heads.iter().map(|&v| cvars[&v]).collect();
        charge_clause(self.budget, &self.program)?;
        self.program.add_clause(Clause { head: pid, head_args, body, num_vars: next });
        Ok(())
    }

    /// Clause 1: `G_q(x) ← S(z_q)-atoms ∧ ⋀ G_{qᵢ}(xᵢ)` over the subqueries
    /// hanging off `z_q`'s neighbours.
    fn emit_split_clause(
        &mut self,
        pid: PredId,
        heads: &[Var],
        key: &SubKey,
        zq: Var,
    ) -> Result<(), RewriteError> {
        let q = self.omq.query;
        let vocab = self.omq.ontology.vocab().clone();
        let (atoms, answers) = key;

        // Components of the subquery minus z_q.
        let vars: BTreeSet<Var> = atoms.iter().flat_map(|&i| q.atoms()[i].vars()).collect();
        let mut comp_of: FxHashMap<Var, usize> = FxHashMap::default();
        let mut comps: Vec<BTreeSet<Var>> = Vec::new();
        for &start in vars.iter().filter(|&&v| v != zq) {
            if comp_of.contains_key(&start) {
                continue;
            }
            let id = comps.len();
            let mut comp = BTreeSet::new();
            let mut stack = vec![start];
            comp_of.insert(start, id);
            while let Some(u) = stack.pop() {
                comp.insert(u);
                for &i in atoms.iter() {
                    if let Atom::Prop(_, a, b) = q.atoms()[i] {
                        for (x, y) in [(a, b), (b, a)] {
                            if x == u && y != zq && y != u && !comp_of.contains_key(&y) {
                                comp_of.insert(y, id);
                                stack.push(y);
                            }
                        }
                    }
                }
            }
            comps.push(comp);
        }

        // q_i per component: its atoms plus the edges between z_q and its
        // members; x_i = (x ∪ {z_q}) ∩ var(q_i).
        let mut child_keys: Vec<SubKey> = Vec::new();
        for comp in &comps {
            let sub_atoms: BTreeSet<usize> = atoms
                .iter()
                .copied()
                .filter(|&i| {
                    let avars: Vec<Var> = q.atoms()[i].vars().collect();
                    avars.iter().any(|v| comp.contains(v))
                        && avars.iter().all(|v| comp.contains(v) || *v == zq)
                })
                .collect();
            let mut sub_answers: BTreeSet<Var> = BTreeSet::new();
            let sub_vars: BTreeSet<Var> =
                sub_atoms.iter().flat_map(|&i| q.atoms()[i].vars()).collect();
            for &v in &sub_vars {
                if answers.contains(&v) || v == zq {
                    sub_answers.insert(v);
                }
            }
            child_keys.push((sub_atoms, sub_answers));
        }

        // Assemble the clause.
        let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
        let mut next = 0u32;
        let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
            *cvars.entry(v).or_insert_with(|| {
                let c = CVar(*next);
                *next += 1;
                c
            })
        };
        for &v in heads {
            alloc(v, &mut cvars, &mut next);
        }
        let czq = alloc(zq, &mut cvars, &mut next);
        let mut body = Vec::new();
        for &i in atoms.iter() {
            match q.atoms()[i] {
                Atom::Class(c, z) if z == zq => {
                    let p = self.program.edb_class(c, &vocab);
                    body.push(BodyAtom::Pred(p, vec![czq]));
                }
                Atom::Prop(p, a, b) if a == zq && b == zq => {
                    let pe = self.program.edb_prop(p, &vocab);
                    body.push(BodyAtom::Pred(pe, vec![czq, czq]));
                }
                _ => {}
            }
        }
        for child in &child_keys {
            let child_pid = self.generate(child)?;
            let args: Vec<CVar> =
                Self::head_order(child).iter().map(|&v| alloc(v, &mut cvars, &mut next)).collect();
            body.push(BodyAtom::Pred(child_pid, args));
        }
        // z_q might not occur in any atom or child (single-variable
        // subquery with no class atoms cannot happen, but keep a ⊤ guard).
        let bound: Vec<CVar> = body.iter().flat_map(|a| a.vars()).collect();
        let head_args: Vec<CVar> = heads.iter().map(|&v| cvars[&v]).collect();
        let top = self.program.edb_top();
        for &c in head_args.iter().chain([&czq]) {
            if !bound.contains(&c) {
                body.push(BodyAtom::Pred(top, vec![c]));
            }
        }
        charge_clause(self.budget, &self.program)?;
        self.program.add_clause(Clause { head: pid, head_args, body, num_vars: next });
        Ok(())
    }

    /// Clause 2: `G_q(x) ← A̺(z₀) ∧ (z = z₀ …) ∧ ⋀ G_{q^t_k}(x^t_k)`.
    fn emit_tree_witness_clauses(
        &mut self,
        pid: PredId,
        heads: &[Var],
        key: &SubKey,
        tw: &TreeWitness,
    ) -> Result<(), RewriteError> {
        let q = self.omq.query;
        let vocab = self.omq.ontology.vocab().clone();
        let (atoms, answers) = key;
        let rest: BTreeSet<usize> = atoms.difference(&tw.atoms).copied().collect();

        // Connected components of the remainder.
        let mut comp_keys: Vec<SubKey> = Vec::new();
        let mut assigned: BTreeSet<usize> = BTreeSet::new();
        for &seed in &rest {
            if assigned.contains(&seed) {
                continue;
            }
            // Grow a component by shared variables.
            let mut comp: BTreeSet<usize> = BTreeSet::from([seed]);
            let mut comp_vars: BTreeSet<Var> = q.atoms()[seed].vars().collect();
            loop {
                let mut grew = false;
                for &i in &rest {
                    if !comp.contains(&i) && q.atoms()[i].vars().any(|v| comp_vars.contains(&v)) {
                        comp.insert(i);
                        comp_vars.extend(q.atoms()[i].vars());
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            assigned.extend(comp.iter().copied());
            let sub_answers: BTreeSet<Var> = comp_vars
                .iter()
                .copied()
                .filter(|v| answers.contains(v) || tw.roots.contains(v))
                .collect();
            comp_keys.push((comp, sub_answers));
        }

        // Callers filter out root-less tree witnesses before this point.
        #[allow(clippy::expect_used)]
        let z0 = *tw.roots.iter().next().expect("t_r nonempty");
        for &rho in &tw.generators {
            tick_rewrite(self.budget, &self.program)?;
            let a_rho = self.omq.ontology.exists_class(rho);
            let mut cvars: FxHashMap<Var, CVar> = FxHashMap::default();
            let mut next = 0u32;
            let alloc = |v: Var, cvars: &mut FxHashMap<Var, CVar>, next: &mut u32| -> CVar {
                *cvars.entry(v).or_insert_with(|| {
                    let c = CVar(*next);
                    *next += 1;
                    c
                })
            };
            for &v in heads {
                alloc(v, &mut cvars, &mut next);
            }
            let cz0 = alloc(z0, &mut cvars, &mut next);
            let p = self.program.edb_class(a_rho, &vocab);
            let mut body = vec![BodyAtom::Pred(p, vec![cz0])];
            for &z in tw.roots.iter().filter(|&&z| z != z0) {
                let cz = alloc(z, &mut cvars, &mut next);
                body.push(BodyAtom::Eq(cz, cz0));
            }
            for child in &comp_keys {
                let child_pid = self.generate(child)?;
                let args: Vec<CVar> = Self::head_order(child)
                    .iter()
                    .map(|&v| alloc(v, &mut cvars, &mut next))
                    .collect();
                body.push(BodyAtom::Pred(child_pid, args));
            }
            let head_args: Vec<CVar> = heads.iter().map(|&v| cvars[&v]).collect();
            charge_clause(self.budget, &self.program)?;
            self.program.add_clause(Clause { head: pid, head_args, body, num_vars: next });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omq::rewrite_arbitrary;
    use crate::tree_witness::{connected_existential_subsets, tree_witnesses, CANDIDATES_VISITED};
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_cq::query::Cq;
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;
    use obda_owlql::axiom::{Axiom, ClassExpr};
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::vocab::{Role, Vocab};
    use obda_owlql::{ClassId, Ontology, PropId};
    use proptest::prelude::*;

    /// A subquery as a standalone [`Cq`]: the from-scratch enumeration the
    /// builder used to run per subquery, kept as the reference the shared
    /// enumeration is checked against. Returns the CQ, its variables' host
    /// variables, and its atoms' host atom indices.
    fn materialise_subquery(q: &Cq, key: &SubKey) -> (Cq, FxHashMap<Var, Var>, Vec<usize>) {
        let (atoms, answers) = key;
        let mut cq = Cq::new();
        let mut to_host: FxHashMap<Var, Var> = FxHashMap::default();
        let mut from_host: FxHashMap<Var, Var> = FxHashMap::default();
        let mut lookup = |cq: &mut Cq, v: Var| -> Var {
            *from_host.entry(v).or_insert_with(|| {
                let sv = cq.var(q.var_name(v));
                to_host.insert(sv, v);
                sv
            })
        };
        for &v in answers {
            let sv = lookup(&mut cq, v);
            cq.add_answer_var(sv);
        }
        for &i in atoms {
            match q.atoms()[i] {
                Atom::Class(c, z) => {
                    let sz = lookup(&mut cq, z);
                    cq.add_class_atom(c, sz);
                }
                Atom::Prop(p, z, z2) => {
                    let (sz, sz2) = (lookup(&mut cq, z), lookup(&mut cq, z2));
                    cq.add_prop_atom(p, sz, sz2);
                }
            }
        }
        (cq, to_host, atoms.iter().copied().collect())
    }

    const NC: u32 = 3;
    const NP: u32 = 2;

    /// A random ontology over `A0..A2`, `P0, P1`; `cyclic` adds
    /// `A0 ⊑ ∃P0` and `∃P0⁻ ⊑ ∃P0`, an infinite `P0`-chain whose
    /// witnesses have interiors as long as the query's `P0`-paths.
    fn random_ontology(specs: &[(u8, u8, u8, bool)], cyclic: bool) -> Ontology {
        let mut vocab = Vocab::new();
        for i in 0..NC {
            vocab.class(&format!("A{i}"));
        }
        for i in 0..NP {
            vocab.prop(&format!("P{i}"));
        }
        let role = |i: u8, inverse| Role { prop: PropId(u32::from(i) % NP), inverse };
        let class = |i: u8, inverse| {
            if i.is_multiple_of(2) {
                ClassExpr::Class(ClassId(u32::from(i / 2) % NC))
            } else {
                ClassExpr::Exists(role(i / 2, inverse))
            }
        };
        let mut axioms: Vec<Axiom> = specs
            .iter()
            .map(|&(kind, a, b, flip)| match kind % 3 {
                0 => Axiom::SubClass(class(a, flip), class(b, !flip)),
                1 => Axiom::SubRole(role(a, flip), role(b, !flip)),
                _ => Axiom::SubClass(class(a, flip), ClassExpr::Exists(role(b, !flip))),
            })
            .collect();
        if cyclic {
            axioms.push(Axiom::SubClass(class(0, false), ClassExpr::Exists(role(0, false))));
            axioms.push(Axiom::SubClass(
                ClassExpr::Exists(role(0, true)),
                ClassExpr::Exists(role(0, false)),
            ));
        }
        Ontology::new(vocab, axioms)
    }

    /// A random tree-shaped CQ: edge `i` joins variable `i + 1` to an
    /// earlier one (half the time the previous one, so paths are common);
    /// half the edges are `P0` pointing away from `v0`, the shape the
    /// `cyclic` ontology folds; class atoms sit on top; the first
    /// `answers` variables are answer variables (none: a Boolean query).
    fn random_tree_cq(edges: &[(u8, u8)], classes: &[(u8, u8)], answers: u8) -> Cq {
        let mut q = Cq::new();
        let n = edges.len() + 1;
        let vars: Vec<Var> = (0..n).map(|i| q.var(&format!("v{i}"))).collect();
        for (i, &(parent, kind)) in edges.iter().enumerate() {
            let parent = if parent < 128 { i } else { parent as usize % (i + 1) };
            let (child, parent) = (vars[i + 1], vars[parent]);
            match kind % 4 {
                0 | 1 => q.add_prop_atom(PropId(0), parent, child),
                2 => q.add_prop_atom(PropId(1), parent, child),
                _ => q.add_prop_atom(PropId(u32::from(kind / 4) % NP), child, parent),
            }
        }
        for &(var, c) in classes {
            q.add_class_atom(ClassId(u32::from(c) % NC), vars[var as usize % n]);
        }
        for &v in vars.iter().take(answers as usize % (n + 1)) {
            q.add_answer_var(v);
        }
        q
    }

    /// `(interior, roots, atoms, generators)`, sorted by interior.
    type Witnesses = Vec<(BTreeSet<Var>, BTreeSet<Var>, BTreeSet<usize>, Vec<Role>)>;

    fn sorted(mut tws: Witnesses) -> Witnesses {
        tws.sort();
        tws
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128 })]

        /// For every subquery the builder visits, the host witnesses whose
        /// interior lies in the subquery's existential variables are exactly
        /// the subquery's own tree witnesses.
        #[test]
        fn shared_enumeration_equals_per_subquery_enumeration(
            axioms in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..5),
            cyclic in any::<bool>(),
            edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..7),
            classes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
            answers in 0u8..4,
        ) {
            let o = random_ontology(&axioms, cyclic);
            let q = random_tree_cq(&edges, &classes, answers);
            let omq = Omq::new(&o, &q);
            let cap = TwRewriter::default().tree_witness_cap;
            let host = tree_witnesses(&omq, cap);
            let mut budget = Budget::unlimited();
            let (builder, _) = Builder::run(&omq, &host, &mut budget).unwrap();
            for key in builder.memo.keys() {
                let (atoms, answers) = key;
                let existential: Vec<Var> = atoms
                    .iter()
                    .flat_map(|&i| q.atoms()[i].vars())
                    .filter(|v| !answers.contains(v))
                    .collect();
                let shared = sorted(
                    Builder::subquery_witnesses(&host, &existential)
                        .map(|t| (t.interior.clone(), t.roots.clone(), t.atoms.clone(), t.generators.clone()))
                        .collect(),
                );
                let (sub, to_host, atom_map) = materialise_subquery(&q, key);
                let own = tree_witnesses(&Omq::new(&o, &sub), cap);
                let own = sorted(
                    own.into_iter()
                        .map(|t| (
                            t.interior.iter().map(|v| to_host[v]).collect(),
                            t.roots.iter().map(|v| to_host[v]).collect(),
                            t.atoms.iter().map(|&i| atom_map[i]).collect(),
                            t.generators,
                        ))
                        .collect(),
                );
                prop_assert_eq!(shared, own, "subquery {:?}", key);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96 })]

        /// A sequence of queries over one ontology sharing one memo finds
        /// exactly the tree witnesses each finds without a memo, whatever
        /// the ontology's depth, the queries' sizes (so word bounds) and
        /// whether they are Boolean.
        #[test]
        fn shared_memo_equals_memo_less_enumeration(
            axioms in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..5),
            cyclic in any::<bool>(),
            queries in prop::collection::vec(
                (
                    prop::collection::vec((any::<u8>(), any::<u8>()), 1..7),
                    prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
                    0u8..4,
                ),
                1..6,
            ),
        ) {
            let o = random_ontology(&axioms, cyclic);
            let memo = crate::tree_witness::TreeWitnessMemo::new();
            let cap = TwRewriter::default().tree_witness_cap;
            for (edges, classes, answers) in &queries {
                let q = random_tree_cq(edges, classes, *answers);
                let plain = tree_witnesses(&Omq::new(&o, &q), cap);
                let shared = tree_witnesses(&Omq::new(&o, &q).with_tree_witness_memo(&memo), cap);
                prop_assert_eq!(shared, plain);
            }
        }
    }

    /// `Tw` enumerates the host's tree witnesses once: one visit per
    /// connected existential subset of the whole query, not one
    /// enumeration per subquery.
    #[test]
    fn enumerates_the_host_tree_witnesses_once() {
        let o = example_11_ontology();
        for text in [
            "q(x0, x5) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4), R(x4, x5)",
            "q() :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4)",
        ] {
            let q = parse_cq(text, &o).unwrap();
            let omq = Omq::new(&o, &q);
            let rw = TwRewriter::default();
            let subsets = connected_existential_subsets(&q, rw.tree_witness_cap).len();
            CANDIDATES_VISITED.with(|c| c.set(0));
            let program = rw.rewrite_complete(&omq).unwrap();
            assert!(program.program.num_preds() > 4, "{text}: several subqueries");
            assert_eq!(CANDIDATES_VISITED.with(|c| c.get()), subsets, "{text}");
        }
    }

    fn example_11_ontology() -> obda_owlql::Ontology {
        parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap()
    }

    #[test]
    fn matches_oracle_on_example_8() {
        let o = example_11_ontology();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&TwRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\nR(e, f)\nS(f, g)\n", &o)
            .unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        assert!(!res.answers.is_empty());
    }

    #[test]
    fn unbounded_depth_ontology() {
        // Tw is the only rewriter that handles infinite-depth ontologies.
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists P\n\
             exists P- SubClassOf B\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y), P(y, z), B(z)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&TwRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("A(u)\nP(v, w)\nP(w, r)\nB(r)\nB(s)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
        // u matches via the infinite chain; v via data; w and r by folding
        // the tail into the anonymous part (∃P⁻ ⊑ ∃P and ∃P⁻ ⊑ B).
        assert_eq!(res.answers.len(), 4, "u, v, w, r");
    }

    #[test]
    fn boolean_query_fully_anonymous_match() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists S\n",
        )
        .unwrap();
        // Both variables existential: the match sits entirely below the
        // A-individual, so the Boolean top-clauses G ← A(z) matter.
        let q = parse_cq("q() :- P(x, y), S(y, z)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let tx = o.taxonomy();
        let rw = rewrite_arbitrary(&TwRewriter::default(), &omq, &tx).unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let res = evaluate(&rw, &Database::new(&d)).unwrap();
        assert_eq!(res.answers.len(), 1);
        let d2 = parse_data("S(a, b)\n", &o).unwrap();
        let res2 = evaluate(&rw, &Database::new(&d2)).unwrap();
        assert!(res2.answers.is_empty());
    }

    #[test]
    fn rejects_cyclic_query() {
        let o = example_11_ontology();
        let q = parse_cq("q() :- R(x, y), R(y, z), R(z, x)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        assert_eq!(
            TwRewriter::default().rewrite_complete(&omq).unwrap_err(),
            RewriteError::NotTreeShaped
        );
    }
}
