//! Types (variable-to-word maps) and the `At` atom sets shared by the `Lin`
//! and `Log` rewritings (Sections 3.2–3.3).
//!
//! A *type* is a partial map `w` from query variables to `W_T`-words,
//! `w(z) = w` meaning `z` is mapped to an element `a·w` of the canonical
//! model and `w(z) = ε` that `z` is mapped to an individual.

use crate::omq::{tick_rewrite, RewriteError};
use obda_budget::Budget;
use obda_cq::query::{Atom, Cq, Var};
use obda_ndl::program::{BodyAtom, CVar, Program};
use obda_owlql::axiom::ClassExpr;
use obda_owlql::ontology::Ontology;
use obda_owlql::saturation::Taxonomy;
use obda_owlql::vocab::Role;
use obda_owlql::words::{WordArena, WordId};
use std::collections::BTreeMap;

/// A type: a partial map from query variables to words.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TypeMap {
    entries: BTreeMap<Var, WordId>,
}

impl TypeMap {
    /// The empty type ε.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Sets `z ↦ w`.
    pub fn set(&mut self, z: Var, w: WordId) {
        self.entries.insert(z, w);
    }

    /// Looks up `w(z)`.
    pub fn get(&self, z: Var) -> Option<WordId> {
        self.entries.get(&z).copied()
    }

    /// The domain of the type.
    pub fn domain(&self) -> impl Iterator<Item = Var> + '_ {
        self.entries.keys().copied()
    }

    /// Whether `z ∈ dom(w)`.
    pub fn contains(&self, z: Var) -> bool {
        self.entries.contains_key(&z)
    }

    /// The union `w ∪ s`; panics if the types disagree on a shared variable.
    pub fn union(&self, other: &TypeMap) -> TypeMap {
        let mut out = self.clone();
        for (&z, &w) in &other.entries {
            if let Some(existing) = out.get(z) {
                assert_eq!(existing, w, "types disagree on a shared variable");
            }
            out.set(z, w);
        }
        out
    }

    /// The restriction of the type to `vars`.
    pub fn restrict(&self, vars: &[Var]) -> TypeMap {
        let mut out = TypeMap::empty();
        for (&z, &w) in &self.entries {
            if vars.contains(&z) {
                out.set(z, w);
            }
        }
        out
    }

    /// Whether the types agree on their common domain.
    pub fn agrees_with(&self, other: &TypeMap) -> bool {
        self.entries.iter().all(|(&z, &w)| other.get(z).is_none_or(|w2| w2 == w))
    }

    /// Renders the type like `{x3 ↦ ε, x4 ↦ P-}` for debugging and
    /// predicate naming.
    pub fn display(&self, q: &Cq, arena: &WordArena, ontology: &Ontology) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(&z, &w)| format!("{}↦{}", q.var_name(z), arena.display(w, ontology.vocab())))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Shared context for type enumeration and compatibility checks.
pub struct TypeCtx<'a> {
    /// The ontology (normalised).
    pub ontology: &'a Ontology,
    /// Its saturation.
    pub taxonomy: &'a Taxonomy,
    /// The word arena materialised up to the ontology depth.
    pub arena: &'a WordArena,
    /// The CQ being rewritten.
    pub q: &'a Cq,
    /// [`TypeCtx::candidate_words`] per query variable, computed once.
    candidates: Vec<Vec<WordId>>,
}

impl<'a> TypeCtx<'a> {
    /// The context of one rewriting; computes every variable's candidate
    /// words up front.
    pub fn new(
        ontology: &'a Ontology,
        taxonomy: &'a Taxonomy,
        arena: &'a WordArena,
        q: &'a Cq,
    ) -> Self {
        let mut ctx = TypeCtx { ontology, taxonomy, arena, q, candidates: Vec::new() };
        ctx.candidates =
            q.vars().map(|z| arena.iter().filter(|&w| ctx.word_fits(z, w)).collect()).collect();
        ctx
    }

    /// The candidate words for variable `z`, ε first: ε always; a nonempty
    /// word `w` only if `z` is existentially quantified, every class atom
    /// `A(z) ∈ q` is implied by the last letter (`T ⊨ ∃y ̺(y,x) → A(x)`),
    /// and every self-loop `P(z,z) ∈ q` has `T ⊨ P(x,x)`.
    pub fn candidate_words(&self, z: Var) -> &[WordId] {
        &self.candidates[z.0 as usize]
    }

    /// The per-variable conditions behind [`TypeCtx::candidate_words`].
    fn word_fits(&self, z: Var, w: WordId) -> bool {
        let Some(last) = self.arena.last_letter(w) else { return true };
        !self.q.is_answer_var(z)
            && self.q.class_atoms_on(z).all(|a| {
                self.taxonomy.sub_class(ClassExpr::Exists(last.inv()), ClassExpr::Class(a))
            })
            && self.q.roles_between(z, z).all(|r| self.taxonomy.is_reflexive(r))
    }

    /// Conditions (i)–(iii) for a binary atom `̺(y, z) ∈ q` under words
    /// `w(y) = wy`, `w(z) = wz`:
    /// (i) both ε; (ii) equal words and `T ⊨ ̺(x,x)`; (iii) some `σ ⊑ ̺`
    /// with `wz = wy·σ`, or some `σ ⊑ ̺⁻` with `wy = wz·σ`.
    pub fn edge_compatible(&self, role: Role, wy: WordId, wz: WordId) -> bool {
        if wy.is_epsilon() && wz.is_epsilon() {
            return true;
        }
        if wy == wz && self.taxonomy.is_reflexive(role) {
            return true;
        }
        if self.arena.parent(wz) == Some(wy) {
            // A word with a parent is not ε, so it has a last letter.
            #[allow(clippy::expect_used)]
            let sigma = self.arena.last_letter(wz).expect("nonempty");
            if self.taxonomy.sub_role(sigma, role) {
                return true;
            }
        }
        if self.arena.parent(wy) == Some(wz) {
            // A word with a parent is not ε, so it has a last letter.
            #[allow(clippy::expect_used)]
            let sigma = self.arena.last_letter(wy).expect("nonempty");
            if self.taxonomy.sub_role(sigma, role.inv()) {
                return true;
            }
        }
        false
    }

    /// The binary atoms `P(y, z)`, `y ≠ z`, of `q` that the type `w ∪ s`
    /// of `vars ∪ vars2` constrains beyond what `w` (on `vars`) and `s`
    /// (on `vars2`) already satisfy: one end in each set.
    pub fn atoms_across(&self, vars: &[Var], vars2: &[Var]) -> Vec<(Role, Var, Var)> {
        let inside = |y: Var, z: Var, vs: &[Var]| vs.contains(&y) && vs.contains(&z);
        let both: Vec<Var> = vars.iter().chain(vars2).copied().collect();
        self.q
            .atoms()
            .iter()
            .filter_map(|&atom| match atom {
                Atom::Prop(p, y, z)
                    if y != z
                        && inside(y, z, &both)
                        && !inside(y, z, vars)
                        && !inside(y, z, vars2) =>
                {
                    Some((Role::direct(p), y, z))
                }
                _ => None,
            })
            .collect()
    }

    /// The types over `vars` (distinct variables) that are total on `vars`,
    /// compatible on `vars` and agree with `base` on shared variables, as a
    /// lazy depth-first search (see [`TypeSearch`]).
    pub fn types<'c>(&'c self, vars: &[Var], base: &TypeMap) -> TypeSearch<'c, 'a> {
        TypeSearch::new(self, vars, base)
    }

    /// The conjunction `At^t` over the atoms of `q` whose variables lie in
    /// `dom(t)` (Section 3.2):
    ///
    /// (a) `A(z)` for `t(z) = ε`, and `P(y,z)` when both sides are ε;
    /// (b) `y = z` for `P(y,z) ∈ q` with a non-ε side;
    /// (c) `A̺(z)` when `t(z)` starts with `̺`.
    ///
    /// `cvar` maps query variables to clause variables.
    pub fn type_atoms(
        &self,
        program: &mut Program,
        t: &TypeMap,
        cvar: &dyn Fn(Var) -> CVar,
    ) -> Vec<BodyAtom> {
        let vocab = self.ontology.vocab();
        let mut atoms = Vec::new();
        for &atom in self.q.atoms() {
            match atom {
                Atom::Class(a, z) => {
                    if t.get(z) == Some(WordId::EPSILON) {
                        let p = program.edb_class(a, vocab);
                        atoms.push(BodyAtom::Pred(p, vec![cvar(z)]));
                    }
                }
                Atom::Prop(p, y, z) => {
                    let (Some(wy), Some(wz)) = (t.get(y), t.get(z)) else { continue };
                    if wy.is_epsilon() && wz.is_epsilon() {
                        let pe = program.edb_prop(p, vocab);
                        atoms.push(BodyAtom::Pred(pe, vec![cvar(y), cvar(z)]));
                    } else if y != z {
                        atoms.push(BodyAtom::Eq(cvar(y), cvar(z)));
                    }
                }
            }
        }
        // (c): existence of the witness a·̺….
        for z in t.domain() {
            // `z` ranges over the mapping's own domain.
            #[allow(clippy::expect_used)]
            let w = t.get(z).expect("domain");
            if let Some(first) = self.arena.first_letter(w) {
                let a_rho = self.ontology.exists_class(first);
                let p = program.edb_class(a_rho, vocab);
                atoms.push(BodyAtom::Pred(p, vec![cvar(z)]));
            }
        }
        atoms
    }
}

/// A depth-first search for the types over a fixed variable order.
///
/// It assigns `vars[0], vars[1], …` in turn, trying each variable's
/// candidate words in [`TypeCtx::candidate_words`] order (or only the
/// `base` word), and checks every atom's conditions (i)–(iii) as soon as
/// both of its ends are assigned. The conditions are per atom, so a
/// partial type that fails one has no compatible extension and its subtree
/// is skipped. The surviving types come out in the lexicographic order of
/// the candidate product with `vars[0]` most significant: the order in
/// which building the whole product and filtering it would list them.
///
/// A variable with an atom to an earlier one, whose word is `w`, can only
/// take `w`, its parent or one of its children (conditions (i)–(iii)), so
/// the search tries just those of its candidates, in candidate order.
pub struct TypeSearch<'c, 'a> {
    ctx: &'c TypeCtx<'a>,
    vars: Vec<Var>,
    /// The `base` word per position, if any.
    fixed: Vec<Option<WordId>>,
    /// Per position `i`: the atoms `(̺, y, z)` whose later end is `vars[i]`,
    /// as positions into `vars`.
    checks: Vec<Vec<(Role, usize, usize)>>,
    /// Per position with an atom to an earlier one: the words next to that
    /// one's word that are candidates here, filled on entering the position.
    near: Vec<Option<Vec<WordId>>>,
    /// Per position: the index of the next candidate word to try.
    cursor: Vec<usize>,
    /// The words assigned to positions `0..depth`.
    words: Vec<WordId>,
    depth: usize,
    done: bool,
}

impl<'c, 'a> TypeSearch<'c, 'a> {
    fn new(ctx: &'c TypeCtx<'a>, vars: &[Var], base: &TypeMap) -> Self {
        debug_assert!(
            vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v)),
            "type variables are distinct"
        );
        let fixed: Vec<Option<WordId>> = vars.iter().map(|&z| base.get(z)).collect();
        // A `base` word that breaks a per-variable condition leaves nothing
        // to enumerate.
        let done = vars.iter().zip(&fixed).any(|(&z, w)| w.is_some_and(|w| !ctx.word_fits(z, w)));
        let pos = |v: Var| vars.iter().position(|&u| u == v);
        let mut checks = vec![Vec::new(); vars.len()];
        for &atom in ctx.q.atoms() {
            if let Atom::Prop(p, y, z) = atom {
                if let (Some(i), Some(j)) = (pos(y), pos(z)) {
                    if i != j {
                        checks[i.max(j)].push((Role::direct(p), i, j));
                    }
                }
            }
        }
        let near = (0..vars.len())
            .map(|d| (fixed[d].is_none() && !checks[d].is_empty()).then(Vec::new))
            .collect();
        TypeSearch {
            ctx,
            vars: vars.to_vec(),
            fixed,
            checks,
            near,
            cursor: vec![0; vars.len()],
            words: vec![WordId::EPSILON; vars.len()],
            depth: 0,
            done,
        }
    }

    /// Fills `near[d]` from the word of the earlier end of position `d`'s
    /// first atom: that word, its parent and its children, kept if they are
    /// candidates for `vars[d]`, in candidate (ascending id) order.
    fn fill_near(&mut self, d: usize) {
        let Some(near) = self.near[d].as_mut() else { return };
        let (_, i, j) = self.checks[d][0];
        let w = self.words[i.min(j)];
        let arena = self.ctx.arena;
        near.clear();
        near.push(w);
        near.extend(arena.parent(w));
        near.extend(arena.children(w).iter().map(|&(_, c)| c));
        let candidates = self.ctx.candidate_words(self.vars[d]);
        near.retain(|w| candidates.binary_search(w).is_ok());
        near.sort_unstable();
        near.dedup();
    }

    /// Returns to the previous position; the search is over when there is
    /// none.
    fn backtrack(&mut self) {
        match self.depth.checked_sub(1) {
            Some(up) => self.depth = up,
            None => self.done = true,
        }
    }

    /// The next compatible type, or `None` once the search is exhausted.
    /// Ticks `budget` once per word tried, so a search over a huge product
    /// trips a step cap or deadline with a typed error.
    pub fn next(
        &mut self,
        budget: &mut Budget,
        program: &Program,
    ) -> Result<Option<TypeMap>, RewriteError> {
        while !self.done {
            let d = self.depth;
            if d == self.vars.len() {
                let mut t = TypeMap::empty();
                for (&z, &w) in self.vars.iter().zip(&self.words) {
                    t.set(z, w);
                }
                self.backtrack();
                return Ok(Some(t));
            }
            let k = self.cursor[d];
            if k == 0 {
                self.fill_near(d);
            }
            let word = match (self.fixed[d], &self.near[d]) {
                (Some(w), _) => (k == 0).then_some(w),
                (None, Some(near)) => near.get(k).copied(),
                (None, None) => self.ctx.candidate_words(self.vars[d]).get(k).copied(),
            };
            let Some(w) = word else {
                self.cursor[d] = 0;
                self.backtrack();
                continue;
            };
            self.cursor[d] = k + 1;
            tick_rewrite(budget, program)?;
            self.words[d] = w;
            let words = &self.words;
            if self.checks[d]
                .iter()
                .all(|&(role, i, j)| self.ctx.edge_compatible(role, words[i], words[j]))
            {
                self.depth = d + 1;
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{random_ontology, random_tree_cq};
    use obda_budget::Resource;
    use obda_cq::parse_cq;
    use obda_owlql::parse_ontology;
    use obda_owlql::words::WordArena;
    use proptest::prelude::*;
    use std::time::Duration;

    /// Example 11's ontology and Example 8's query.
    fn fixture() -> (Ontology, Cq) {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
            &o,
        )
        .unwrap();
        (o, q)
    }

    /// Every type the search yields, under an unlimited budget.
    fn all_types(ctx: &TypeCtx<'_>, vars: &[Var], base: &TypeMap) -> Vec<TypeMap> {
        let (mut budget, program) = (Budget::unlimited(), Program::new());
        let mut search = ctx.types(vars, base);
        let mut out = Vec::new();
        while let Some(t) = search.next(&mut budget, &program).unwrap() {
            out.push(t);
        }
        out
    }

    /// Whether the type is compatible on `vars`: the per-variable
    /// conditions and (i)–(iii) for every `q`-atom inside `vars ∩ dom`.
    fn compatible_on(ctx: &TypeCtx<'_>, t: &TypeMap, vars: &[Var]) -> bool {
        let q = ctx.q;
        for &z in vars {
            let Some(w) = t.get(z) else { continue };
            if q.is_answer_var(z) && !w.is_epsilon() {
                return false;
            }
            if let Some(last) = ctx.arena.last_letter(w) {
                for a in q.class_atoms_on(z) {
                    if !ctx.taxonomy.sub_class(ClassExpr::Exists(last.inv()), ClassExpr::Class(a)) {
                        return false;
                    }
                }
                if !q.roles_between(z, z).all(|r| ctx.taxonomy.is_reflexive(r)) {
                    return false;
                }
            }
        }
        q.atoms().iter().all(|&atom| match atom {
            Atom::Prop(p, y, z) if y != z && vars.contains(&y) && vars.contains(&z) => {
                match (t.get(y), t.get(z)) {
                    (Some(wy), Some(wz)) => ctx.edge_compatible(Role::direct(p), wy, wz),
                    _ => true,
                }
            }
            _ => true,
        })
    }

    /// The enumeration the search replaced: the whole Cartesian product of
    /// candidate words, filtered at the end. Kept as the reference the
    /// search is checked against.
    fn enumerate_types_by_product(ctx: &TypeCtx<'_>, vars: &[Var], base: &TypeMap) -> Vec<TypeMap> {
        let mut out: Vec<TypeMap> = vec![TypeMap::empty()];
        for &z in vars {
            let candidates: Vec<WordId> = match base.get(z) {
                Some(w) => vec![w],
                None => ctx.candidate_words(z).to_vec(),
            };
            let mut next = Vec::new();
            for t in &out {
                for &w in &candidates {
                    let mut t2 = t.clone();
                    t2.set(z, w);
                    next.push(t2);
                }
            }
            out = next;
        }
        out.retain(|t| compatible_on(ctx, t, vars));
        out
    }

    #[test]
    fn example_11_compatible_types_for_bag() {
        // Bag {x3, x4}: the two contributing types of Example 11 are
        // s1 = {x3 ↦ ε, x4 ↦ ε} and s2 = {x3 ↦ ε, x4 ↦ P⁻}; additionally
        // {x3 ↦ P, x4 ↦ ε}, {x3 ↦ ε, x4 ↦ R} and {x3 ↦ R⁻, x4 ↦ ε} are
        // compatible but never derivable.
        let (o, q) = fixture();
        let tx = o.taxonomy();
        let arena = WordArena::new(&tx, 1);
        let ctx = TypeCtx::new(&o, &tx, &arena, &q);
        let x3 = q.get_var("x3").unwrap();
        let x4 = q.get_var("x4").unwrap();
        let types = all_types(&ctx, &[x3, x4], &TypeMap::empty());
        assert_eq!(types.len(), 5, "Example 11 lists exactly five compatible types");
        // s2 is among them: R(x3, x3·P⁻) holds by condition (iii), as
        // P⁻ ⊑ R.
        let p = obda_owlql::parser::resolve_role(o.vocab(), "P-").unwrap();
        let w_pinv = arena.word_of(&[p]).unwrap();
        assert!(types
            .iter()
            .any(|t| t.get(x3) == Some(WordId::EPSILON) && t.get(x4) == Some(w_pinv)));
        assert_eq!(types, enumerate_types_by_product(&ctx, &[x3, x4], &TypeMap::empty()));
    }

    #[test]
    fn answer_vars_forced_to_epsilon() {
        let (o, q) = fixture();
        let tx = o.taxonomy();
        let arena = WordArena::new(&tx, 1);
        let ctx = TypeCtx::new(&o, &tx, &arena, &q);
        let x0 = q.get_var("x0").unwrap();
        assert_eq!(ctx.candidate_words(x0), &[WordId::EPSILON]);
        let x1 = q.get_var("x1").unwrap();
        assert!(ctx.candidate_words(x1).len() > 1);
    }

    /// A search over a product far beyond any budget trips the step cap or
    /// the deadline part-way, with a typed error, instead of building the
    /// product first.
    #[test]
    fn search_trips_step_and_time_budgets_mid_enumeration() {
        // A star of 12 unconstrained leaves over a depth-3 ontology: every
        // leaf has the same dozens of candidate words, no leaf constrains
        // another, so the product is never filtered.
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists S\n\
             exists S- SubClassOf exists R\n\
             P SubPropertyOf T\nS SubPropertyOf T\nR SubPropertyOf T\n",
        )
        .unwrap();
        let body: Vec<String> = (0..12).map(|i| format!("T(c, l{i})")).collect();
        let q = parse_cq(&format!("q() :- {}", body.join(", ")), &o).unwrap();
        let tx = o.taxonomy();
        let arena = WordArena::new(&tx, 3);
        let ctx = TypeCtx::new(&o, &tx, &arena, &q);
        let leaves: Vec<Var> = (0..12).map(|i| q.get_var(&format!("l{i}")).unwrap()).collect();
        assert!(ctx.candidate_words(leaves[0]).len() > 3);
        let program = Program::new();

        let mut budget = Budget::unlimited().max_steps(10_000);
        let mut search = ctx.types(&leaves, &TypeMap::empty());
        let mut yielded = 0;
        let err = loop {
            match search.next(&mut budget, &program) {
                Ok(Some(_)) => yielded += 1,
                Ok(None) => panic!("the search ran to completion within 10 000 steps"),
                Err(e) => break e,
            }
        };
        assert!(yielded > 0, "types come out before the trip");
        match err {
            RewriteError::BudgetExceeded { exceeded, .. } => {
                assert_eq!(exceeded.resource, Resource::Steps);
            }
            other => panic!("expected a step-cap trip, got {other}"),
        }

        let mut budget = Budget::with_timeout(Duration::from_millis(20));
        let mut search = ctx.types(&leaves, &TypeMap::empty());
        let err = loop {
            match search.next(&mut budget, &program) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("the search ran to completion within 20 ms"),
                Err(e) => break e,
            }
        };
        match err {
            RewriteError::BudgetExceeded { exceeded, .. } => {
                assert_eq!(exceeded.resource, Resource::Time);
            }
            other => panic!("expected a deadline trip, got {other}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The search lists exactly the types the product-then-filter
        /// enumeration lists, in the same order, for any variable order
        /// and any `base` map (whose words need not be candidates).
        #[test]
        fn search_equals_product_then_filter(
            axioms in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 0..6),
            edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
            classes in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
            answers in 0u8..3,
            depth in 1usize..3,
            order in prop::collection::vec(any::<u8>(), 0..6),
            base in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        ) {
            let o = random_ontology(&axioms, false);
            let q = random_tree_cq(&edges, &classes, answers);
            let tx = o.taxonomy();
            let arena = WordArena::new(&tx, depth);
            let ctx = TypeCtx::new(&o, &tx, &arena, &q);
            let all: Vec<Var> = q.vars().collect();
            // A subset of the variables, in a random order.
            let mut vars: Vec<Var> = Vec::new();
            for &k in &order {
                let v = all[k as usize % all.len()];
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            let mut base_map = TypeMap::empty();
            for &(v, w) in &base {
                base_map.set(all[v as usize % all.len()], WordId(u32::from(w) % arena.len() as u32));
            }
            let searched = all_types(&ctx, &vars, &base_map);
            let reference = enumerate_types_by_product(&ctx, &vars, &base_map);
            prop_assert_eq!(searched, reference);
        }
    }

    #[test]
    fn union_and_restrict() {
        let mut a = TypeMap::empty();
        a.set(Var(0), WordId::EPSILON);
        let mut b = TypeMap::empty();
        b.set(Var(1), WordId(1));
        let u = a.union(&b);
        assert_eq!(u.domain().count(), 2);
        let r = u.restrict(&[Var(1)]);
        assert_eq!(r.get(Var(1)), Some(WordId(1)));
        assert!(!r.contains(Var(0)));
        assert!(a.agrees_with(&u));
    }

    #[test]
    fn type_atoms_of_example_11() {
        // For s2 = {x3 ↦ ε, x4 ↦ P⁻}: At = AP-(x4) ∧ (x3 = x4).
        let (o, q) = fixture();
        let tx = o.taxonomy();
        let arena = WordArena::new(&tx, 1);
        let ctx = TypeCtx::new(&o, &tx, &arena, &q);
        let x3 = q.get_var("x3").unwrap();
        let x4 = q.get_var("x4").unwrap();
        let p_inv = obda_owlql::parser::resolve_role(o.vocab(), "P-").unwrap();
        let mut t = TypeMap::empty();
        t.set(x3, WordId::EPSILON);
        t.set(x4, arena.word_of(&[p_inv]).unwrap());
        let mut program = Program::new();
        let atoms = ctx.type_atoms(&mut program, &t, &|v| CVar(v.0));
        // One equality (for R(x3,x4)) and one A_{P⁻} atom.
        let eqs = atoms.iter().filter(|a| matches!(a, BodyAtom::Eq(..))).count();
        let preds = atoms.iter().filter(|a| matches!(a, BodyAtom::Pred(..))).count();
        assert_eq!(eqs, 1);
        assert_eq!(preds, 1);
    }
}
