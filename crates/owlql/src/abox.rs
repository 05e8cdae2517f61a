//! Data instances (ABoxes): finite sets of unary and binary ground atoms.

use crate::axiom::ClassExpr;
use crate::ontology::Ontology;
use crate::saturation::Taxonomy;
use crate::util::{FxHashMap, FxHashSet};
use crate::vocab::{ClassId, Interner, PropId, Role};

/// Identifier of an individual constant in a [`DataInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub u32);

/// A data instance `A`: a finite set of ground atoms `A(a)` and `P(a,b)`.
#[derive(Debug, Clone, Default)]
pub struct DataInstance {
    consts: Interner,
    class_atoms: FxHashSet<(ClassId, ConstId)>,
    prop_atoms: FxHashSet<(PropId, ConstId, ConstId)>,
}

impl DataInstance {
    /// Creates an empty data instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an individual constant by name.
    pub fn constant(&mut self, name: &str) -> ConstId {
        ConstId(self.consts.intern(name))
    }

    /// Looks up a constant by name without interning.
    pub fn get_constant(&self, name: &str) -> Option<ConstId> {
        self.consts.get(name).map(ConstId)
    }

    /// The name of a constant.
    pub fn constant_name(&self, c: ConstId) -> &str {
        self.consts.name(c.0)
    }

    /// Iterates over all constant names in [`ConstId`] order (dictionary
    /// export: name `i` belongs to `ConstId(i)`).
    pub fn constant_names(&self) -> impl Iterator<Item = &str> {
        self.consts.names()
    }

    /// Rebuilds an instance from an exported dictionary (dictionary
    /// import): name `i` receives `ConstId(i)`, so identifiers embedded in
    /// a snapshot's relation segments stay valid. Atoms are added
    /// afterwards through [`DataInstance::add_class_atom`] and
    /// [`DataInstance::add_prop_atom`].
    pub fn from_dictionary<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DataInstance {
            consts: Interner::from_names(names),
            class_atoms: FxHashSet::default(),
            prop_atoms: FxHashSet::default(),
        }
    }

    /// Adds the atom `A(a)`.
    pub fn add_class_atom(&mut self, class: ClassId, a: ConstId) {
        self.class_atoms.insert((class, a));
    }

    /// Adds the atom `P(a, b)`.
    pub fn add_prop_atom(&mut self, prop: PropId, a: ConstId, b: ConstId) {
        self.prop_atoms.insert((prop, a, b));
    }

    /// Adds the atom `̺(a, b)` (which is `P(a,b)` or `P(b,a)`).
    pub fn add_role_atom(&mut self, role: Role, a: ConstId, b: ConstId) {
        if role.inverse {
            self.add_prop_atom(role.prop, b, a);
        } else {
            self.add_prop_atom(role.prop, a, b);
        }
    }

    /// Whether `A(a) ∈ A`.
    pub fn has_class_atom(&self, class: ClassId, a: ConstId) -> bool {
        self.class_atoms.contains(&(class, a))
    }

    /// Whether `P(a, b) ∈ A`.
    pub fn has_prop_atom(&self, prop: PropId, a: ConstId, b: ConstId) -> bool {
        self.prop_atoms.contains(&(prop, a, b))
    }

    /// Whether `̺(a, b) ∈ A` in the paper's sense: `P(a,b) ∈ A` and `̺ = P`,
    /// or `P(b,a) ∈ A` and `̺ = P⁻`.
    pub fn has_role_atom(&self, role: Role, a: ConstId, b: ConstId) -> bool {
        if role.inverse {
            self.has_prop_atom(role.prop, b, a)
        } else {
            self.has_prop_atom(role.prop, a, b)
        }
    }

    /// The individuals `ind(A)` (all interned constants).
    pub fn individuals(&self) -> impl Iterator<Item = ConstId> {
        self.consts.ids().map(ConstId)
    }

    /// Number of individuals.
    pub fn num_individuals(&self) -> usize {
        self.consts.len()
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.class_atoms.len() + self.prop_atoms.len()
    }

    /// Iterates over the class atoms.
    pub fn class_atoms(&self) -> impl Iterator<Item = (ClassId, ConstId)> + '_ {
        self.class_atoms.iter().copied()
    }

    /// Iterates over the property atoms.
    pub fn prop_atoms(&self) -> impl Iterator<Item = (PropId, ConstId, ConstId)> + '_ {
        self.prop_atoms.iter().copied()
    }

    /// The pairs `(a,b)` with `̺(a,b) ∈ A` for the given role.
    pub fn role_pairs(&self, role: Role) -> Vec<(ConstId, ConstId)> {
        self.prop_atoms
            .iter()
            .filter(|&&(p, _, _)| p == role.prop)
            .map(|&(_, a, b)| if role.inverse { (b, a) } else { (a, b) })
            .collect()
    }

    /// The individuals of each class, grouped: one scan over the class
    /// atoms instead of one scan per class. Classes without members are
    /// absent from the map.
    pub fn members_by_class(&self) -> FxHashMap<ClassId, Vec<ConstId>> {
        let mut out: FxHashMap<ClassId, Vec<ConstId>> = FxHashMap::default();
        for &(c, a) in &self.class_atoms {
            out.entry(c).or_default().push(a);
        }
        out
    }

    /// The `(a, b)` pairs of each property, grouped: one scan over the
    /// property atoms instead of one scan per property. Properties without
    /// edges are absent from the map.
    pub fn pairs_by_prop(&self) -> FxHashMap<PropId, Vec<(ConstId, ConstId)>> {
        let mut out: FxHashMap<PropId, Vec<(ConstId, ConstId)>> = FxHashMap::default();
        for &(p, a, b) in &self.prop_atoms {
            out.entry(p).or_default().push((a, b));
        }
        out
    }

    /// Completes the instance for an ontology: adds every atom `S(a)` with
    /// `T, A ⊨ S(a)` (Section 2's completeness notion).
    ///
    /// In OWL 2 QL, derived individual atoms come only from role inclusions,
    /// reflexivity, and class inclusions applied to directly satisfied
    /// left-hand sides; no fixpoint beyond one role pass and one class pass
    /// is needed because class atoms never derive role atoms between
    /// individuals.
    pub fn complete(&self, taxonomy: &Taxonomy) -> DataInstance {
        match self.complete_budgeted(taxonomy, &mut obda_budget::Budget::unlimited()) {
            Ok(out) => out,
            Err(_) => unreachable!("an unlimited budget never trips"),
        }
    }

    /// Like [`DataInstance::complete`], but ticks a shared [`obda_budget::Budget`]
    /// per derived atom so completion over large instances respects the
    /// pipeline deadline.
    pub fn complete_budgeted(
        &self,
        taxonomy: &Taxonomy,
        budget: &mut obda_budget::Budget,
    ) -> Result<DataInstance, obda_budget::BudgetExceeded> {
        let mut out = self.clone();
        // Role closure: ̺(a,b) and ̺ ⊑ σ give σ(a,b); reflexive σ gives
        // σ(a,a) for every individual.
        for (p, a, b) in self.prop_atoms.iter().copied().collect::<Vec<_>>() {
            for s in taxonomy.super_roles(Role::direct(p)) {
                budget.tick()?;
                out.add_role_atom(s, a, b);
            }
        }
        for i in 0..taxonomy.num_roles() {
            let r = Role::from_index(i);
            if taxonomy.is_reflexive(r) && !r.inverse {
                for a in self.individuals() {
                    budget.tick()?;
                    out.add_prop_atom(r.prop, a, a);
                }
            }
        }
        // Class closure: collect the basic types of each individual and
        // saturate upward; keep only named classes in the instance.
        let mut basic: FxHashMap<ConstId, Vec<ClassExpr>> = FxHashMap::default();
        for a in self.individuals() {
            basic.entry(a).or_default().push(ClassExpr::Top);
        }
        for &(c, a) in &out.class_atoms.clone() {
            basic.entry(a).or_default().push(ClassExpr::Class(c));
        }
        for &(p, a, b) in &out.prop_atoms.clone() {
            basic.entry(a).or_default().push(ClassExpr::Exists(Role::direct(p)));
            basic.entry(b).or_default().push(ClassExpr::Exists(Role::inverse_of(p)));
        }
        for (a, exprs) in basic {
            for e in exprs {
                for sup in taxonomy.super_classes(e) {
                    budget.tick()?;
                    if let ClassExpr::Class(c) = sup {
                        out.add_class_atom(c, a);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether the instance is complete for the taxonomy: completion adds no
    /// new atom.
    pub fn is_complete(&self, taxonomy: &Taxonomy) -> bool {
        let completed = self.complete(taxonomy);
        completed.num_atoms() == self.num_atoms()
    }

    /// Whether the knowledge base `(T, A)` is consistent.
    ///
    /// Checks (i) no individual satisfies two disjoint class expressions or
    /// an unsatisfiable one, (ii) no asserted edge satisfies two disjoint
    /// roles or an unsatisfiable one, (iii) no asserted edge is a
    /// self-loop of an irreflexive role, (iv) no individual requires a
    /// witness for an unsatisfiable role. Requires the taxonomy of the same
    /// ontology vocabulary.
    pub fn is_consistent(&self, taxonomy: &Taxonomy) -> bool {
        let completed = self.complete(taxonomy);
        // Collect each individual's class expressions after completion.
        let mut types: FxHashMap<ConstId, Vec<ClassExpr>> = FxHashMap::default();
        for (c, a) in completed.class_atoms() {
            types.entry(a).or_default().push(ClassExpr::Class(c));
        }
        for (p, a, b) in completed.prop_atoms() {
            types.entry(a).or_default().push(ClassExpr::Exists(Role::direct(p)));
            types.entry(b).or_default().push(ClassExpr::Exists(Role::inverse_of(p)));
        }
        for exprs in types.values() {
            for (i, &e1) in exprs.iter().enumerate() {
                if taxonomy.is_unsat_class(e1) {
                    return false;
                }
                if let ClassExpr::Exists(r) = e1 {
                    if taxonomy.is_unsat_role(r) {
                        return false;
                    }
                }
                for &e2 in &exprs[i + 1..] {
                    if taxonomy.disjoint_classes(e1, e2) {
                        return false;
                    }
                }
            }
        }
        for (p, a, b) in completed.prop_atoms() {
            let r = Role::direct(p);
            if a == b && taxonomy.is_irreflexive(r) {
                return false;
            }
            // Two roles both holding of (a,b): σ with ̺ ⊑ σ handled by
            // completion, so it suffices to compare asserted/derived edges.
            for (q, c, d) in completed.prop_atoms() {
                let s = Role::direct(q);
                if (c, d) == (a, b) && taxonomy.disjoint_roles(r, s) {
                    return false;
                }
                if (d, c) == (a, b) && taxonomy.disjoint_roles(r, s.inv()) {
                    return false;
                }
            }
        }
        true
    }

    /// Renders the instance in the textual syntax (one atom per line).
    pub fn to_text(&self, ontology: &Ontology) -> String {
        let v = ontology.vocab();
        let mut lines: Vec<String> = Vec::new();
        for (c, a) in self.class_atoms() {
            lines.push(format!("{}({})", v.class_name(c), self.constant_name(a)));
        }
        for (p, a, b) in self.prop_atoms() {
            lines.push(format!(
                "{}({}, {})",
                v.prop_name(p),
                self.constant_name(a),
                self.constant_name(b)
            ));
        }
        lines.sort();
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_data, parse_ontology};

    #[test]
    fn role_atoms_respect_inverse() {
        let mut a = DataInstance::new();
        let x = a.constant("x");
        let y = a.constant("y");
        a.add_prop_atom(PropId(0), x, y);
        assert!(a.has_role_atom(Role::direct(PropId(0)), x, y));
        assert!(a.has_role_atom(Role::inverse_of(PropId(0)), y, x));
        assert!(!a.has_role_atom(Role::direct(PropId(0)), y, x));
        assert_eq!(a.role_pairs(Role::inverse_of(PropId(0))), vec![(y, x)]);
    }

    #[test]
    fn dictionary_roundtrip_preserves_const_ids() {
        let mut a = DataInstance::new();
        let x = a.constant("x");
        let y = a.constant("y");
        a.add_class_atom(ClassId(0), x);
        a.add_prop_atom(PropId(1), x, y);
        let mut b = DataInstance::from_dictionary(a.constant_names());
        assert_eq!(b.num_individuals(), 2);
        assert_eq!(b.get_constant("x"), Some(x));
        assert_eq!(b.constant_name(y), "y");
        b.add_class_atom(ClassId(0), x);
        b.add_prop_atom(PropId(1), x, y);
        assert_eq!(b.num_atoms(), a.num_atoms());
        assert!(b.has_prop_atom(PropId(1), x, y));
    }

    #[test]
    fn grouped_indexes_cover_every_atom() {
        let o = parse_ontology("Class A\nClass B\nProperty P\nProperty Q\n").unwrap();
        let d = parse_data("P(x, y)\nP(x, z)\nQ(y, x)\nA(x)\nA(y)\n", &o).unwrap();
        let v = o.vocab();
        let (a, p, q) =
            (v.get_class("A").unwrap(), v.get_prop("P").unwrap(), v.get_prop("Q").unwrap());
        let (x, y) = (d.get_constant("x").unwrap(), d.get_constant("y").unwrap());

        let classes = d.members_by_class();
        let mut members = classes[&a].clone();
        members.sort();
        assert_eq!(members, vec![x, y]);
        assert!(!classes.contains_key(&v.get_class("B").unwrap()));

        let props = d.pairs_by_prop();
        assert_eq!(props[&p].len(), 2);
        assert_eq!(props[&q], vec![(y, x)]);
        assert_eq!(props.values().map(Vec::len).sum::<usize>() + classes[&a].len(), d.num_atoms());
    }

    #[test]
    fn completion_derives_classes_and_roles() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             exists S- SubClassOf B\n\
             A SubClassOf C\n",
        )
        .unwrap();
        let tx = o.taxonomy();
        let mut d = parse_data("P(x, y)\nA(x)\n", &o).unwrap();
        let x = d.get_constant("x").unwrap();
        let y = d.get_constant("y").unwrap();
        let done = d.complete(&tx);
        let v = o.vocab();
        let s = v.get_prop("S").unwrap();
        let b = v.get_class("B").unwrap();
        let c = v.get_class("C").unwrap();
        assert!(done.has_prop_atom(s, x, y));
        assert!(done.has_class_atom(b, y));
        assert!(done.has_class_atom(c, x));
        // Normalisation classes are derived too: exists:P(x), exists:P-(y).
        let p = Role::direct(v.get_prop("P").unwrap());
        assert!(done.has_class_atom(o.exists_class(p), x));
        assert!(done.has_class_atom(o.exists_class(p.inv()), y));
        assert!(done.is_complete(&tx));
        assert!(!d.is_complete(&tx));
        // Mutation check: original instance unchanged.
        d.add_class_atom(b, x);
        assert!(!done.has_class_atom(b, x));
    }

    #[test]
    fn reflexive_completion() {
        let o = parse_ontology("Reflexive P\nClass A\n").unwrap();
        let tx = o.taxonomy();
        let d = parse_data("A(x)\n", &o).unwrap();
        let done = d.complete(&tx);
        let x = done.get_constant("x").unwrap();
        let p = o.vocab().get_prop("P").unwrap();
        assert!(done.has_prop_atom(p, x, x));
    }

    #[test]
    fn consistency_detects_disjointness() {
        let o = parse_ontology(
            "A DisjointWith B\n\
             exists P SubClassOf B\n",
        )
        .unwrap();
        let tx = o.taxonomy();
        let ok = parse_data("A(x)\n", &o).unwrap();
        assert!(ok.is_consistent(&tx));
        let bad = parse_data("A(x)\nP(x, y)\n", &o).unwrap();
        assert!(!bad.is_consistent(&tx));
    }

    #[test]
    fn consistency_detects_irreflexive_loop() {
        let o = parse_ontology("Irreflexive P\n").unwrap();
        let tx = o.taxonomy();
        let bad = parse_data("P(x, x)\n", &o).unwrap();
        assert!(!bad.is_consistent(&tx));
        let ok = parse_data("P(x, y)\n", &o).unwrap();
        assert!(ok.is_consistent(&tx));
    }

    #[test]
    fn consistency_detects_unsat_witness() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf B\n\
             exists P- SubClassOf C\n\
             B DisjointWith C\n",
        )
        .unwrap();
        let tx = o.taxonomy();
        let bad = parse_data("A(x)\n", &o).unwrap();
        assert!(!bad.is_consistent(&tx));
    }
}
