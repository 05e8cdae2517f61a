//! Nonrecursive datalog (NDL) programs.
//!
//! A datalog program is a finite set of Horn clauses
//! `γ₀ ← γ₁ ∧ … ∧ γₘ` where each `γᵢ` is an atom `Q(y)` or an equality
//! `(z = z′)`; head variables must occur in the body. The predicates in
//! heads are IDB, the rest EDB. A program is *nonrecursive* (NDL) when the
//! dependency digraph of its predicates is acyclic. An NDL *query* is a pair
//! `(Π, G(x))`.
//!
//! EDB predicates are bound to the OWL 2 QL data vocabulary (a class or a
//! property), plus the active-domain predicate `⊤`.

use obda_owlql::abox::ConstId;
use obda_owlql::vocab::{ClassId, PropId, Role, Vocab};
use std::fmt;

/// Identifier of a predicate within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// What a predicate denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredKind {
    /// EDB: a class `A` of the data vocabulary (arity 1).
    EdbClass(ClassId),
    /// EDB: a property `P` of the data vocabulary (arity 2).
    EdbProp(PropId),
    /// EDB: the active-domain predicate `⊤(x)` (arity 1).
    Top,
    /// IDB: defined by clauses of the program.
    Idb,
}

/// A clause-local variable (scoped to its clause).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CVar(pub u32);

/// A body atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyAtom {
    /// `Q(y₁, …, yₙ)` over an EDB or IDB predicate.
    Pred(PredId, Vec<CVar>),
    /// `(z = z′)`.
    Eq(CVar, CVar),
    /// `(z = a)` for a data constant `a`. The constant side is always
    /// bound, so evaluation can seed a clause from an all-equality body.
    EqConst(CVar, ConstId),
}

impl BodyAtom {
    /// The variables of the atom.
    pub fn vars(&self) -> Vec<CVar> {
        match self {
            BodyAtom::Pred(_, args) => args.clone(),
            BodyAtom::Eq(a, b) => vec![*a, *b],
            BodyAtom::EqConst(a, _) => vec![*a],
        }
    }
}

/// A Horn clause `head(args) ← body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Head predicate.
    pub head: PredId,
    /// Head argument variables.
    pub head_args: Vec<CVar>,
    /// Body atoms.
    pub body: Vec<BodyAtom>,
    /// Number of clause-local variables (`CVar(0)..CVar(num_vars)`).
    pub num_vars: u32,
}

impl Clause {
    /// Returns an error description if the clause is ill-formed (head
    /// variables must occur in a body predicate atom or be equated to one,
    /// and variable indices must be in range).
    fn validate(&self) -> Result<(), String> {
        let in_range = |v: CVar| -> bool { v.0 < self.num_vars };
        for &v in &self.head_args {
            if !in_range(v) {
                return Err(format!("head variable {} out of range", v.0));
            }
        }
        let mut body_vars = Vec::new();
        for atom in &self.body {
            for v in atom.vars() {
                if !in_range(v) {
                    return Err(format!("body variable {} out of range", v.0));
                }
                body_vars.push(v);
            }
        }
        for &v in &self.head_args {
            if !body_vars.contains(&v) {
                return Err(format!("head variable {} does not occur in the body", v.0));
            }
        }
        Ok(())
    }
}

/// Metadata for one predicate.
#[derive(Debug, Clone)]
pub struct PredInfo {
    /// Display name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// EDB binding or IDB.
    pub kind: PredKind,
    /// For *ordered* NDL queries: the number of trailing argument positions
    /// that are parameters (instantiated from the candidate answer).
    pub num_params: usize,
    /// Whether this is a completion predicate `S*` introduced by the
    /// `*`-transformation: its relation depends only on the ontology and
    /// the data, never on the query, so the engine may memoise it per
    /// [`crate::storage::Database`].
    pub completion: bool,
}

/// A datalog program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    preds: Vec<PredInfo>,
    clauses: Vec<Clause>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a predicate.
    pub fn add_pred(&mut self, name: impl Into<String>, arity: usize, kind: PredKind) -> PredId {
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredInfo {
            name: name.into(),
            arity,
            kind,
            num_params: 0,
            completion: false,
        });
        id
    }

    /// Declares an IDB predicate with trailing parameters.
    pub fn add_idb_with_params(
        &mut self,
        name: impl Into<String>,
        arity: usize,
        num_params: usize,
    ) -> PredId {
        let id = PredId(self.preds.len() as u32);
        assert!(num_params <= arity);
        self.preds.push(PredInfo {
            name: name.into(),
            arity,
            kind: PredKind::Idb,
            num_params,
            completion: false,
        });
        id
    }

    /// Marks an IDB predicate as a completion predicate (see
    /// [`PredInfo::completion`]).
    pub(crate) fn mark_completion(&mut self, id: PredId) {
        debug_assert!(self.is_idb(id), "only IDB predicates are completions");
        self.preds[id.0 as usize].completion = true;
    }

    /// Adds a clause.
    ///
    /// # Panics
    /// Panics if the clause is ill-formed, the head is an EDB predicate, or
    /// arities mismatch.
    pub fn add_clause(&mut self, clause: Clause) {
        // Panicking here is the documented contract (see above): programs
        // are built by our rewriters, not parsed from user input.
        #[allow(clippy::expect_used)]
        clause.validate().expect("well-formed clause");
        let head = &self.preds[clause.head.0 as usize];
        assert!(matches!(head.kind, PredKind::Idb), "clause head must be IDB");
        assert_eq!(head.arity, clause.head_args.len(), "head arity mismatch");
        for atom in &clause.body {
            if let BodyAtom::Pred(p, args) = atom {
                assert_eq!(
                    self.preds[p.0 as usize].arity,
                    args.len(),
                    "arity mismatch for {}",
                    self.preds[p.0 as usize].name
                );
            }
        }
        self.clauses.push(clause);
    }

    /// Predicate metadata.
    pub fn pred(&self, id: PredId) -> &PredInfo {
        &self.preds[id.0 as usize]
    }

    /// All predicate ids.
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// Number of predicates.
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The clauses with the given head predicate.
    pub fn clauses_for(&self, head: PredId) -> impl Iterator<Item = &Clause> {
        self.clauses.iter().filter(move |c| c.head == head)
    }

    /// Whether `id` is an IDB predicate.
    pub fn is_idb(&self, id: PredId) -> bool {
        matches!(self.preds[id.0 as usize].kind, PredKind::Idb)
    }

    /// Looks up an EDB predicate for a class, declaring it on first use.
    pub fn edb_class(&mut self, class: ClassId, vocab: &Vocab) -> PredId {
        if let Some(id) =
            self.pred_ids().find(|&id| self.preds[id.0 as usize].kind == PredKind::EdbClass(class))
        {
            return id;
        }
        self.add_pred(vocab.class_name(class), 1, PredKind::EdbClass(class))
    }

    /// Looks up an EDB predicate for a property, declaring it on first use.
    pub fn edb_prop(&mut self, prop: PropId, vocab: &Vocab) -> PredId {
        if let Some(id) =
            self.pred_ids().find(|&id| self.preds[id.0 as usize].kind == PredKind::EdbProp(prop))
        {
            return id;
        }
        self.add_pred(vocab.prop_name(prop), 2, PredKind::EdbProp(prop))
    }

    /// Looks up the active-domain predicate `⊤`, declaring it on first use.
    pub fn edb_top(&mut self) -> PredId {
        if let Some(id) =
            self.pred_ids().find(|&id| self.preds[id.0 as usize].kind == PredKind::Top)
        {
            return id;
        }
        self.add_pred("TOP", 1, PredKind::Top)
    }

    /// Adds a body atom `̺(u, v)` (i.e. `P(u,v)` or `P(v,u)`) for a role.
    pub fn role_atom(&mut self, role: Role, u: CVar, v: CVar, vocab: &Vocab) -> BodyAtom {
        let p = self.edb_prop(role.prop, vocab);
        if role.inverse {
            BodyAtom::Pred(p, vec![v, u])
        } else {
            BodyAtom::Pred(p, vec![u, v])
        }
    }

    /// Total number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Program size `|Π|`: total number of atoms (heads plus bodies).
    pub fn size(&self) -> usize {
        self.clauses.iter().map(|c| 1 + c.body.len()).sum()
    }
}

/// An NDL query `(Π, G(x))`.
#[derive(Debug, Clone)]
pub struct NdlQuery {
    /// The program.
    pub program: Program,
    /// The goal predicate `G`.
    pub goal: PredId,
}

impl NdlQuery {
    /// Creates a query, asserting the goal exists.
    pub fn new(program: Program, goal: PredId) -> Self {
        assert!((goal.0 as usize) < program.num_preds());
        NdlQuery { program, goal }
    }

    /// Goal arity (number of answer variables).
    pub fn arity(&self) -> usize {
        self.program.pred(self.goal).arity
    }
}

/// Pretty-printer: renders the program in datalog syntax.
pub struct ProgramDisplay<'a> {
    /// Program to print.
    pub program: &'a Program,
}

impl fmt::Display for ProgramDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let var = |v: CVar| format!("v{}", v.0);
        for c in self.program.clauses() {
            let head = &self.program.pred(c.head).name;
            let args: Vec<String> = c.head_args.iter().map(|&v| var(v)).collect();
            write!(f, "{}({}) :- ", head, args.join(", "))?;
            let body: Vec<String> = c
                .body
                .iter()
                .map(|atom| match atom {
                    BodyAtom::Pred(p, args) => {
                        let args: Vec<String> = args.iter().map(|&v| var(v)).collect();
                        format!("{}({})", self.program.pred(*p).name, args.join(", "))
                    }
                    BodyAtom::Eq(a, b) => format!("{} = {}", var(*a), var(*b)),
                    BodyAtom::EqConst(a, c) => format!("{} = #{}", var(*a), c.0),
                })
                .collect();
            writeln!(f, "{}", body.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vocab() -> Vocab {
        let mut v = Vocab::new();
        v.class("A");
        v.prop("R");
        v
    }

    #[test]
    fn builds_a_program() {
        let vocab = sample_vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), &vocab);
        let r = p.edb_prop(PropId(0), &vocab);
        let g = p.add_idb_with_params("G", 1, 1);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(a, vec![CVar(1)])],
            num_vars: 2,
        });
        assert_eq!(p.num_clauses(), 1);
        assert_eq!(p.size(), 3);
        assert!(p.is_idb(g));
        assert!(!p.is_idb(a));
        // EDB lookup is idempotent.
        let mut p2 = p.clone();
        assert_eq!(p2.edb_class(ClassId(0), &vocab), a);
        let q = NdlQuery::new(p, g);
        assert_eq!(q.arity(), 1);
    }

    #[test]
    fn role_atom_orientation() {
        let vocab = sample_vocab();
        let mut p = Program::new();
        let atom = p.role_atom(Role::inverse_of(PropId(0)), CVar(0), CVar(1), &vocab);
        assert_eq!(atom.vars(), vec![CVar(1), CVar(0)]);
    }

    #[test]
    #[should_panic(expected = "well-formed clause")]
    fn rejects_unsafe_head_variable() {
        let vocab = sample_vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), &vocab);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 2,
        });
    }

    #[test]
    fn display_renders_datalog() {
        let vocab = sample_vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), &vocab);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(0), CVar(0))],
            num_vars: 1,
        });
        let s = format!("{}", ProgramDisplay { program: &p });
        assert_eq!(s.trim(), "G(v0) :- A(v0), v0 = v0");
    }
}
