//! Structural analysis of NDL queries (Section 3.1 of the paper).
//!
//! * dependency digraph, nonrecursiveness, and the depth `d(Π, G)`;
//! * *linear* programs (at most one IDB body atom per clause);
//! * *skinny* programs (at most two body atoms per clause);
//! * ordered queries, parameters, and the width `w(Π, G)`;
//! * weight functions `ν` and the skinny depth
//!   `sd(Π, G) = 2·d(Π, G) + log ν(G) + log e_Π`.

use crate::program::{BodyAtom, NdlQuery, PredId, Program};
use obda_owlql::util::FxHashMap;

/// Structural facts about an NDL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Whether the dependency digraph is acyclic.
    pub nonrecursive: bool,
    /// Depth `d(Π, G)`: longest dependency path from the goal.
    pub depth: usize,
    /// Whether every clause has at most one IDB body atom.
    pub linear: bool,
    /// Whether every clause has at most two body atoms.
    pub skinny: bool,
    /// Width `w(Π, G)`: maximum number of non-parameter variables per clause.
    pub width: usize,
    /// Minimal weight of the goal, `ν(G)`.
    pub goal_weight: u64,
    /// Maximum number of EDB atoms in a clause, `e_Π` (at least 1).
    pub max_edb_atoms: usize,
    /// Skinny depth `sd(Π, G) = 2d + ⌈log₂ ν(G)⌉ + ⌈log₂ e_Π⌉`.
    pub skinny_depth: usize,
}

/// Computes the IDB dependency adjacency: `deps[q]` = predicates occurring
/// in bodies of clauses with head `q`.
pub fn dependencies(program: &Program) -> FxHashMap<PredId, Vec<PredId>> {
    let mut deps: FxHashMap<PredId, Vec<PredId>> = FxHashMap::default();
    for c in program.clauses() {
        let entry = deps.entry(c.head).or_default();
        for atom in &c.body {
            if let BodyAtom::Pred(p, _) = atom {
                if !entry.contains(p) {
                    entry.push(*p);
                }
            }
        }
    }
    deps
}

/// Topological order of the IDB predicates (dependencies first), or `None`
/// if the program is recursive. The depth-first search keeps its path on
/// an explicit stack, so a deep program never deepens the thread's own.
pub fn topological_order(program: &Program) -> Option<Vec<PredId>> {
    let deps = dependencies(program);
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; program.num_preds()];
    let mut order = Vec::new();
    // The search path: each predicate with the index of its next dependency.
    let mut path: Vec<(PredId, usize)> = Vec::new();
    for root in program.pred_ids() {
        if !program.is_idb(root) || marks[root.0 as usize] != Mark::White {
            continue;
        }
        marks[root.0 as usize] = Mark::Grey;
        path.push((root, 0));
        while let Some((p, next)) = path.last_mut() {
            let Some(&d) = deps.get(p).and_then(|ds| ds.get(*next)) else {
                marks[p.0 as usize] = Mark::Black;
                order.push(*p);
                path.pop();
                continue;
            };
            *next += 1;
            match marks[d.0 as usize] {
                Mark::Grey => return None,
                Mark::Black => {}
                Mark::White if program.is_idb(d) => {
                    marks[d.0 as usize] = Mark::Grey;
                    path.push((d, 0));
                }
                Mark::White => marks[d.0 as usize] = Mark::Black,
            }
        }
    }
    Some(order)
}

/// The depth `d(Π, G)`: the longest directed dependency path starting at the
/// goal. Returns `None` for recursive programs.
pub fn depth(query: &NdlQuery) -> Option<usize> {
    let order = topological_order(&query.program)?;
    let deps = dependencies(&query.program);
    let mut d: FxHashMap<PredId, usize> = FxHashMap::default();
    for p in query.program.pred_ids() {
        if !query.program.is_idb(p) {
            d.insert(p, 0);
        }
    }
    for &p in &order {
        let best = deps
            .get(&p)
            .map(|ds| ds.iter().map(|q| d.get(q).copied().unwrap_or(0) + 1).max().unwrap_or(0))
            .unwrap_or(0);
        d.insert(p, best);
    }
    Some(d.get(&query.goal).copied().unwrap_or(0))
}

/// The minimal weight function: `ν(E) = 0` for EDB predicates and
/// `ν(Q) = max(1, max over clauses of Σ ν(Pᵢ))` for IDB predicates,
/// computed bottom-up. Returns `None` for recursive programs.
pub fn weight_function(program: &Program) -> Option<FxHashMap<PredId, u64>> {
    let order = topological_order(program)?;
    let mut nu: FxHashMap<PredId, u64> = FxHashMap::default();
    for p in program.pred_ids() {
        if !program.is_idb(p) {
            nu.insert(p, 0);
        }
    }
    for &p in &order {
        let mut best = 1u64;
        for c in program.clauses_for(p) {
            let mut total = 0u64;
            for atom in &c.body {
                if let BodyAtom::Pred(q, _) = atom {
                    total = total.saturating_add(nu.get(q).copied().unwrap_or(0));
                }
            }
            best = best.max(total);
        }
        nu.insert(p, best);
    }
    Some(nu)
}

/// The width `w(Π, G)` of an ordered query: the maximum over clauses of the
/// number of distinct non-parameter variables. Parameter variables of a
/// clause are the ones in the trailing parameter positions of its head.
pub fn width(program: &Program) -> usize {
    let mut w = 0usize;
    for c in program.clauses() {
        let info = program.pred(c.head);
        let params: Vec<_> = c.head_args[info.arity - info.num_params..].to_vec();
        let mut vars: Vec<_> = c.body.iter().flat_map(|a| a.vars()).collect();
        vars.extend(c.head_args.iter().copied());
        vars.sort_unstable();
        vars.dedup();
        let non_params = vars.iter().filter(|v| !params.contains(v)).count();
        w = w.max(non_params);
    }
    w
}

/// Whether the program is linear: at most one IDB body atom per clause.
pub fn is_linear(program: &Program) -> bool {
    program.clauses().iter().all(|c| {
        c.body.iter().filter(|a| matches!(a, BodyAtom::Pred(p, _) if program.is_idb(*p))).count()
            <= 1
    })
}

/// Whether the program is skinny: at most two body atoms per clause.
pub fn is_skinny(program: &Program) -> bool {
    program.clauses().iter().all(|c| c.body.len() <= 2)
}

/// The maximum number of EDB atoms in a clause (`e_Π`, at least 1).
pub fn max_edb_atoms(program: &Program) -> usize {
    program
        .clauses()
        .iter()
        .map(|c| {
            c.body
                .iter()
                .filter(|a| matches!(a, BodyAtom::Pred(p, _) if !program.is_idb(*p)))
                .count()
        })
        .max()
        .unwrap_or(0)
        .max(1)
}

fn ceil_log2(x: u64) -> usize {
    (64 - x.max(1).leading_zeros() as usize) - usize::from(x.is_power_of_two())
}

/// Runs the full structural analysis.
pub fn analyze(query: &NdlQuery) -> Analysis {
    let program = &query.program;
    let nonrecursive = topological_order(program).is_some();
    let d = depth(query).unwrap_or(usize::MAX);
    let nu = weight_function(program);
    let goal_weight = nu.as_ref().and_then(|m| m.get(&query.goal).copied()).unwrap_or(u64::MAX);
    let e = max_edb_atoms(program);
    let skinny_depth = if nonrecursive {
        2 * d + ceil_log2(goal_weight) + ceil_log2(e as u64)
    } else {
        usize::MAX
    };
    Analysis {
        nonrecursive,
        depth: d,
        linear: is_linear(program),
        skinny: is_skinny(program),
        width: width(program),
        goal_weight,
        max_edb_atoms: e,
        skinny_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CVar, Clause, PredKind};
    use obda_owlql::vocab::{ClassId, PropId, Vocab};

    fn vocab() -> Vocab {
        let mut v = Vocab::new();
        v.class("A");
        v.prop("R");
        v
    }

    /// The running Example 1 of the paper:
    /// `G(x) ← R(x,y) ∧ Q(x)`, `Q(x) ← R(y,x)`; ordered with parameter x,
    /// width 1, linear.
    fn example_1() -> NdlQuery {
        let v = vocab();
        let mut p = Program::new();
        let r = p.edb_prop(PropId(0), &v);
        let q = p.add_idb_with_params("Q", 1, 1);
        let g = p.add_idb_with_params("G", 1, 1);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(q, vec![CVar(0)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: q,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(1), CVar(0)])],
            num_vars: 2,
        });
        NdlQuery::new(p, g)
    }

    #[test]
    fn example_1_analysis() {
        let q = example_1();
        let a = analyze(&q);
        assert!(a.nonrecursive);
        assert!(a.linear);
        assert!(a.skinny);
        assert_eq!(a.width, 1, "Example 1 has width 1");
        assert_eq!(a.depth, 2); // G → Q → R
        assert_eq!(a.goal_weight, 1); // linear programs have ν bounded by 1
    }

    #[test]
    fn recursion_detected() {
        let v = vocab();
        let mut p = Program::new();
        let r = p.edb_prop(PropId(0), &v);
        let q = p.add_pred("Q", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: q,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)]), BodyAtom::Pred(g, vec![CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(q, vec![CVar(0)])],
            num_vars: 1,
        });
        assert!(topological_order(&p).is_none());
        let a = analyze(&NdlQuery::new(p, g));
        assert!(!a.nonrecursive);
    }

    #[test]
    fn weight_of_branching_program() {
        // G ← Q ∧ Q (a diamond): ν(G) = 2·ν(Q).
        let v = vocab();
        let mut p = Program::new();
        let a = p.edb_class(ClassId(0), &v);
        let q = p.add_pred("Q", 1, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: q,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)])],
            num_vars: 1,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![BodyAtom::Pred(q, vec![CVar(0)]), BodyAtom::Pred(q, vec![CVar(0)])],
            num_vars: 1,
        });
        let nu = weight_function(&p).unwrap();
        assert_eq!(nu[&q], 1);
        assert_eq!(nu[&g], 2);
        assert!(!is_linear(&p));
        assert!(is_skinny(&p));
    }

    #[test]
    fn width_ignores_parameters() {
        let v = vocab();
        let mut p = Program::new();
        let r = p.edb_prop(PropId(0), &v);
        // G(y, x) with one trailing parameter x: width counts y and z only.
        let g = p.add_idb_with_params("G", 2, 1);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![
                BodyAtom::Pred(r, vec![CVar(0), CVar(2)]),
                BodyAtom::Pred(r, vec![CVar(2), CVar(1)]),
            ],
            num_vars: 3,
        });
        assert_eq!(width(&p), 2);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
    }
}
