//! Cost-based join planning for the NDL evaluators.
//!
//! The seed engines evaluated clause bodies in the greedy
//! `eval::join_order`: equalities as soon as a side is bound,
//! then the predicate atom with the most bound variables. That order is
//! blind to cardinalities — a probe into a 100k-row relation and a probe
//! into a 10-row relation look identical. This module replaces it with
//! plans costed from [`crate::stats::RelStats`]:
//!
//! * **Estimates.** Every access is scored by estimated result size and
//!   access-path cost under independence and uniformity assumptions: a
//!   probe of column `c` matches `rows / distinct[c]` rows per key, a
//!   constrained (bound or repeated) position multiplies selectivity
//!   `1/distinct`, equalities filter by fixed factors. IDB relations do
//!   not exist at planning time; their columns are taken as key-like up
//!   to the domain (`distinct = min(rows, |⊤|)`) and their cardinalities
//!   are propagated bottom-up in topological order (the estimated output
//!   size of a clause feeds the estimates of every clause consuming its
//!   head), so a plan is a pure function of `(query, database)` —
//!   deterministic, cacheable per database (see `Database::id`), and
//!   identical for `explain` and both engines.
//! * **Search.** Greedy: equalities are applied as soon as applicable,
//!   then the predicate atom minimising `step cost + estimated output`
//!   is appended. For bodies with ≤ 8 predicate atoms the greedy result
//!   is refined by an exact dynamic program over atom subsets
//!   (Selinger-style, 2^k states) and the cheaper plan wins.
//! * **Access paths.** Each predicate atom is pinned to a typed
//!   [`PlannedAccess`]: full scan, hash-index probe on the cheapest
//!   bound column (index build cost counted unless already built), or a
//!   binary-search merge on column 0 when the relation is sorted on it
//!   (snapshot segments are) — the merge needs no index at all.
//!
//! The planner only *orders* atoms and picks access paths; the batched
//! kernel in [`crate::eval`] re-verifies every position against every
//! candidate row, so a misestimated plan can be slow but never wrong —
//! the differential proptests (planned ≡ syntactic ≡ reference) hold
//! regardless of how skewed the data is.

use crate::analysis::topological_order;
use crate::eval::join_order;
use crate::program::{BodyAtom, CVar, Clause, NdlQuery, PredId, PredKind, Program};
use crate::storage::Database;
use obda_owlql::util::FxHashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Access path the kernel uses for one planned step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedAccess {
    /// An equality atom: filter or bind, no relation access.
    Filter,
    /// Full scan of the atom's relation (chunkable across workers when
    /// it is the first step).
    Scan,
    /// Probe of the lazy hash index on the given argument position.
    Probe {
        /// The argument position whose index is probed.
        column: usize,
    },
    /// Binary-search merge on column 0 of a relation sorted on it; no
    /// hash index is built.
    SortMerge,
}

/// The plan of one clause body: execution order, access path and
/// estimated intermediate cardinality per step.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Body atom indices in execution order.
    pub order: Vec<usize>,
    /// Access path per step, parallel to `order`.
    pub access: Vec<PlannedAccess>,
    /// Estimated binding-batch size *after* each step, parallel to
    /// `order`; empty for uncosted (syntactic) plans.
    pub est_rows: Vec<f64>,
    /// Estimated rows emitted to the head (before deduplication).
    pub est_out: f64,
    /// Total estimated access cost (internal units; comparable only
    /// between plans of the same clause).
    pub cost: f64,
    /// Whether the plan was costed from statistics (`false` = syntactic
    /// fallback replicating the seed engine's greedy order).
    pub costed: bool,
}

/// Plans for every clause of a query, indexed by clause position in
/// `program.clauses()`.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Per-clause plan, or the range-restriction error for unsafe
    /// clauses (surfaced only if the clause is actually evaluated).
    pub clauses: Vec<Result<JoinPlan, String>>,
    /// Estimated rows per predicate (exact for EDB, propagated bottom-up
    /// for IDB); zeros when uncosted.
    pub est_pred_rows: Vec<f64>,
    /// Whether the plans were costed from statistics.
    pub costed: bool,
}

impl QueryPlan {
    /// The plan's total estimated work in cost-model units (row accesses
    /// plus emitted rows, summed over every plannable clause) — the
    /// admission-control signal: callers calibrate observed latency per
    /// unit and refuse requests whose estimate cannot fit the remaining
    /// deadline. `None` when the plan fell back to the syntactic order
    /// (no statistics, or a recursive program), whose costs are not
    /// comparable across queries.
    pub fn total_cost(&self) -> Option<f64> {
        if !self.costed {
            return None;
        }
        let total: f64 = self
            .clauses
            .iter()
            .filter_map(|c| c.as_ref().ok())
            .map(|p| if p.costed { p.cost + p.est_out } else { 0.0 })
            .sum();
        total.is_finite().then_some(total)
    }
}

/// Total query plans built in this process (monotone; tests assert
/// caching with it).
static PLANS_BUILT: AtomicUsize = AtomicUsize::new(0);

/// Total query plans built in this process (monotone counter).
pub fn plans_built() -> usize {
    PLANS_BUILT.load(Ordering::Relaxed)
}

/// What the planner knows about one predicate's relation.
struct AtomInfo {
    rows: f64,
    distinct: Vec<f64>,
    sorted_col0: bool,
    indexed: Vec<bool>,
}

fn atom_info(program: &Program, db: &Database, est_pred_rows: &[f64], p: PredId) -> AtomInfo {
    let arity = program.pred(p).arity;
    match program.pred(p).kind {
        PredKind::Idb => {
            // Not materialised yet: use the bottom-up estimate and assume
            // every column is as key-like as the domain allows — a column
            // holds individuals, so it has at most `|⊤|` distinct values
            // and a key matches at least `rows / |⊤|` rows. Index builds on
            // IDB relations always cost — they cannot have been built
            // before the stratum materialises them.
            let rows = est_pred_rows[p.0 as usize].max(0.0);
            let domain = db.num_individuals() as f64;
            AtomInfo {
                rows,
                distinct: vec![rows.min(domain).max(1.0); arity],
                sorted_col0: false,
                indexed: vec![false; arity],
            }
        }
        kind => {
            let rel = db.relation(kind);
            let s = rel.stats();
            AtomInfo {
                rows: s.rows as f64,
                distinct: s.distinct.iter().map(|&d| d as f64).collect(),
                sorted_col0: s.sorted_col0,
                indexed: (0..arity).map(|c| rel.has_index(c)).collect(),
            }
        }
    }
}

/// Selectivity of an equality filter between two bound variables.
const EQ_FILTER_SEL: f64 = 0.25;
/// Selectivity of comparing a bound variable against a constant.
const EQ_CONST_SEL: f64 = 0.1;

/// Estimates one predicate step from batch size `n`: the cheapest access
/// path, its cost, and the estimated batch size afterwards.
fn estimate_pred_step(
    args: &[CVar],
    info: &AtomInfo,
    bound: &FxHashSet<CVar>,
    n: f64,
) -> (PlannedAccess, f64, f64) {
    let mut sel_all = 1.0;
    let mut bound_cols: Vec<usize> = Vec::new();
    for (k, &v) in args.iter().enumerate() {
        let is_bound = bound.contains(&v);
        if is_bound {
            bound_cols.push(k);
        }
        if is_bound || args[..k].contains(&v) {
            sel_all /= info.distinct.get(k).copied().unwrap_or(1.0).max(1.0);
        }
    }
    let out = n * info.rows * sel_all;
    let mut best = (PlannedAccess::Scan, n * info.rows.max(1.0));
    for &k in &bound_cols {
        let fetched = info.rows / info.distinct[k].max(1.0);
        let build = if info.indexed[k] { 0.0 } else { info.rows };
        let cost = n * (1.0 + fetched) + build;
        if cost < best.1 {
            best = (PlannedAccess::Probe { column: k }, cost);
        }
    }
    if info.sorted_col0 && bound_cols.contains(&0) {
        let fetched = info.rows / info.distinct[0].max(1.0);
        let cost = n * ((info.rows + 2.0).log2() + fetched);
        if cost < best.1 {
            best = (PlannedAccess::SortMerge, cost);
        }
    }
    (best.0, best.1, out)
}

/// Incremental planning state shared by the greedy and DP searches.
#[derive(Clone)]
struct PlanState {
    order: Vec<usize>,
    access: Vec<PlannedAccess>,
    est: Vec<f64>,
    bound: FxHashSet<CVar>,
    n: f64,
    cost: f64,
    pending_eqs: Vec<usize>,
}

impl PlanState {
    fn new(eqs: Vec<usize>) -> Self {
        PlanState {
            order: Vec::new(),
            access: Vec::new(),
            est: Vec::new(),
            bound: FxHashSet::default(),
            n: 1.0,
            cost: 0.0,
            pending_eqs: eqs,
        }
    }

    /// Applies every currently-applicable equality (a constant side is
    /// always applicable), eagerly: an equality never grows the batch,
    /// so taking it immediately is never worse.
    fn apply_ready_eqs(&mut self, clause: &Clause) {
        loop {
            let Some(pos) = self.pending_eqs.iter().position(|&i| match &clause.body[i] {
                BodyAtom::Eq(a, b) => self.bound.contains(a) || self.bound.contains(b),
                BodyAtom::EqConst(..) => true,
                BodyAtom::Pred(..) => false,
            }) else {
                return;
            };
            let i = self.pending_eqs.remove(pos);
            let out = match &clause.body[i] {
                BodyAtom::Eq(a, b) => {
                    if self.bound.contains(a) && self.bound.contains(b) {
                        self.n * EQ_FILTER_SEL
                    } else {
                        self.n
                    }
                }
                BodyAtom::EqConst(a, _) => {
                    if self.bound.contains(a) {
                        self.n * EQ_CONST_SEL
                    } else {
                        self.n
                    }
                }
                BodyAtom::Pred(..) => unreachable!("pending_eqs holds equality atoms only"),
            };
            self.cost += self.n;
            self.n = out;
            for v in clause.body[i].vars() {
                self.bound.insert(v);
            }
            self.order.push(i);
            self.access.push(PlannedAccess::Filter);
            self.est.push(out);
        }
    }

    fn apply_pred(
        &mut self,
        clause: &Clause,
        i: usize,
        access: PlannedAccess,
        cost: f64,
        out: f64,
    ) {
        self.cost += cost;
        self.n = out;
        for v in clause.body[i].vars() {
            self.bound.insert(v);
        }
        self.order.push(i);
        self.access.push(access);
        self.est.push(out);
    }

    fn finish(self, clause: &Clause) -> Result<JoinPlan, String> {
        if !self.pending_eqs.is_empty() {
            return Err("equality between variables that are never bound".into());
        }
        debug_assert_eq!(self.order.len(), clause.body.len());
        Ok(JoinPlan {
            order: self.order,
            access: self.access,
            est_rows: self.est,
            est_out: self.n,
            cost: self.cost,
            costed: true,
        })
    }
}

fn pred_args(clause: &Clause, i: usize) -> &[CVar] {
    match &clause.body[i] {
        BodyAtom::Pred(_, args) => args,
        _ => unreachable!("pred atom index"),
    }
}

/// Greedy costed plan: repeatedly take the predicate atom minimising
/// `step cost + estimated output`, interleaving ready equalities.
fn plan_greedy(
    clause: &Clause,
    preds: &[usize],
    infos: &[Option<AtomInfo>],
    eqs: Vec<usize>,
) -> Result<JoinPlan, String> {
    let mut st = PlanState::new(eqs);
    st.apply_ready_eqs(clause);
    let mut remaining: Vec<usize> = preds.to_vec();
    while !remaining.is_empty() {
        let mut best: Option<(usize, PlannedAccess, f64, f64, f64)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let info = infos[i].as_ref().unwrap_or_else(|| unreachable!("pred atoms have info"));
            let (access, cost, out) =
                estimate_pred_step(pred_args(clause, i), info, &st.bound, st.n);
            let score = cost + out;
            if best.is_none_or(|(_, _, _, _, s)| score < s) {
                best = Some((pos, access, cost, out, score));
            }
        }
        let (pos, access, cost, out, _) =
            best.unwrap_or_else(|| unreachable!("non-empty remaining"));
        let i = remaining.remove(pos);
        st.apply_pred(clause, i, access, cost, out);
        st.apply_ready_eqs(clause);
    }
    st.finish(clause)
}

/// Exact subset DP over the predicate atoms (Selinger-style): state =
/// set of joined atoms, value = cheapest `PlanState` reaching it.
/// Equalities are folded in eagerly after every transition, exactly as
/// in the greedy search, so any DP order is executable by the kernel.
fn plan_dp(
    clause: &Clause,
    preds: &[usize],
    infos: &[Option<AtomInfo>],
    eqs: Vec<usize>,
) -> Result<JoinPlan, String> {
    let k = preds.len();
    let full = (1usize << k) - 1;
    let mut dp: Vec<Option<PlanState>> = vec![None; full + 1];
    let mut init = PlanState::new(eqs);
    init.apply_ready_eqs(clause);
    dp[0] = Some(init);
    for mask in 0..=full {
        let Some(state) = dp[mask].clone() else { continue };
        for (j, &i) in preds.iter().enumerate() {
            if mask & (1 << j) != 0 {
                continue;
            }
            let info = infos[i].as_ref().unwrap_or_else(|| unreachable!("pred atoms have info"));
            let (access, cost, out) =
                estimate_pred_step(pred_args(clause, i), info, &state.bound, state.n);
            let mut next = state.clone();
            next.apply_pred(clause, i, access, cost, out);
            next.apply_ready_eqs(clause);
            let slot = &mut dp[mask | (1 << j)];
            if slot.as_ref().is_none_or(|s| next.cost < s.cost) {
                *slot = Some(next);
            }
        }
    }
    match dp[full].take() {
        Some(st) => st.finish(clause),
        None => Err("equality between variables that are never bound".into()),
    }
}

/// Bodies up to this many predicate atoms get the exact DP refinement.
const DP_MAX_PREDS: usize = 8;

fn plan_clause_costed(
    program: &Program,
    db: &Database,
    est_pred_rows: &[f64],
    clause: &Clause,
) -> Result<JoinPlan, String> {
    let mut preds = Vec::new();
    let mut eqs = Vec::new();
    let mut infos: Vec<Option<AtomInfo>> = Vec::with_capacity(clause.body.len());
    for (i, atom) in clause.body.iter().enumerate() {
        match atom {
            BodyAtom::Pred(p, _) => {
                preds.push(i);
                infos.push(Some(atom_info(program, db, est_pred_rows, *p)));
            }
            _ => {
                eqs.push(i);
                infos.push(None);
            }
        }
    }
    let greedy = plan_greedy(clause, &preds, &infos, eqs.clone());
    if preds.len() < 2 || preds.len() > DP_MAX_PREDS {
        return greedy;
    }
    let dp = plan_dp(clause, &preds, &infos, eqs);
    match (greedy, dp) {
        (Ok(g), Ok(d)) => Ok(if d.cost + d.est_out < g.cost + g.est_out { d } else { g }),
        (Ok(g), Err(_)) => Ok(g),
        (Err(_), Ok(d)) => Ok(d),
        (Err(e), Err(_)) => Err(e),
    }
}

/// The uncosted plan replicating the seed engines exactly: greedy
/// `join_order`, probe on the first bound column, scan otherwise.
pub fn syntactic_plan(clause: &Clause) -> Result<JoinPlan, String> {
    let order = join_order(clause)?;
    let mut bound: FxHashSet<CVar> = FxHashSet::default();
    let mut access = Vec::with_capacity(order.len());
    for &i in &order {
        match &clause.body[i] {
            BodyAtom::Pred(_, args) => {
                let col = (0..args.len()).find(|&k| bound.contains(&args[k]));
                access.push(match col {
                    Some(column) => PlannedAccess::Probe { column },
                    None => PlannedAccess::Scan,
                });
            }
            BodyAtom::Eq(..) | BodyAtom::EqConst(..) => access.push(PlannedAccess::Filter),
        }
        for v in clause.body[i].vars() {
            bound.insert(v);
        }
    }
    Ok(JoinPlan { order, access, est_rows: Vec::new(), est_out: 0.0, cost: 0.0, costed: false })
}

/// Cost-based plans for every clause, statistics drawn from `db`.
/// A pure function of `(query, db)`: callers may cache the result per
/// database (see `Database::id`) and share it across executions.
pub fn plan_query(query: &NdlQuery, db: &Database) -> QueryPlan {
    PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
    let program = &query.program;
    let nclauses = program.clauses().len();
    let mut est_pred_rows = vec![0.0f64; program.num_preds()];
    for p in program.pred_ids() {
        match program.pred(p).kind {
            PredKind::Idb => {}
            kind => est_pred_rows[p.0 as usize] = db.relation(kind).len() as f64,
        }
    }
    let Some(topo) = topological_order(program) else {
        // Recursive programs are rejected by the engines before planning;
        // degrade to syntactic plans rather than panic.
        return QueryPlan {
            clauses: program.clauses().iter().map(syntactic_plan).collect(),
            est_pred_rows,
            costed: false,
        };
    };
    let mut slots: Vec<Option<Result<JoinPlan, String>>> = vec![None; nclauses];
    for p in topo {
        if !program.is_idb(p) {
            continue;
        }
        let mut total = 0.0;
        for (ci, clause) in program.clauses().iter().enumerate() {
            if clause.head != p {
                continue;
            }
            let plan = plan_clause_costed(program, db, &est_pred_rows, clause);
            if let Ok(jp) = &plan {
                total += jp.est_out;
            }
            slots[ci] = Some(plan);
        }
        est_pred_rows[p.0 as usize] = total;
    }
    let clauses = slots
        .into_iter()
        .zip(program.clauses())
        .map(|(s, c)| s.unwrap_or_else(|| syntactic_plan(c)))
        .collect();
    QueryPlan { clauses, est_pred_rows, costed: true }
}

/// Uncosted plans for every clause (the seed engines' behaviour); needs
/// no database.
pub fn syntactic_query_plan(query: &NdlQuery) -> QueryPlan {
    PLANS_BUILT.fetch_add(1, Ordering::Relaxed);
    let program = &query.program;
    QueryPlan {
        clauses: program.clauses().iter().map(syntactic_plan).collect(),
        est_pred_rows: vec![0.0; program.num_preds()],
        costed: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_owlql::abox::ConstId;
    use obda_owlql::parser::{parse_data, parse_ontology};

    /// R is large (one hub key), S is small, and both atoms share both
    /// variables — syntactically a dead tie that the seed heuristic
    /// breaks towards the *last* atom (the 400-row R), while the costed
    /// plan must start from the 2-row S and probe R.
    fn skew_setup() -> (NdlQuery, Database, usize) {
        let o = parse_ontology("Property R\nProperty S\n").unwrap();
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("R(h, b{i})\n"));
        }
        text.push_str("S(h, b3)\nS(h, b7)\n");
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let s = p.edb_prop(v.get_prop("S").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(x) ← S(x, y) ∧ R(x, y).
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0)],
            body: vec![
                BodyAtom::Pred(s, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(r, vec![CVar(0), CVar(1)]),
            ],
            num_vars: 2,
        });
        let db = Database::new(&d);
        (NdlQuery::new(p, g), db, 0)
    }

    #[test]
    fn costed_plan_starts_from_the_small_relation() {
        let (q, db, ci) = skew_setup();
        let plan = plan_query(&q, &db);
        assert!(plan.costed);
        let jp = plan.clauses[ci].as_ref().unwrap();
        // Atom 0 is S (2 rows): scan it, then probe R on its selective
        // column 1 (column 0 is the single hub key, so probing it would
        // fetch all 400 rows).
        assert_eq!(jp.order, vec![0, 1]);
        assert_eq!(jp.access[0], PlannedAccess::Scan);
        assert_eq!(jp.access[1], PlannedAccess::Probe { column: 1 });
        assert_eq!(jp.est_rows.len(), 2);
        assert!(jp.est_out > 0.0);
        // The syntactic tie-break starts from R instead.
        let syn = syntactic_plan(&q.program.clauses()[ci]).unwrap();
        assert_eq!(syn.order, vec![1, 0]);
        assert!(!syn.costed);
    }

    #[test]
    fn total_cost_sums_costed_clauses_and_refuses_syntactic_plans() {
        let (q, db, ci) = skew_setup();
        let plan = plan_query(&q, &db);
        let jp = plan.clauses[ci].as_ref().unwrap();
        let total = plan.total_cost().expect("costed plan must report work");
        assert!(total > 0.0);
        assert_eq!(total, jp.cost + jp.est_out);
        let syn = syntactic_query_plan(&q);
        assert_eq!(syn.total_cost(), None);
    }

    #[test]
    fn idb_estimates_propagate_bottom_up() {
        let o = parse_ontology("Property R\n").unwrap();
        let d = parse_data("R(a, b)\nR(b, c)\nR(c, d)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let h = p.add_pred("H", 2, PredKind::Idb);
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: h,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::Pred(h, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let db = Database::new(&d);
        let plan = plan_query(&NdlQuery::new(p, g), &db);
        assert_eq!(plan.est_pred_rows[r.0 as usize], 3.0);
        assert_eq!(plan.est_pred_rows[h.0 as usize], 3.0, "copy of R");
        assert_eq!(plan.est_pred_rows[g.0 as usize], 3.0, "copy of H");
    }

    /// An IDB relation estimated far above `|⊤|` cannot have a key per
    /// row: a key matches at least `rows / |⊤|` rows. Without that cap the
    /// join through `I1` is estimated to keep one row, and the second IDB
    /// atom is then scanned in full once per row instead of probed.
    #[test]
    fn idb_columns_are_capped_by_the_domain() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let mut text = String::from("A(a0)\n");
        for i in 0..40 {
            for j in 0..40 {
                text.push_str(&format!("R(a{i}, a{j})\n"));
            }
        }
        let d = parse_data(&text, &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let i1 = p.add_pred("I1", 2, PredKind::Idb);
        let i2 = p.add_pred("I2", 2, PredKind::Idb);
        let g = p.add_pred("G", 1, PredKind::Idb);
        for head in [i1, i2] {
            p.add_clause(Clause {
                head,
                head_args: vec![CVar(0), CVar(1)],
                body: vec![BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
                num_vars: 2,
            });
        }
        // G(z) ← A(x) ∧ I1(x, y) ∧ I2(y, z).
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(2)],
            body: vec![
                BodyAtom::Pred(a, vec![CVar(0)]),
                BodyAtom::Pred(i1, vec![CVar(0), CVar(1)]),
                BodyAtom::Pred(i2, vec![CVar(1), CVar(2)]),
            ],
            num_vars: 3,
        });
        let db = Database::new(&d);
        let plan = plan_query(&NdlQuery::new(p, g), &db);
        assert_eq!(plan.est_pred_rows[i2.0 as usize], 1600.0);
        assert!(plan.est_pred_rows[i2.0 as usize] > 10.0 * db.num_individuals() as f64);
        let jp = plan.clauses[2].as_ref().unwrap();
        assert_eq!(jp.order, vec![0, 1, 2]);
        assert_eq!(jp.access[2], PlannedAccess::Probe { column: 0 });
        // Each `x` reaches 40 `y`s, not one.
        assert_eq!(jp.est_rows[1], 40.0);
    }

    #[test]
    fn sorted_snapshot_relations_get_the_merge_path() {
        use crate::storage::Relation;
        use obda_owlql::util::FxHashMap;
        // A sorted-on-col0 property relation built the snapshot way.
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let v = o.vocab();
        let scanned = Database::new(&d);
        let mut props = FxHashMap::default();
        let col0: Vec<u32> = (0..10_000u32).map(|i| i / 4).collect();
        let col1: Vec<u32> = (0..10_000u32).collect();
        props.insert(v.get_prop("R").unwrap(), Relation::from_sorted_columns(2, &[col0, col1]));
        let mut classes = FxHashMap::default();
        for (c, r) in scanned.class_relations() {
            classes
                .insert(c, Relation::from_sorted_columns(1, &[r.rows().map(|x| x[0]).collect()]));
        }
        let universe = Relation::from_sorted_columns(1, &[vec![0]]);
        let db = Database::from_relations(classes, props, universe, 1);

        let mut p = Program::new();
        let r = p.edb_prop(v.get_prop("R").unwrap(), v);
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        // G(y) ← A(x) ∧ R(x, y): x is bound when R is reached, R is
        // sorted on column 0 and large — the merge path must win over
        // building a fresh hash index.
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Pred(r, vec![CVar(0), CVar(1)])],
            num_vars: 2,
        });
        let plan = plan_query(&NdlQuery::new(p, g), &db);
        let jp = plan.clauses[0].as_ref().unwrap();
        assert_eq!(jp.order, vec![0, 1]);
        assert_eq!(jp.access[1], PlannedAccess::SortMerge);
    }

    #[test]
    fn unsafe_clause_yields_error_not_panic() {
        let o = parse_ontology("Class A\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let v = o.vocab();
        let mut p = Program::new();
        let a = p.edb_class(v.get_class("A").unwrap(), v);
        let g = p.add_pred("G", 1, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(1)],
            body: vec![BodyAtom::Pred(a, vec![CVar(0)]), BodyAtom::Eq(CVar(1), CVar(2))],
            num_vars: 3,
        });
        let db = Database::new(&d);
        let plan = plan_query(&NdlQuery::new(p, g), &db);
        assert!(plan.clauses[0].is_err());
    }

    #[test]
    fn all_equality_body_plans_from_the_constant() {
        let mut p = Program::new();
        let g = p.add_pred("G", 2, PredKind::Idb);
        p.add_clause(Clause {
            head: g,
            head_args: vec![CVar(0), CVar(1)],
            body: vec![BodyAtom::EqConst(CVar(0), ConstId(3)), BodyAtom::Eq(CVar(1), CVar(0))],
            num_vars: 2,
        });
        let o = parse_ontology("Class A\n").unwrap();
        let d = parse_data("A(a)\n", &o).unwrap();
        let db = Database::new(&d);
        let plan = plan_query(&NdlQuery::new(p, g), &db);
        let jp = plan.clauses[0].as_ref().unwrap();
        assert_eq!(jp.order, vec![0, 1]);
        assert_eq!(jp.access, vec![PlannedAccess::Filter, PlannedAccess::Filter]);
    }

    #[test]
    fn plans_are_deterministic() {
        let (q, db, _) = skew_setup();
        let a = plan_query(&q, &db);
        let b = plan_query(&q, &db);
        assert_eq!(a.clauses, b.clauses);
        assert_eq!(a.est_pred_rows, b.est_pred_rows);
    }
}
