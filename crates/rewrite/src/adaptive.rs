//! An adaptive, cost-guided splitting strategy (the future-work direction
//! sketched in Section 6).
//!
//! Section 6 observes that none of the three splitting strategies (`Lin`,
//! `Log`, `Tw`) systematically outperforms the others, and suggests picking
//! the rewriting by a cost function estimated from data statistics, like a
//! relational query planner. [`AdaptiveRewriter`] implements the simplest
//! instance of that idea: it considers four candidate programs, estimates
//! the materialisation cost of each against per-predicate cardinality
//! statistics, and returns the cheapest. The candidates come from three
//! rewriter runs: `Lin`, `Log` and one `Tw` run, whose program is a
//! candidate both as it is and after the `Tw*` inlining pass.

use crate::lin::LinRewriter;
use crate::log::LogRewriter;
use crate::omq::{Omq, RewriteError, Rewriter};
use crate::tw::TwRewriter;
use crate::twstar::inline_single_definitions;
use obda_budget::Budget;
use obda_ndl::analysis::topological_order;
use obda_ndl::program::{BodyAtom, NdlQuery, PredId, PredKind};
use obda_owlql::abox::DataInstance;
use obda_owlql::util::FxHashMap;

/// Per-predicate cardinality statistics used by the cost model.
#[derive(Debug, Clone, Default)]
pub struct DataStats {
    /// Number of individuals (active-domain size).
    pub domain_size: usize,
    /// Facts per class.
    pub class_counts: FxHashMap<obda_owlql::ClassId, usize>,
    /// Facts per property.
    pub prop_counts: FxHashMap<obda_owlql::PropId, usize>,
}

impl DataStats {
    /// Collects statistics from a data instance.
    pub fn of(data: &DataInstance) -> Self {
        let mut stats = DataStats { domain_size: data.num_individuals(), ..Default::default() };
        for (c, _) in data.class_atoms() {
            *stats.class_counts.entry(c).or_insert(0) += 1;
        }
        for (p, _, _) in data.prop_atoms() {
            *stats.prop_counts.entry(p).or_insert(0) += 1;
        }
        stats
    }

    fn edb_estimate(&self, kind: PredKind) -> f64 {
        match kind {
            PredKind::EdbClass(c) => *self.class_counts.get(&c).unwrap_or(&0) as f64,
            PredKind::EdbProp(p) => *self.prop_counts.get(&p).unwrap_or(&0) as f64,
            PredKind::Top => self.domain_size as f64,
            PredKind::Idb => unreachable!("IDB sizes are estimated, not looked up"),
        }
    }
}

/// Estimates the total number of tuples a naive materialising engine
/// produces for the program: per clause, the product of the body relations'
/// estimated sizes scaled by a join-selectivity factor per shared variable;
/// IDB estimates are propagated in dependency order.
pub fn estimate_cost(query: &NdlQuery, stats: &DataStats) -> f64 {
    let Some(order) = topological_order(&query.program) else {
        return f64::INFINITY;
    };
    let selectivity = 1.0 / (stats.domain_size.max(2) as f64);
    let mut sizes: FxHashMap<PredId, f64> = FxHashMap::default();
    let mut total = 0.0f64;
    for p in order {
        let mut estimate = 0.0f64;
        for clause in query.program.clauses_for(p) {
            let mut clause_size = 1.0f64;
            let mut seen_vars: Vec<obda_ndl::program::CVar> = Vec::new();
            for atom in &clause.body {
                match atom {
                    BodyAtom::Pred(q, args) => {
                        let base = if query.program.is_idb(*q) {
                            sizes.get(q).copied().unwrap_or(0.0)
                        } else {
                            stats.edb_estimate(query.program.pred(*q).kind)
                        };
                        clause_size *= base.max(1.0);
                        for &v in args {
                            if seen_vars.contains(&v) {
                                clause_size *= selectivity;
                            } else {
                                seen_vars.push(v);
                            }
                        }
                    }
                    BodyAtom::Eq(a, b) => {
                        if seen_vars.contains(a) && seen_vars.contains(b) {
                            clause_size *= selectivity;
                        }
                        for &v in [a, b] {
                            if !seen_vars.contains(&v) {
                                seen_vars.push(v);
                            }
                        }
                    }
                    BodyAtom::EqConst(a, _) => {
                        // Pinning a variable to one constant filters like a
                        // join on an already-seen variable.
                        if seen_vars.contains(a) {
                            clause_size *= selectivity;
                        } else {
                            seen_vars.push(*a);
                        }
                    }
                }
            }
            estimate += clause_size;
        }
        sizes.insert(p, estimate);
        total += estimate;
    }
    total
}

/// The adaptive rewriter: runs `Lin`, `Log` and `Tw` once each, considers
/// `Tw`'s program both as it is and after the `Tw*` inlining pass, and keeps
/// the cheapest program under the cost model.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveRewriter {
    /// Statistics for the target data (empty stats fall back to structural
    /// cost, effectively preferring smaller programs).
    pub stats: DataStats,
}

impl AdaptiveRewriter {
    /// Rewrites and reports which strategy won.
    pub fn rewrite_with_report(
        &self,
        omq: &Omq<'_>,
    ) -> Result<(NdlQuery, &'static str, f64), RewriteError> {
        self.rewrite_with_report_budgeted(omq, &mut Budget::unlimited())
    }

    /// Budgeted [`Self::rewrite_with_report`]: each rewriter run (`Lin`,
    /// `Log`, and the one `Tw` run behind both `Tw` and `Tw*`) draws on a
    /// renewed copy of the budget (same deadline, fresh counters), so a
    /// blow-up in one strategy cannot starve the others; a budget trip in
    /// one run counts as its candidates failing, and only if *every*
    /// candidate fails is the last error returned.
    pub fn rewrite_with_report_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<(NdlQuery, &'static str, f64), RewriteError> {
        let lin = LinRewriter::default().rewrite_budgeted(omq, &mut budget.renew());
        let log = LogRewriter::default().rewrite_budgeted(omq, &mut budget.renew());
        let tw = TwRewriter::default().rewrite_budgeted(omq, &mut budget.renew());
        // `Tw*` is a post-pass over `Tw`'s program, not a rewriter run.
        let twstar = tw.as_ref().map(|q| inline_single_definitions(q, 2)).map_err(Clone::clone);
        let mut best: Option<(NdlQuery, &'static str, f64)> = None;
        let mut last_err = RewriteError::NotTreeShaped;
        for (name, attempt) in [("Lin", lin), ("Log", log), ("Tw", tw), ("Tw*", twstar)] {
            match attempt {
                Ok(q) => {
                    let cost = estimate_cost(&q, &self.stats);
                    if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
                        best = Some((q, name, cost));
                    }
                }
                Err(e) => last_err = e,
            }
        }
        best.ok_or(last_err)
    }
}

impl Rewriter for AdaptiveRewriter {
    fn name(&self) -> &'static str {
        "Adaptive"
    }

    fn rewrite_budgeted(
        &self,
        omq: &Omq<'_>,
        budget: &mut Budget,
    ) -> Result<NdlQuery, RewriteError> {
        self.rewrite_with_report_budgeted(omq, budget).map(|(q, _, _)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_chase::certain_answers;
    use obda_cq::parse_cq;
    use obda_ndl::eval::evaluate;
    use obda_ndl::storage::Database;
    use obda_owlql::parser::{parse_data, parse_ontology};

    #[test]
    fn picks_a_strategy_and_stays_correct() {
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x3) :- R(x0, x1), S(x1, x2), R(x2, x3)", &o).unwrap();
        let d = parse_data("P(w, a)\nR(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\n", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let adaptive = AdaptiveRewriter { stats: DataStats::of(&d) };
        let (rw, winner, cost) = adaptive.rewrite_with_report(&omq).unwrap();
        assert!(cost.is_finite());
        assert!(["Lin", "Log", "Tw", "Tw*"].contains(&winner));
        let tx = o.taxonomy();
        let res = evaluate(&rw, &Database::new(&d.complete(&tx))).unwrap();
        let oracle = certain_answers(&o, &q, &d);
        assert_eq!(res.answers, oracle.tuples());
    }

    #[test]
    fn falls_back_to_tw_for_infinite_depth() {
        let o = parse_ontology(
            "A SubClassOf exists P\n\
             exists P- SubClassOf exists P\n",
        )
        .unwrap();
        let q = parse_cq("q(x) :- P(x, y), P(y, z)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let adaptive = AdaptiveRewriter::default();
        let (_, winner, _) = adaptive.rewrite_with_report(&omq).unwrap();
        assert!(winner == "Tw" || winner == "Tw*", "Lin/Log cannot handle infinite depth");
    }

    #[test]
    fn runs_tw_once_for_both_tw_candidates() {
        use crate::tree_witness::{connected_existential_subsets, CANDIDATES_VISITED};
        let o = parse_ontology(
            "P SubPropertyOf S\n\
             P SubPropertyOf R-\n",
        )
        .unwrap();
        let q = parse_cq("q(x0, x4) :- S(x0, x1), R(x1, x2), R(x2, x3), S(x3, x4)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let subsets =
            connected_existential_subsets(&q, TwRewriter::default().tree_witness_cap).len();
        CANDIDATES_VISITED.with(|c| c.set(0));
        let (rw, _, _) = AdaptiveRewriter::default().rewrite_with_report(&omq).unwrap();
        assert_eq!(CANDIDATES_VISITED.with(|c| c.get()), subsets, "one Tw run");
        // The cheapest candidate is the one returned, whichever run made it.
        let tw = TwRewriter::default().rewrite_complete(&omq).unwrap();
        let stats = DataStats::default();
        let best = [
            LinRewriter::default().rewrite_complete(&omq).unwrap(),
            LogRewriter::default().rewrite_complete(&omq).unwrap(),
            inline_single_definitions(&tw, 2),
            tw,
        ]
        .iter()
        .map(|c| estimate_cost(c, &stats))
        .fold(f64::INFINITY, f64::min);
        assert_eq!(estimate_cost(&rw, &stats), best);
    }

    #[test]
    fn cost_scales_with_data() {
        let o = parse_ontology("Class A\nProperty R\n").unwrap();
        let q = parse_cq("q(x) :- R(x, y), A(y)", &o).unwrap();
        let omq = Omq::new(&o, &q);
        let rw = TwRewriter::default().rewrite_complete(&omq).unwrap();
        let small = DataStats {
            domain_size: 10,
            class_counts: [(o.vocab().get_class("A").unwrap(), 5)].into_iter().collect(),
            prop_counts: [(o.vocab().get_prop("R").unwrap(), 10)].into_iter().collect(),
        };
        let big = DataStats {
            domain_size: 10,
            class_counts: [(o.vocab().get_class("A").unwrap(), 500)].into_iter().collect(),
            prop_counts: [(o.vocab().get_prop("R").unwrap(), 1000)].into_iter().collect(),
        };
        assert!(estimate_cost(&rw, &big) > estimate_cost(&rw, &small));
    }
}
