//! Pinned tests for the worked examples of the paper: Examples 1, 8 and 11,
//! the Appendix A.6 "rewritings zoo", and the qualitative shape of Figure 2.

use obda::{ObdaSystem, Strategy};
use obda_datagen::sequences::{example_11_ontology, word_query, SEQUENCES};
use obda_ndl::analysis::analyze;
use obda_rewrite::omq::{Omq, Rewriter};
use obda_rewrite::{LinRewriter, LogRewriter, TwRewriter, TwUcqRewriter, UcqRewriter};

fn example_8_query(system: &ObdaSystem) -> obda_cq::Cq {
    system
        .parse_query(
            "q(x0, x7) :- R(x0, x1), S(x1, x2), R(x2, x3), R(x3, x4), S(x4, x5), R(x5, x6), R(x6, x7)",
        )
        .unwrap()
}

fn system() -> ObdaSystem {
    ObdaSystem::new(example_11_ontology())
}

/// The A.6 zoo data: the expected single answer is (a, e) via two
/// anonymous-part collapses (AP⁻ at a and at b).
const ZOO_DATA: &str = "P(w1, a)\nR(a, b)\nP(w2, b)\nR(b, c)\nR(c, e)\n";

#[test]
fn zoo_all_rewritings_agree_on_the_worked_example() {
    let sys = system();
    let q = example_8_query(&sys);
    let d = sys.parse_data(ZOO_DATA).unwrap();
    let oracle = sys.certain_answers(&q, &d).tuples();
    assert_eq!(oracle.len(), 1);
    let a = d.get_constant("a").unwrap();
    let e = d.get_constant("e").unwrap();
    assert_eq!(oracle[0], vec![a, e]);
    for strategy in Strategy::ALL {
        let res = sys.answer(&q, &d, strategy).unwrap();
        assert_eq!(res.answers, oracle, "{strategy}");
    }
}

#[test]
fn zoo_lin_rewriting_structure() {
    // A.6.3: the Lin rewriting of the 7-atom query is linear, of width ≤ 2ℓ
    // = 4, with one goal clause per viable slice-0 type.
    let sys = system();
    let q = example_8_query(&sys);
    let omq = Omq::new(sys.ontology(), &q);
    let rw = LinRewriter::default().rewrite_complete(&omq).unwrap();
    let a = analyze(&rw);
    assert!(a.nonrecursive && a.linear);
    assert!(a.width <= 4, "width {}", a.width);
    assert_eq!(a.goal_weight, 1, "linear NDL queries have weight 1");
    // Depth is the number of slices plus the goal step.
    assert_eq!(a.depth, 9);
}

#[test]
fn zoo_log_rewriting_structure() {
    // A.6.2: the Log rewriting splits the 7-bag chain decomposition; its
    // weight function is bounded by the decomposition size and its width by
    // 3(t+1) = 6.
    let sys = system();
    let q = example_8_query(&sys);
    let omq = Omq::new(sys.ontology(), &q);
    let rw = LogRewriter::default().rewrite_complete(&omq).unwrap();
    let a = analyze(&rw);
    assert!(a.nonrecursive);
    assert!(a.width <= 6, "width {}", a.width);
    assert!(a.goal_weight <= 7, "ν(G) ≤ |T| = 7, got {}", a.goal_weight);
    assert!(a.skinny_depth <= 6 * 7, "sd ≤ 6 log |Q|");
}

#[test]
fn zoo_tw_rewriting_structure() {
    // A.6.4: the Tw rewriting splits at the middle; d(Π, G) ≤ log ν(G) + 1
    // (Lemma 14), width ≤ ℓ + 1 = 3.
    let sys = system();
    let q = example_8_query(&sys);
    let omq = Omq::new(sys.ontology(), &q);
    let rw = TwRewriter::default().rewrite_complete(&omq).unwrap();
    let a = analyze(&rw);
    assert!(a.nonrecursive);
    assert!(a.width <= 3, "width {}", a.width);
    assert!(a.goal_weight as usize <= q.num_atoms() + 1);
    assert!(a.depth <= 4, "d ≤ log ν + 1, got {}", a.depth);
}

#[test]
fn figure_2_shape_lin_log_tw_linear_baselines_exponential() {
    // Clause counts over prefixes of Sequence 1: the optimal rewritings
    // grow (sub-)linearly; the UCQ baselines super-linearly.
    let sys = system();
    let mut counts: Vec<[usize; 5]> = Vec::new();
    for n in [3usize, 6, 9, 12] {
        let q = word_query(sys.ontology(), &SEQUENCES[0][..n]);
        let omq = Omq::new(sys.ontology(), &q);
        let lin = LinRewriter::default().rewrite_complete(&omq).unwrap();
        let log = LogRewriter::default().rewrite_complete(&omq).unwrap();
        let tw = TwRewriter::default().rewrite_complete(&omq).unwrap();
        let tw_ucq = TwUcqRewriter::default().rewrite_complete(&omq).unwrap();
        let ucq = if n <= 6 {
            UcqRewriter::default().rewrite_complete(&omq).unwrap().program.num_clauses()
        } else {
            usize::MAX // blows the cap — exactly the Figure 2 story
        };
        counts.push([
            lin.program.num_clauses(),
            log.program.num_clauses(),
            tw.program.num_clauses(),
            tw_ucq.program.num_clauses(),
            ucq,
        ]);
    }
    // Linear growth: increments of the optimal rewritings are bounded.
    for k in 0..3 {
        for pair in counts.windows(2) {
            let inc = pair[1][k] as isize - pair[0][k] as isize;
            assert!(inc <= 24, "rewriter {k} grew by {inc} clauses over 3 atoms");
        }
    }
    // Super-linear growth of the tree-witness UCQ baseline: increments
    // accelerate.
    let incs: Vec<isize> = counts.windows(2).map(|p| p[1][3] as isize - p[0][3] as isize).collect();
    assert!(
        incs.last().unwrap() > incs.first().unwrap(),
        "TwUCQ increments {incs:?} should accelerate"
    );
    // The raw PerfectRef baseline accelerates even faster.
    assert!(counts[1][4] > 5 * counts[0][4]);
}

#[test]
fn all_three_sequences_answer_consistently() {
    // Prefixes of all three sequences over a fixed small instance: all
    // strategies agree with the oracle.
    let sys = system();
    let d = sys
        .parse_data("R(a, b)\nR(b, c)\nS(c, d)\nR(d, e)\nP(p1, a)\nP(c, p2)\nS(e, f)\nR(f, g)\n")
        .unwrap();
    for seq in SEQUENCES {
        for n in 1..=6 {
            let q = word_query(sys.ontology(), &seq[..n]);
            let oracle = sys.certain_answers(&q, &d).tuples();
            for strategy in [Strategy::Lin, Strategy::Log, Strategy::Tw, Strategy::TwStar] {
                let res = sys.answer(&q, &d, strategy).unwrap();
                assert_eq!(res.answers, oracle, "{strategy} on {}-prefix of {seq}", n);
            }
        }
    }
}
