//! Property tests: min-fill produces valid tree decompositions on random
//! graphs, and the Lemma 10 splitting invariants hold on random trees.

use obda_cq::query::Cq;
use obda_cq::split::{boundary, split_decomposition, SplitNode};
use obda_cq::treedec::TreeDecomposition;
use obda_owlql::parse_ontology;
use proptest::prelude::*;

fn random_query(edges: &[(u8, u8)]) -> Cq {
    let o = parse_ontology("Property R\n").unwrap();
    let r = o.vocab().get_prop("R").unwrap();
    let mut q = Cq::new();
    for &(a, b) in edges {
        let va = q.var(&format!("v{}", a % 8));
        let vb = q.var(&format!("v{}", b % 8));
        q.add_prop_atom(r, va, vb);
    }
    q
}

fn random_tree_adj(parents: &[u8]) -> Vec<Vec<usize>> {
    let n = parents.len() + 1;
    let mut adj = vec![Vec::new(); n];
    for (i, &p) in parents.iter().enumerate() {
        let child = i + 1;
        let parent = (p as usize) % child;
        adj[child].push(parent);
        adj[parent].push(child);
    }
    adj
}

fn check_split(adj: &[Vec<usize>], node: &SplitNode) {
    assert!(node.nodes.contains(&node.sigma));
    let n = node.size();
    let mut in_d = vec![false; adj.len()];
    for &u in &node.nodes {
        in_d[u] = true;
    }
    assert!(boundary(adj, &in_d, &node.nodes).len() <= 2);
    let mut child_total = 0;
    let mut exceptional = 0;
    for c in &node.children {
        child_total += c.size();
        if 2 * c.size() > n {
            exceptional += 1;
            assert!(c.size() < n - 1);
        }
        check_split(adj, c);
    }
    if n > 1 {
        assert_eq!(child_total, n - 1);
        assert!(exceptional <= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    #[test]
    fn min_fill_always_validates(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..14),
    ) {
        let q = random_query(&edges);
        let td = TreeDecomposition::min_fill(&q);
        prop_assert!(td.validate(&q).is_ok(), "{:?}", td.validate(&q));
    }

    #[test]
    fn for_tree_validates_on_trees(
        parents in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        // Build a random tree query from a Prüfer-ish parent vector.
        let o = parse_ontology("Property R\n").unwrap();
        let r = o.vocab().get_prop("R").unwrap();
        let mut q = Cq::new();
        let vars: Vec<_> = (0..=parents.len()).map(|i| q.var(&format!("v{i}"))).collect();
        for (i, &p) in parents.iter().enumerate() {
            q.add_prop_atom(r, vars[(p as usize) % (i + 1)], vars[i + 1]);
        }
        let td = TreeDecomposition::for_tree(&q);
        prop_assert!(td.validate(&q).is_ok(), "{:?}", td.validate(&q));
        prop_assert_eq!(td.width(), 1);
    }

    #[test]
    fn lemma_10_invariants_on_random_trees(
        parents in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let adj = random_tree_adj(&parents);
        let d = split_decomposition(adj.len(), &adj);
        prop_assert_eq!(d.size(), adj.len());
        check_split(&adj, &d);
    }
}
