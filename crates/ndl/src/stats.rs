//! Per-relation cardinality statistics for the cost-based planner.
//!
//! [`RelStats`] summarises one [`crate::storage::Relation`]: its row
//! count, a per-column distinct-value count, and whether the rows are
//! sorted (non-decreasingly) on column 0. The planner in
//! [`crate::planner`] turns these into selectivity estimates — the
//! expected number of rows matching a probe of column `c` is
//! `rows / distinct[c]` under the usual uniformity assumption — and into
//! access-path choices (a sorted column 0 enables the binary-search
//! merge path without building a hash index).
//!
//! Stats are computed lazily, at most once per relation, behind a
//! `OnceLock` (see [`crate::storage::Relation::stats`]); the snapshot
//! store persists them in a flag-gated `.obdb` section and presets them
//! on open, so reopening a snapshot never re-scans the columns.

use crate::storage::Relation;
use obda_owlql::util::FxHashSet;

/// Summary statistics of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelStats {
    /// Number of rows at the time the stats were computed.
    pub rows: usize,
    /// Distinct values per column (length = arity).
    pub distinct: Vec<u64>,
    /// Whether column 0 is sorted non-decreasingly (snapshot segments
    /// are; this enables the kernel's binary-search merge access path).
    pub sorted_col0: bool,
}

impl RelStats {
    /// Computes the stats with one pass per column.
    pub fn compute(rel: &Relation) -> RelStats {
        let arity = rel.arity();
        let rows = rel.len();
        let mut distinct = Vec::with_capacity(arity);
        let mut sorted_col0 = arity > 0;
        for c in 0..arity {
            let mut seen: FxHashSet<u32> = FxHashSet::default();
            let mut prev: Option<u32> = None;
            for row in rel.rows() {
                let v = row[c];
                seen.insert(v);
                if c == 0 {
                    if let Some(p) = prev {
                        if v < p {
                            sorted_col0 = false;
                        }
                    }
                    prev = Some(v);
                }
            }
            distinct.push(seen.len() as u64);
        }
        RelStats { rows, distinct, sorted_col0 }
    }

    /// Stats assembled from persisted per-column distinct counts (the
    /// snapshot open path; segment rows are sorted by construction).
    pub fn from_persisted(rows: usize, distinct: Vec<u64>, sorted_col0: bool) -> RelStats {
        RelStats { rows, distinct, sorted_col0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_counts_distinct_and_sortedness() {
        let mut r = Relation::new(2);
        r.push(&[1, 10]);
        r.push(&[1, 20]);
        r.push(&[2, 10]);
        let s = RelStats::compute(&r);
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct, vec![2, 2]);
        assert!(s.sorted_col0);

        let mut unsorted = Relation::new(2);
        unsorted.push(&[5, 0]);
        unsorted.push(&[3, 0]);
        let s = RelStats::compute(&unsorted);
        assert!(!s.sorted_col0);
        assert_eq!(s.distinct, vec![2, 1]);
    }

    #[test]
    fn empty_and_zero_arity_relations() {
        let s = RelStats::compute(&Relation::new(2));
        assert_eq!(s.rows, 0);
        assert_eq!(s.distinct, vec![0, 0]);
        assert!(s.sorted_col0, "vacuously sorted");

        let s0 = RelStats::compute(&Relation::new(0));
        assert_eq!(s0.distinct.len(), 0);
        assert!(!s0.sorted_col0, "no column 0 to be sorted on");
    }
}
