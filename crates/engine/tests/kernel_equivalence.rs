//! Property tests: the aggregation kernel is **exactly** equivalent to the
//! naive row-at-a-time reference (`naive/mod.rs`), serially, phased,
//! mid-stream and morsel-parallel.
//!
//! The equivalence is bit-level, not approximate: for arbitrary tables
//! (including NULLs in dimensions and measures, and NaN), arbitrary predicates,
//! every split kind, both store layouts, single- and multi-attribute
//! group-bys (i.e. the dense dictionary-direct index, the composite
//! mixed-radix index, *and* the hash fallback), arbitrary phase
//! partitions, and every `(worker count, morsel size)` combination, every
//! finished COUNT, SUM, AVG, MIN and MAX must equal the reference's bit
//! for bit.

mod gen;
mod naive;

use gen::{arb_dataset, arb_partition_rows, arb_query, build};
use proptest::prelude::*;
use seedb_engine::{
    execute_morsels, with_pool, CombinedQuery, ExecStats, GroupedResult, PartialAggregation,
    ScanShape,
};
use seedb_storage::{BoxedTable, StoreKind};

/// Runs `query`, feeding the table in `phases` contiguous partitions
/// (1 = one-shot).
fn run(table: &BoxedTable, query: &CombinedQuery, phases: usize) -> GroupedResult {
    let n = table.num_rows();
    let mut agg = PartialAggregation::new(query.clone());
    let mut stats = ExecStats::new();
    for i in 0..phases {
        let lo = n * i / phases;
        let hi = n * (i + 1) / phases;
        agg.update(table.as_ref(), lo..hi, &mut stats);
    }
    agg.finalize()
}

/// The reference result over the whole table.
fn reference(table: &BoxedTable, query: &CombinedQuery) -> naive::Groups {
    naive::naive_query(table.as_ref(), query, 0..table.num_rows())
}

/// Asserts an engine result equals the reference.
macro_rules! prop_assert_reference {
    ($result:expr, $want:expr, $label:expr) => {{
        let checked = naive::check(&$result, &$want);
        prop_assert!(checked.is_ok(), "{}: {}", $label, checked.unwrap_err());
    }};
}

/// Exact equality of two engine results' accumulators.
macro_rules! prop_assert_identical {
    ($a:expr, $b:expr, $label:expr) => {{
        let (a, b) = (&$a, &$b);
        prop_assert_eq!(a.num_groups(), b.num_groups(), "{}: group count", $label);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            prop_assert_eq!(&ga.key, &gb.key, "{}: key order", $label);
            prop_assert_eq!(&ga.target, &gb.target, "{}: target accumulators", $label);
            prop_assert_eq!(
                &ga.reference,
                &gb.reference,
                "{}: reference accumulators",
                $label
            );
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-shot execution equals the reference on both store layouts.
    #[test]
    fn kernel_matches_naive_reference(ds in arb_dataset(), query in arb_query()) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind, usize::MAX);
            prop_assert_reference!(run(&t, &query, 1), reference(&t, &query), kind);
        }
    }

    /// Phased execution equals the reference: the resumable
    /// `PartialAggregation` contract survives batching.
    #[test]
    fn phased_execution_matches_reference(
        ds in arb_dataset(),
        query in arb_query(),
        phases in 1usize..7,
    ) {
        let t = build(&ds, StoreKind::Column, usize::MAX);
        prop_assert_reference!(run(&t, &query, phases), reference(&t, &query), format!("{phases} phases"));
    }

    /// Row and column stores agree bit-for-bit (zero-copy column batches
    /// vs materialized row-store batches).
    #[test]
    fn row_and_column_stores_agree(
        ds in arb_dataset(),
        query in arb_query(),
        phases in 1usize..5,
    ) {
        let row_t = build(&ds, StoreKind::Row, usize::MAX);
        let col_t = build(&ds, StoreKind::Column, usize::MAX);
        let a = run(&row_t, &query, phases);
        let b = run(&col_t, &query, phases);
        prop_assert_identical!(a, b, "ROW vs COL");
    }

    /// Morsel-driven parallel execution equals the reference across the
    /// full cross product of worker counts, morsel sizes (including
    /// single-row and whole-range), store layouts, and group-index shapes
    /// (`arb_group_by` spans the dense single-dim index, the composite
    /// mixed-radix index, and the hash fallback), over partitioned tables.
    #[test]
    fn morsel_parallel_execution_matches_reference(
        ds in arb_dataset(),
        query in arb_query(),
        partition_rows in arb_partition_rows(),
    ) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind, partition_rows);
            let want = reference(&t, &query);
            for threads in [1usize, 2, 8] {
                const MORSELS: [usize; 4] = [1, 7, 1024, usize::MAX];
                // One pool per worker count; all morsel sweeps reuse it.
                let per_morsel: Vec<(GroupedResult, ExecStats)> = with_pool(threads, |pool| {
                    MORSELS
                        .iter()
                        .map(|&morsel_rows| {
                            execute_morsels(
                                pool,
                                t.as_ref(),
                                std::slice::from_ref(&query),
                                0..t.num_rows(),
                                ScanShape::new(morsel_rows),
                                &seedb_engine::CancelToken::none(),
                            )
                            .pop()
                            .expect("one query in, one result out")
                        })
                        .collect()
                });
                for (morsel_rows, (morsel_result, stats)) in MORSELS.iter().zip(&per_morsel) {
                    // Zone-map pruning may skip partitions outright (e.g. a
                    // `False` filter prunes everything); absent pruning the
                    // full range must still be walked.
                    if stats.partitions_pruned == 0 {
                        prop_assert_eq!(stats.rows_scanned, t.num_rows() as u64);
                    } else {
                        prop_assert!(stats.rows_scanned < t.num_rows() as u64);
                    }
                    prop_assert_reference!(
                        *morsel_result,
                        want,
                        format!("{kind} threads={threads} morsel={morsel_rows}")
                    );
                }
            }
        }
    }

    /// Mid-stream snapshots equal the reference over the rows consumed so
    /// far, after every phase.
    #[test]
    fn snapshots_match_reference_mid_stream(ds in arb_dataset(), query in arb_query()) {
        let t = build(&ds, StoreKind::Column, usize::MAX);
        let n = t.num_rows();
        let mut agg = PartialAggregation::new(query.clone());
        let mut stats = ExecStats::new();
        for (lo, hi) in [(0, n / 2), (n / 2, n)] {
            agg.update(t.as_ref(), lo..hi, &mut stats);
            prop_assert_eq!(agg.rows_consumed(), hi as u64);
            let want = naive::naive_query(t.as_ref(), &query, 0..hi);
            prop_assert_eq!(agg.num_groups(), want.len());
            prop_assert_reference!(agg.snapshot(), want, format!("snapshot at {hi}"));
        }
    }
}
