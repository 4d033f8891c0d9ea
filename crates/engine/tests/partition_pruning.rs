//! Property tests: zone-map partition pruning is **exactly** sound.
//!
//! Two properties, checked over random tables (NULLs everywhere, NaN in
//! the float measure), random predicates, every split kind, both store
//! layouts, and partition sizes spanning one-row-per-partition to
//! whole-table:
//!
//! 1. **Direct soundness** — a partition whose zone maps answer `Never`
//!    for a query's contribution predicate really contains no row
//!    satisfying it (pruning never skips a matching row), and a partition
//!    answering `Always` contains no row violating it (so negation stays
//!    exact).
//! 2. **End-to-end bit-identity** — pruned, morsel-parallel execution over
//!    a partitioned table produces results identical to the naive
//!    reference (`naive/mod.rs`) over an *unpartitioned* twin of the same
//!    data, value bits and group order included.

mod gen;
mod naive;

use gen::{arb_dataset, arb_partition_rows, arb_query, build};
use proptest::prelude::*;
use seedb_engine::{
    contribution_predicate, execute_morsels, with_pool, zone_match, Predicate, ScanShape,
};
use seedb_storage::{BoxedTable, Cell, ColumnId, StoreKind, ZoneMatch};

/// Row-level truth of an unbound predicate at `row` (identity slot map:
/// the projection is the whole schema).
fn row_matches(table: &BoxedTable, pred: &Predicate, row: usize) -> bool {
    let ncols = table.schema().len();
    let cells: Vec<Cell> = (0..ncols)
        .map(|c| table.cell(row, ColumnId(c as u32)))
        .collect();
    pred.bind(&|col: ColumnId| col.index()).eval(&cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zone verdicts are hard guarantees: `Never` partitions contain no
    /// matching row, `Always` partitions contain no violating row.
    #[test]
    fn zone_verdicts_are_sound(
        ds in arb_dataset(),
        query in arb_query(),
        partition_rows in arb_partition_rows(),
    ) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind, partition_rows);
            let contribution = contribution_predicate(&query);
            for part in t.partitions() {
                let verdict = zone_match(&contribution, &part.zones);
                match verdict {
                    ZoneMatch::Never => {
                        for row in part.rows.clone() {
                            prop_assert!(
                                !row_matches(&t, &contribution, row),
                                "{kind} partition {:?} pruned but row {row} matches",
                                part.rows
                            );
                        }
                    }
                    ZoneMatch::Always => {
                        for row in part.rows.clone() {
                            prop_assert!(
                                row_matches(&t, &contribution, row),
                                "{kind} partition {:?} is Always but row {row} fails",
                                part.rows
                            );
                        }
                    }
                    ZoneMatch::Maybe => {}
                }
            }
        }
    }

    /// Pruned, morsel-parallel execution over a partitioned table is
    /// bit-identical to the naive reference over an unpartitioned
    /// twin, for every store layout and partition size.
    #[test]
    fn pruned_execution_matches_unpartitioned_reference(
        ds in arb_dataset(),
        query in arb_query(),
        partition_rows in arb_partition_rows(),
    ) {
        // Reference substrate: one partition for the whole table, so
        // nothing the reference reads depends on the partition layout
        // under test.
        let flat = build(&ds, StoreKind::Column, usize::MAX);
        let want = naive::naive_query(flat.as_ref(), &query, 0..flat.num_rows());
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = build(&ds, kind, partition_rows);
            for threads in [1usize, 4] {
                let got = with_pool(threads, |pool| {
                    execute_morsels(
                        pool,
                        t.as_ref(),
                        std::slice::from_ref(&query),
                        0..t.num_rows(),
                        ScanShape::new(64),
                        &seedb_engine::CancelToken::none(),
                    )
                });
                let (result, stats) = &got[0];
                prop_assert_eq!(
                    stats.partitions_scanned + stats.partitions_pruned,
                    t.partitions().len() as u64,
                    "partition accounting must cover the directory"
                );
                let checked = naive::check(result, &want);
                prop_assert!(
                    checked.is_ok(),
                    "{kind} threads={threads} partition_rows={partition_rows}: {}",
                    checked.unwrap_err()
                );
            }
        }
    }
}
