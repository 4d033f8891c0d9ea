//! Property tests for the engine's sharing rewrites: every §4.1
//! optimization must be *result-preserving*. We generate random tables and
//! random view sets, then check that
//!
//! 1. combined multi-aggregate queries ≡ the naive reference of each
//!    per-aggregate query, bit for bit,
//! 2. multi-GROUP-BY queries + rollup ≡ the naive reference of the direct
//!    single-attribute query, bit for bit,
//! 3. combined target/reference execution ≡ two separate `TargetOnly` runs,
//! 4. phased (partitioned) execution ≡ the naive reference,
//! 5. ROW and COL layouts agree.

mod naive;

use proptest::prelude::*;
use seedb_engine::{
    execute_combined, rollup, AggFunc, AggSpec, CombinedQuery, ExecStats, GroupEntry,
    GroupedResult, PartialAggregation, Predicate, SplitSpec,
};
use seedb_storage::{
    BoxedTable, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
};

#[derive(Debug, Clone)]
struct Dataset {
    rows: Vec<(u8, u8, u8, Option<f64>)>, // (dim_a, dim_b, dim_c, measure)
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (0u8..4, 0u8..3, 0u8..5, prop::option::of(-100.0f64..100.0)),
        1..200,
    )
    .prop_map(|rows| Dataset { rows })
}

fn build(ds: &Dataset, kind: StoreKind) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::dim("c"),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
    ]);
    for (a, bb, c, m) in &ds.rows {
        b.push_row(&[
            Value::str(format!("a{a}")),
            Value::str(format!("b{bb}")),
            Value::str(format!("c{c}")),
            m.map(Value::Float).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

fn target_pred(table: &dyn seedb_storage::Table) -> Predicate {
    // Target = rows with dim_a == 'a0' (always a valid label if present;
    // Predicate::False otherwise, which is also a legal target).
    Predicate::col_eq_str(table, "a", "a0")
}

fn vectors_close(x: &(Vec<f64>, Vec<f64>), y: &(Vec<f64>, Vec<f64>)) -> bool {
    let close = |p: &[f64], q: &[f64]| {
        p.len() == q.len()
            && p.iter()
                .zip(q)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())))
    };
    close(&x.0, &y.0) && close(&x.1, &y.1)
}

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combined_aggregates_match_reference(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let split = SplitSpec::TargetVsAll(target_pred(t.as_ref()));
        let combined = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: FUNCS.iter().map(|&f| AggSpec::new(f, ColumnId(3))).collect(),
            filter: None,
            split: split.clone(),
        };
        let merged = execute_combined(t.as_ref(), &combined, &mut ExecStats::new());
        for (i, &f) in FUNCS.iter().enumerate() {
            let single = CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(f, ColumnId(3)),
                split.clone(),
            );
            let want = naive::naive_query(t.as_ref(), &single, 0..t.num_rows());
            let got = GroupedResult {
                group_by: merged.group_by.clone(),
                aggregates: vec![merged.aggregates[i]],
                groups: merged
                    .groups
                    .iter()
                    .map(|g| GroupEntry {
                        key: g.key.clone(),
                        target: vec![g.target[i].clone()],
                        reference: vec![g.reference[i].clone()],
                    })
                    .collect(),
            };
            let checked = naive::check(&got, &want);
            prop_assert!(checked.is_ok(), "aggregate {f}: {}", checked.unwrap_err());
        }
    }

    #[test]
    fn multi_group_by_rollup_matches_reference(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let split = SplitSpec::TargetVsComplement(target_pred(t.as_ref()));
        let aggs = vec![
            AggSpec::new(AggFunc::Count, ColumnId(3)),
            AggSpec::new(AggFunc::Avg, ColumnId(3)),
        ];
        let multi = CombinedQuery {
            group_by: vec![ColumnId(1), ColumnId(2)],
            aggregates: aggs.clone(),
            filter: None,
            split: split.clone(),
        };
        let multi_result = execute_combined(t.as_ref(), &multi, &mut ExecStats::new());
        for (pos, dim) in [(0usize, 1u32), (1, 2)] {
            let rolled = rollup(&multi_result, pos);
            let direct = CombinedQuery {
                group_by: vec![ColumnId(dim)],
                aggregates: aggs.clone(),
                filter: None,
                split: split.clone(),
            };
            let want = naive::naive_query(t.as_ref(), &direct, 0..t.num_rows());
            let checked = naive::check(&rolled, &want);
            prop_assert!(checked.is_ok(), "rollup on dim {dim}: {}", checked.unwrap_err());
        }
    }

    #[test]
    fn combined_split_equals_two_target_only_queries(ds in arb_dataset()) {
        let t = build(&ds, StoreKind::Column);
        let target = target_pred(t.as_ref());
        let combined = CombinedQuery::single(
            ColumnId(1),
            AggSpec::new(AggFunc::Sum, ColumnId(3)),
            SplitSpec::TargetVsComplement(target.clone()),
        );
        let both = execute_combined(t.as_ref(), &combined, &mut ExecStats::new());

        let run_side = |pred: Predicate| -> GroupedResult {
            execute_combined(
                t.as_ref(),
                &CombinedQuery::single(
                    ColumnId(1),
                    AggSpec::new(AggFunc::Sum, ColumnId(3)),
                    SplitSpec::TargetOnly(pred),
                ),
                &mut ExecStats::new(),
            )
        };
        let t_side = run_side(target.clone());
        let r_side = run_side(target.negate());

        // Align by key: combined result may have groups the single-sided
        // queries lack (a group whose rows are all on one side).
        for g in &both.groups {
            let t_val = g.target[0].finish(AggFunc::Sum).unwrap();
            let r_val = g.reference[0].finish(AggFunc::Sum).unwrap();
            let t_direct = t_side
                .groups
                .iter()
                .find(|e| e.key == g.key)
                .map(|e| e.target[0].finish(AggFunc::Sum).unwrap())
                .unwrap_or(0.0);
            let r_direct = r_side
                .groups
                .iter()
                .find(|e| e.key == g.key)
                .map(|e| e.target[0].finish(AggFunc::Sum).unwrap())
                .unwrap_or(0.0);
            prop_assert!((t_val - t_direct).abs() < 1e-9);
            prop_assert!((r_val - r_direct).abs() < 1e-9);
        }
    }

    #[test]
    fn phased_execution_matches_reference(ds in arb_dataset(), phases in 1usize..8) {
        let t = build(&ds, StoreKind::Row);
        let q = CombinedQuery::single(
            ColumnId(2),
            AggSpec::new(AggFunc::Avg, ColumnId(3)),
            SplitSpec::TargetVsAll(target_pred(t.as_ref())),
        );
        let n = t.num_rows();
        let mut partial = PartialAggregation::new(q.clone());
        let mut stats = ExecStats::new();
        for i in 0..phases {
            let lo = n * i / phases;
            let hi = n * (i + 1) / phases;
            partial.update(t.as_ref(), lo..hi, &mut stats);
        }
        let checked = naive::check(&partial.finalize(), &naive::naive_query(t.as_ref(), &q, 0..n));
        prop_assert!(checked.is_ok(), "{} phases: {}", phases, checked.unwrap_err());
        prop_assert_eq!(stats.rows_scanned, n as u64);
    }

    #[test]
    fn row_and_column_stores_agree(ds in arb_dataset()) {
        let row_t = build(&ds, StoreKind::Row);
        let col_t = build(&ds, StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(3)),
                AggSpec::new(AggFunc::Avg, ColumnId(3)),
            ],
            filter: None,
            split: SplitSpec::TargetVsComplement(target_pred(row_t.as_ref())),
        };
        let a = execute_combined(row_t.as_ref(), &q, &mut ExecStats::new());
        let b = execute_combined(col_t.as_ref(), &q, &mut ExecStats::new());
        prop_assert_eq!(a.num_groups(), b.num_groups());
        for agg in 0..2 {
            prop_assert!(vectors_close(&a.value_vectors(agg), &b.value_vectors(agg)));
        }
    }
}
