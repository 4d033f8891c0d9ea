//! Proptest generators shared by the kernel and partition-pruning suites:
//! a five-column table (two categorical dimensions with NULLs, a nullable
//! bool, a float measure with NULL and NaN, a nullable int measure),
//! predicates over every column type, every split kind, and every
//! group-index shape.

use proptest::prelude::*;
use seedb_engine::{AggFunc, AggSpec, CmpOp, CombinedQuery, Predicate, SplitSpec};
use seedb_storage::{
    BoxedTable, ColumnDef, ColumnId, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
};

/// One generated row: `(dim_a, dim_b, bool_dim, float measure, int
/// measure)`; `None` = NULL.
pub type Row = (Option<u8>, u8, Option<bool>, Option<f64>, Option<i64>);

#[derive(Debug, Clone)]
pub struct Dataset {
    pub rows: Vec<Row>,
}

pub fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (
            prop::option::of(0u8..5),
            0u8..3,
            prop::option::of(any::<bool>()),
            // NaN rides along so the zone maps' NaN bookkeeping is stressed.
            prop::option::of(prop_oneof![
                8 => -100.0f64..100.0,
                1 => Just(f64::NAN),
            ]),
            prop::option::of(-50i64..50),
        ),
        1..250,
    )
    .prop_map(|rows| Dataset { rows })
}

/// Partition sizes from the degenerate (every row its own zone) to the
/// whole table in one zone.
pub fn arb_partition_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7usize),
        Just(1024usize),
        Just(usize::MAX),
    ]
}

pub fn build(ds: &Dataset, kind: StoreKind, partition_rows: usize) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::new("flag", ColumnType::Bool, ColumnRole::Dimension),
        ColumnDef::new("m", ColumnType::Float64, ColumnRole::Measure),
        ColumnDef::new("n", ColumnType::Int64, ColumnRole::Measure),
    ])
    .with_partition_rows(partition_rows);
    for (a, bb, flag, m, n) in &ds.rows {
        b.push_row(&[
            a.map(|v| Value::str(format!("a{v}")))
                .unwrap_or(Value::Null),
            Value::str(format!("b{bb}")),
            flag.map(Value::Bool).unwrap_or(Value::Null),
            m.map(Value::Float).unwrap_or(Value::Null),
            n.map(Value::Int).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

pub fn arb_leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0u32..5).prop_map(|code| Predicate::CatEq {
            col: ColumnId(0),
            code,
        }),
        prop::collection::vec(0u32..5, 0..3).prop_map(|codes| Predicate::CatIn {
            col: ColumnId(1),
            codes,
        }),
        any::<bool>().prop_map(|value| Predicate::BoolEq {
            col: ColumnId(2),
            value,
        }),
        (-80.0f64..80.0, 0usize..6).prop_map(|(value, op)| Predicate::NumCmp {
            col: ColumnId(3),
            op: [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge
            ][op],
            value,
        }),
        (-40.0f64..40.0).prop_map(|value| Predicate::NumCmp {
            col: ColumnId(4),
            op: CmpOp::Lt,
            value,
        }),
        (0u32..5).prop_map(|c| Predicate::IsNull { col: ColumnId(c) }),
    ]
    .boxed()
}

pub fn arb_predicate() -> BoxedStrategy<Predicate> {
    prop_oneof![
        4 => arb_leaf(),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::And),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::Or),
        1 => arb_leaf().prop_map(|p| Predicate::Not(Box::new(p))),
    ]
    .boxed()
}

pub fn arb_split() -> BoxedStrategy<SplitSpec> {
    prop_oneof![
        arb_predicate().prop_map(SplitSpec::TargetVsAll),
        arb_predicate().prop_map(SplitSpec::TargetVsComplement),
        (arb_predicate(), arb_predicate())
            .prop_map(|(target, reference)| { SplitSpec::TargetVsQuery { target, reference } }),
        arb_predicate().prop_map(SplitSpec::TargetOnly),
    ]
    .boxed()
}

/// Group-by shapes: single categorical (dense path), single bool /
/// measure-typed attribute (vectorized hash path), and multi-attribute
/// (hash path + rollup clusters).
pub fn arb_group_by() -> BoxedStrategy<Vec<ColumnId>> {
    prop_oneof![
        3 => Just(vec![ColumnId(0)]),
        2 => Just(vec![ColumnId(1)]),
        1 => Just(vec![ColumnId(2)]),
        2 => Just(vec![ColumnId(0), ColumnId(1)]),
        1 => Just(vec![ColumnId(1), ColumnId(2)]),
    ]
    .boxed()
}

pub fn arb_query() -> BoxedStrategy<CombinedQuery> {
    (
        arb_group_by(),
        arb_split(),
        prop::option::of(arb_predicate()),
    )
        .prop_map(|(group_by, split, filter)| CombinedQuery {
            group_by,
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(3)),
                AggSpec::new(AggFunc::Sum, ColumnId(3)),
                AggSpec::new(AggFunc::Avg, ColumnId(4)),
                AggSpec::new(AggFunc::Min, ColumnId(3)),
                AggSpec::new(AggFunc::Max, ColumnId(4)),
            ],
            filter,
            split,
        })
        .boxed()
}
