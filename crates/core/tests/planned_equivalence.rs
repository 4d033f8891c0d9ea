//! End-to-end bit-identity of cost-based plan selection: whatever
//! execution shape the planner derives from table stats — worker count,
//! morsel size, bin-packed clusters with shared aggregates — the
//! recommendation it produces must be byte-for-byte the one a serial
//! whole-partition run computes, and every view's utility must be the
//! naive reference's (`engine/tests/naive`) over the rows the view saw.
//! The plan chooses *how* to execute, never *what*.
//!
//! This is the integration-level guarantee on top of the engine's
//! kernel-level equivalence proptests: it goes through the full
//! [`SeeDb::recommend`] stack (view enumeration, phased execution,
//! pruning, ranking), so a planner choice that leaked into results —
//! a lossy parallel merge, a worker-count-dependent phase boundary, a
//! dense-vs-hash index disagreement — fails here even if every kernel
//! is individually correct.

#[path = "../../engine/tests/naive/mod.rs"]
mod naive;

use proptest::prelude::*;
use seedb_core::view::enumerate_views;
use seedb_core::{
    phase_ranges, ExecutionStrategy, Knob, Predicate, Recommendation, ReferenceSpec, SeeDb,
    SeeDbConfig,
};
use seedb_engine::CmpOp;
use seedb_metrics::normalize;
use seedb_storage::{BoxedTable, ColumnDef, ColumnId, StoreKind, TableBuilder, Value};

/// One generated row: `(dim a, dim b, float measure, int measure)`;
/// `None` = NULL.
type Row = (Option<u8>, u8, Option<f64>, Option<i64>);

#[derive(Debug, Clone)]
struct Dataset {
    rows: Vec<Row>,
    partition_rows: usize,
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec(
            (
                prop::option::of(0u8..4),
                0u8..3,
                prop::option::of(-100.0f64..100.0),
                prop::option::of(-50i64..50),
            ),
            1..300,
        ),
        prop_oneof![Just(7usize), Just(64), Just(256), Just(usize::MAX)],
    )
        .prop_map(|(rows, partition_rows)| Dataset {
            rows,
            partition_rows,
        })
}

fn build(ds: &Dataset, kind: StoreKind) -> BoxedTable {
    let mut b = TableBuilder::new(vec![
        ColumnDef::dim("a"),
        ColumnDef::dim("b"),
        ColumnDef::measure("m"),
        ColumnDef::measure("n"),
    ])
    .with_partition_rows(ds.partition_rows);
    for (a, bb, m, n) in &ds.rows {
        b.push_row(&[
            a.map(|v| Value::str(format!("a{v}")))
                .unwrap_or(Value::Null),
            Value::str(format!("b{bb}")),
            m.map(Value::Float).unwrap_or(Value::Null),
            n.map(Value::Int).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    b.build(kind).unwrap()
}

/// Target predicates over the generated schema — selective, empty, and
/// whole-table shapes all occur, so the planner's estimated post-pruning
/// row volume (and therefore its worker choice) varies across cases.
fn arb_leaf() -> BoxedStrategy<Predicate> {
    prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        (0u32..4).prop_map(|code| Predicate::CatEq {
            col: ColumnId(0),
            code,
        }),
        (-80.0f64..80.0, 0usize..4).prop_map(|(value, op)| Predicate::NumCmp {
            col: ColumnId(2),
            op: [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op],
            value,
        }),
        (0u32..4).prop_map(|c| Predicate::IsNull { col: ColumnId(c) }),
    ]
    .boxed()
}

fn arb_target() -> BoxedStrategy<Predicate> {
    prop_oneof![
        4 => arb_leaf(),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::And),
        1 => prop::collection::vec(arb_leaf(), 0..3).prop_map(Predicate::Or),
    ]
    .boxed()
}

fn arb_reference() -> BoxedStrategy<ReferenceSpec> {
    prop_oneof![
        2 => Just(ReferenceSpec::WholeTable),
        2 => Just(ReferenceSpec::Complement),
        1 => arb_target().prop_map(ReferenceSpec::Query),
    ]
    .boxed()
}

fn arb_strategy() -> BoxedStrategy<ExecutionStrategy> {
    (0usize..ExecutionStrategy::ALL.len())
        .prop_map(|i| ExecutionStrategy::ALL[i])
        .boxed()
}

/// The projection compared across execution shapes: everything
/// result-bearing in a [`Recommendation`], with utilities compared by
/// bit pattern (not `==`, which would mask sign/NaN drift).
fn fingerprint(rec: &Recommendation) -> (Vec<(String, u64)>, Vec<u64>, usize) {
    (
        rec.views
            .iter()
            .map(|v| (format!("{:?}", v.spec), v.utility.to_bits()))
            .collect(),
        rec.all_utilities.iter().map(|u| u.to_bits()).collect(),
        rec.phases_executed,
    )
}

/// The naive reference's utility of every view over rows `0..end`, for
/// every phase prefix `end` a run under `config` can stop a view at.
fn reference_utilities(
    table: &BoxedTable,
    config: &SeeDbConfig,
    target: &Predicate,
    reference: &ReferenceSpec,
) -> Vec<Vec<u64>> {
    let n = table.num_rows();
    let mut ends = vec![n];
    if matches!(
        config.strategy,
        ExecutionStrategy::Comb | ExecutionStrategy::CombEarly
    ) {
        ends = phase_ranges(n, config.num_phases)
            .into_iter()
            .map(|r| r.end)
            .collect();
    }
    enumerate_views(table.as_ref(), &config.agg_functions)
        .iter()
        .map(|v| {
            let query = seedb_engine::CombinedQuery::single(
                v.dim,
                seedb_engine::AggSpec::new(v.func, v.measure),
                reference.to_split(target.clone()),
            );
            ends.iter()
                .map(|&end| {
                    let (t, r): (Vec<f64>, Vec<f64>) =
                        naive::naive_query(table.as_ref(), &query, 0..end)
                            .into_values()
                            .map(|(t, r)| (t[0].unwrap_or(0.0), r[0].unwrap_or(0.0)))
                            .unzip();
                    let u = if t.is_empty() {
                        0.0
                    } else {
                        config.metric.compute(&normalize(&t), &normalize(&r))
                    };
                    u.to_bits()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Auto-planned execution — and a spread of pinned knob shapes —
    /// must all reproduce the serial whole-partition run byte-for-byte,
    /// for every strategy, both stores, and arbitrary partition layouts;
    /// and that run's utilities must be the naive reference's.
    #[test]
    fn planned_execution_is_bit_identical(
        ds in arb_dataset(),
        target in arb_target(),
        reference in arb_reference(),
        strategy in arb_strategy(),
    ) {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let table = build(&ds, kind);

            // Baseline: serial, one unsplit scan per cluster.
            let mut serial_cfg = SeeDbConfig::for_strategy(strategy);
            serial_cfg.sharing.parallelism = Knob::Fixed(1);
            serial_cfg.sharing.morsel_rows = Knob::Fixed(usize::MAX);
            let serial = SeeDb::with_config(table.clone(), serial_cfg.clone())
                .recommend(&target, &reference)
                .unwrap();
            let want = fingerprint(&serial);

            // Each view's utility is the reference's over the full table
            // or, for the phased strategies, over some phase prefix (a
            // view stops at its pruning or early-stop phase).
            let prefixes = reference_utilities(&table, &serial_cfg, &target, &reference);
            for (id, (u, options)) in serial.all_utilities.iter().zip(&prefixes).enumerate() {
                let nan = u.is_nan() && options.iter().any(|b| f64::from_bits(*b).is_nan());
                prop_assert!(
                    nan || options.contains(&u.to_bits()),
                    "view {} utility {} is no reference prefix utility (strategy {:?}, {:?})",
                    id, u, strategy, kind
                );
            }

            // Auto knobs: the planner derives workers and morsel size
            // from stats; NO_OPT's preset pins workers at 1 by design,
            // so force both knobs back to Auto explicitly.
            let mut planned_cfg = SeeDbConfig::for_strategy(strategy);
            planned_cfg.sharing.parallelism = Knob::Auto;
            planned_cfg.sharing.morsel_rows = Knob::Auto;
            let planned = SeeDb::with_config(table.clone(), planned_cfg)
                .recommend(&target, &reference)
                .unwrap();
            prop_assert_eq!(
                &fingerprint(&planned), &want,
                "auto plan diverged from the serial run (strategy {:?}, {:?})",
                strategy, kind
            );

            // Pinned shapes the planner would not pick still agree.
            for (workers, morsel_rows) in [(3usize, 32usize), (8, 1024)] {
                let mut fixed_cfg = SeeDbConfig::for_strategy(strategy);
                fixed_cfg.sharing.parallelism = Knob::Fixed(workers);
                fixed_cfg.sharing.morsel_rows = Knob::Fixed(morsel_rows);
                let fixed = SeeDb::with_config(table.clone(), fixed_cfg)
                    .recommend(&target, &reference)
                    .unwrap();
                prop_assert_eq!(
                    &fingerprint(&fixed), &want,
                    "fixed ({}, {}) diverged from the serial run (strategy {:?}, {:?})",
                    workers, morsel_rows, strategy, kind
                );
            }
        }
    }
}
