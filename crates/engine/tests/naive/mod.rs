//! The naive reference the equivalence suites check the engine against:
//! one GROUP BY evaluated row at a time into a `BTreeMap`, every value of
//! a group kept, and each aggregate finished from the full value list with
//! an exact sum written independently of the engine's.
//!
//! Shared by the engine's and core's tests (`#[path]`-included); it is not
//! part of any library.

#![allow(dead_code)]

use seedb_engine::{AggFunc, AggSpec, CombinedQuery, GroupKey, GroupedResult, SplitSpec};
use seedb_storage::{Cell, ColumnId, Table};
use std::collections::BTreeMap;
use std::ops::Range;

/// Finished values of every aggregate of one group: `(target, reference)`,
/// in aggregate order. `None` = no defined value (AVG/MIN/MAX of nothing).
pub type Sides = (Vec<Option<f64>>, Vec<Option<f64>>);

/// A reference result: every group's finished values, in key order.
pub type Groups = BTreeMap<GroupKey, Sides>;

/// Evaluates `query` over `rows` of `table`, row at a time.
pub fn naive_query(table: &dyn Table, query: &CombinedQuery, rows: Range<usize>) -> Groups {
    let slot = |c: ColumnId| c.index();
    let filter = query.filter.as_ref().map(|f| f.bind(&slot));
    let (target, reference) = match &query.split {
        SplitSpec::TargetVsAll(p) => (p.bind(&slot), None),
        SplitSpec::TargetVsComplement(p) => (p.bind(&slot), None),
        SplitSpec::TargetVsQuery { target, reference } => {
            (target.bind(&slot), Some(reference.bind(&slot)))
        }
        SplitSpec::TargetOnly(p) => (p.bind(&slot), None),
    };
    let n_aggs = query.aggregates.len();
    let mut values: BTreeMap<GroupKey, [Vec<Vec<f64>>; 2]> = BTreeMap::new();
    for row in rows.start..rows.end.min(table.num_rows()) {
        let cells: Vec<Cell> = (0..table.schema().len())
            .map(|c| table.cell(row, ColumnId(c as u32)))
            .collect();
        if filter.as_ref().is_some_and(|f| !f.eval(&cells)) {
            continue;
        }
        let is_t = target.eval(&cells);
        let is_r = match (&query.split, &reference) {
            (SplitSpec::TargetVsAll(_), _) => true,
            (SplitSpec::TargetVsComplement(_), _) => !is_t,
            (_, Some(r)) => r.eval(&cells),
            _ => false,
        };
        if !is_t && !is_r {
            continue;
        }
        let codes: Vec<u64> = query
            .group_by
            .iter()
            .map(|c| cells[c.index()].group_code())
            .collect();
        let group = values
            .entry(GroupKey::from_codes(&codes))
            .or_insert_with(|| [vec![Vec::new(); n_aggs], vec![Vec::new(); n_aggs]]);
        for (a, spec) in query.aggregates.iter().enumerate() {
            if let Some(x) = cells[spec.measure.index()].as_f64() {
                for (side, selected) in [is_t, is_r].into_iter().enumerate() {
                    if selected {
                        group[side][a].push(x);
                    }
                }
            }
        }
    }
    let finish_all = |side: &[Vec<f64>]| -> Vec<Option<f64>> {
        (query.aggregates.iter().zip(side))
            .map(|(spec, xs)| finish(spec.func, xs))
            .collect()
    };
    values
        .into_iter()
        .map(|(key, [t, r])| (key, (finish_all(&t), finish_all(&r))))
        .collect()
}

/// One view's aligned `(target, reference)` value vectors over the whole
/// table, groups in key order, undefined values as 0 — the vectors a
/// view's utility is computed from.
pub fn view_vectors(
    table: &dyn Table,
    dim: ColumnId,
    func: AggFunc,
    measure: ColumnId,
    split: SplitSpec,
) -> (Vec<f64>, Vec<f64>) {
    let query = CombinedQuery::single(dim, AggSpec::new(func, measure), split);
    naive_query(table, &query, 0..table.num_rows())
        .into_values()
        .map(|(t, r)| (t[0].unwrap_or(0.0), r[0].unwrap_or(0.0)))
        .unzip()
}

/// Checks an engine result against the reference: same groups in the same
/// order, every finished value equal bit for bit (any NaN equals any NaN).
pub fn check(result: &GroupedResult, want: &Groups) -> Result<(), String> {
    if result.num_groups() != want.len() {
        return Err(format!(
            "{} groups, reference has {}",
            result.num_groups(),
            want.len()
        ));
    }
    let same = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(x), Some(y)) => x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
        (None, None) => true,
        _ => false,
    };
    for (g, (key, (t, r))) in result.groups.iter().zip(want) {
        if &g.key != key {
            return Err(format!("group key {:?}, reference {key:?}", g.key));
        }
        for (a, spec) in result.aggregates.iter().enumerate() {
            let got = (
                g.target[a].finish(spec.func),
                g.reference[a].finish(spec.func),
            );
            if !same(got.0, t[a]) || !same(got.1, r[a]) {
                return Err(format!(
                    "group {key:?} {} of column {}: engine {got:?}, reference {:?}",
                    spec.func,
                    spec.measure.0,
                    (t[a], r[a])
                ));
            }
        }
    }
    Ok(())
}

fn finish(func: AggFunc, xs: &[f64]) -> Option<f64> {
    let defined = !xs.is_empty();
    match func {
        AggFunc::Count => Some(xs.len() as f64),
        AggFunc::Sum => Some(exact_sum(xs)),
        AggFunc::Avg => defined.then(|| exact_sum(xs) / xs.len() as f64),
        AggFunc::Min => defined.then(|| {
            xs.iter()
                .fold(f64::INFINITY, |m, &x| if x < m { x } else { m })
        }),
        AggFunc::Max => defined.then(|| {
            xs.iter()
                .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m })
        }),
    }
}

/// The correctly rounded sum of `xs` (Shewchuk's msum with the `fsum`
/// half-even correction). NaN, or both infinities, give NaN; one-sided
/// infinities saturate.
pub fn exact_sum(xs: &[f64]) -> f64 {
    let pos = xs.contains(&f64::INFINITY);
    let neg = xs.contains(&f64::NEG_INFINITY);
    if xs.iter().any(|x| x.is_nan()) || (pos && neg) {
        return f64::NAN;
    }
    if pos || neg {
        return if pos {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    let mut partials: Vec<f64> = Vec::new();
    for &v in xs {
        let mut x = v;
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        partials.truncate(kept);
        partials.push(x);
    }
    let Some(mut hi) = partials.pop() else {
        return 0.0;
    };
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if let Some(&next) = partials.last() {
        if (lo < 0.0 && next < 0.0) || (lo > 0.0 && next > 0.0) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
    }
    hi
}
