//! Grouped aggregation with target/reference splitting.
//!
//! [`PartialAggregation`] is the phase-aware operator at the heart of the
//! engine: it can consume any number of row ranges (the phased framework
//! feeds it one partition per phase) and produce a consistent snapshot
//! after each. [`execute_combined`] is the one-shot convenience wrapper.
//!
//! There is one execution path, a batched kernel over
//! [`Table::scan_batches`]:
//!
//! 1. **Selection.** Predicates evaluate to per-batch target/reference
//!    selection bitmaps ([`BoundPredicate::eval_batch`]).
//! 2. **Slot resolution.** Every selected row's group slot is resolved
//!    once per batch into a reusable scratch vector. Lookups go through a
//!    **dense index** whenever the grouping domain fits
//!    [`DENSE_CARDINALITY_MAX`]: dictionary-direct for single-attribute
//!    group-bys, **mixed-radix composite** for bin-packed multi-GROUP-BY
//!    clusters (the radix slot is built column-at-a-time from the code
//!    slices — no `GroupKey` allocation, no hash probe per row). Stray
//!    codes spill to the hash map; non-categorical attributes and
//!    oversized domains keep the hash path.
//! 3. **Accumulation.** The aggregate is the outer loop and the selected
//!    rows the inner one, over the measure's hoisted typed slice. State is
//!    struct-of-arrays per (aggregate, side), indexed by slot, and holds
//!    only what the function needs ([`crate::agg`]).
//!
//! Partials ([`PartialAggregation::merge`]) fold exactly, so results are
//! bit-identical across phase partitions, batch boundaries and
//! morsel-parallel execution — a property the equivalence suites assert
//! against a naive row-at-a-time reference.

use crate::agg::AggColumn;
use crate::expr::BoundPredicate;
use crate::groupkey::GroupKey;
use crate::spec::{CombinedQuery, SplitSpec};
use crate::stats::ExecStats;
use crate::{GroupEntry, GroupedResult};
use rustc_hash::FxHashMap;
use seedb_storage::{Batch, BatchData, Bitmap, ColumnId, Table, DEFAULT_BATCH_SIZE};
use std::ops::Range;

/// Largest dictionary cardinality for which the engine uses the dense
/// dictionary-direct group index. Beyond this (64 Ki distinct values), a
/// mostly-empty dense table would waste more cache than the hash probes it
/// avoids, so the engine falls back to hashing. The decision rule itself
/// lives in [`crate::cost::choose_group_index`] so the planner's EXPLAIN
/// output reports the engine's literal choice.
pub use crate::cost::DENSE_CARDINALITY_MAX;
use crate::cost::{group_index_for, GroupIndexKind};

/// Split predicates bound to projection slots.
// Variant names deliberately mirror the public `SplitSpec` they are
// lowered from, paper terminology included.
#[allow(clippy::enum_variant_names)]
enum BoundSplit {
    TargetVsAll(BoundPredicate),
    TargetVsComplement(BoundPredicate),
    TargetVsQuery(BoundPredicate, BoundPredicate),
    TargetOnly(BoundPredicate),
}

impl BoundSplit {
    /// Fills per-row `target`/`reference` selection bitmaps for a batch.
    fn classify_batch(&self, batch: &Batch<'_>, target: &mut Bitmap, reference: &mut Bitmap) {
        let n = batch.len();
        match self {
            BoundSplit::TargetVsAll(p) => {
                p.eval_batch(batch, target);
                reference.reset(n, true);
            }
            BoundSplit::TargetVsComplement(p) => {
                p.eval_batch(batch, target);
                reference.copy_from(target);
                reference.invert();
            }
            BoundSplit::TargetVsQuery(t, r) => {
                t.eval_batch(batch, target);
                r.eval_batch(batch, reference);
            }
            BoundSplit::TargetOnly(p) => {
                p.eval_batch(batch, target);
                reference.reset(n, false);
            }
        }
    }
}

/// One grouping attribute's place in a composite (mixed-radix) dense
/// index: `base` radix values per attribute (dictionary cardinality + 1
/// for the NULL slot) and the attribute's positional `stride`.
#[derive(Debug, Clone, Copy)]
struct RadixDim {
    base: u64,
    stride: u64,
}

/// Marks a composite radix slot whose code tuple falls outside the planned
/// radix (far above any real slot: the composite domain is at most
/// `DENSE_CARDINALITY_MAX + 1`).
const STRAY: u64 = 1 << 63;

/// Sub-slot of a grouping code: NULL (`u64::MAX`) owns 0, code `c` owns
/// `c + 1`.
#[inline(always)]
fn sub_slot(code: u64) -> u64 {
    code.wrapping_add(1)
}

/// Group-index strategy, decided on the first batch.
enum DenseIndex {
    /// Not yet decided (no batch seen).
    Undecided,
    /// Hash lookups only (non-categorical attribute or cardinality above
    /// [`DENSE_CARDINALITY_MAX`]).
    Disabled,
    /// Single-attribute dictionary-direct index: `slots[code + 1]` holds
    /// `group slot + 1` (0 = group not yet observed); `slots[0]` is the
    /// NULL group's. Grows on demand for codes past the planning-time
    /// dictionary, up to the dense cap.
    Single { slots: Vec<u32> },
    /// Composite dense index for bin-packed multi-GROUP-BY clusters: the
    /// per-attribute codes are mixed-radix-encoded into one index
    /// (`Σ (codeᵢ + 1) · strideᵢ`, NULL = 0). Fixed-size — codes beyond an
    /// attribute's planned radix spill to the hash map.
    Composite {
        slots: Vec<u32>,
        dims: Vec<RadixDim>,
    },
}

/// Group slot lookup: the dense index plus the hash map that owns every
/// code tuple the dense index does not. The two key spaces are disjoint,
/// so a tuple always resolves to the same slot.
struct GroupIndex {
    dense: DenseIndex,
    map: FxHashMap<Box<[u64]>, u32>,
}

/// Group keys and aggregate state, indexed by dense group slot (the order
/// groups were first seen in).
struct GroupStore {
    keys: Vec<GroupKey>,
    target: Vec<AggColumn>,
    reference: Vec<AggColumn>,
}

impl GroupStore {
    fn new(query: &CombinedQuery) -> Self {
        let columns = || {
            query
                .aggregates
                .iter()
                .map(|a| AggColumn::new(a.func))
                .collect()
        };
        GroupStore {
            keys: Vec::new(),
            target: columns(),
            reference: columns(),
        }
    }

    /// Appends an empty group, returning its slot.
    fn push(&mut self, key: GroupKey) -> u32 {
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        for col in self.target.iter_mut().chain(&mut self.reference) {
            col.push_slot();
        }
        slot
    }

    /// One group's state as a [`GroupEntry`].
    fn entry(&self, slot: usize, key: GroupKey) -> GroupEntry {
        GroupEntry {
            key,
            target: self.target.iter().map(|c| c.accumulator(slot)).collect(),
            reference: self.reference.iter().map(|c| c.accumulator(slot)).collect(),
        }
    }
}

/// Resolves dense-index entry `cell` (`slot + 1`, 0 = unseen) to a group
/// slot, creating the group with `key()` on first sight.
#[inline(always)]
fn dense_entry(cell: &mut u32, store: &mut GroupStore, key: impl FnOnce() -> GroupKey) -> u32 {
    match *cell {
        0 => {
            let slot = store.push(key());
            *cell = slot + 1;
            slot
        }
        v => v - 1,
    }
}

impl GroupIndex {
    /// Slot of the group with per-attribute `codes`, creating it if new.
    /// Routes through the dense index exactly as the batch kernel does, so
    /// merged partials and scanned rows agree on ownership.
    fn resolve(&mut self, codes: &[u64], store: &mut GroupStore) -> u32 {
        let key = || GroupKey::from_codes(codes);
        match &mut self.dense {
            DenseIndex::Single { slots } => {
                let si = sub_slot(codes[0]) as usize;
                if si <= DENSE_CARDINALITY_MAX + 1 {
                    if si >= slots.len() {
                        // A code beyond the planning-time dictionary (e.g.
                        // a different table instance): grow, bounded by
                        // the dense cardinality cap.
                        slots.resize(si + 1, 0);
                    }
                    return dense_entry(&mut slots[si], store, key);
                }
            }
            DenseIndex::Composite { slots, dims } => {
                let mut si = 0u64;
                let mut stray = false;
                for (d, &code) in dims.iter().zip(codes) {
                    let sub = sub_slot(code);
                    stray |= sub >= d.base;
                    si = si.wrapping_add(sub.wrapping_mul(d.stride));
                }
                if !stray {
                    return dense_entry(&mut slots[si as usize], store, key);
                }
            }
            DenseIndex::Disabled | DenseIndex::Undecided => {}
        }
        if let Some(&slot) = self.map.get(codes) {
            return slot;
        }
        let slot = store.push(key());
        self.map.insert(codes.into(), slot);
        slot
    }
}

/// Per-batch scratch, reused across batches and updates.
#[derive(Default)]
struct Scratch {
    target: Bitmap,
    reference: Bitmap,
    filter: Bitmap,
    /// Group slot of every selected row, indexed by row within the batch.
    slots: Vec<u32>,
    /// Composite radix index of every row (`STRAY`-tagged when a code falls
    /// outside its planned radix).
    radix: Vec<u64>,
    /// One row's grouping codes (hash and stray lookups).
    codes: Vec<u64>,
}

/// Resumable grouped aggregation over a [`CombinedQuery`].
pub struct PartialAggregation {
    query: CombinedQuery,
    projection: Vec<ColumnId>,
    group_slots: Vec<usize>,
    measure_slots: Vec<usize>,
    filter: Option<BoundPredicate>,
    split: BoundSplit,
    index: GroupIndex,
    store: GroupStore,
    scratch: Scratch,
    rows_consumed: u64,
    target_rows: u64,
}

impl PartialAggregation {
    /// Plans the projection and binds predicates for `query`.
    pub fn new(query: CombinedQuery) -> Self {
        // Projection = group-by columns ++ measure columns ++ predicate
        // columns, deduplicated in that order.
        let mut projection: Vec<ColumnId> = Vec::new();
        let push = |c: ColumnId, projection: &mut Vec<ColumnId>| {
            if !projection.contains(&c) {
                projection.push(c);
            }
        };
        for &c in &query.group_by {
            push(c, &mut projection);
        }
        for a in &query.aggregates {
            push(a.measure, &mut projection);
        }
        let mut pred_cols = Vec::new();
        if let Some(f) = &query.filter {
            f.collect_columns(&mut pred_cols);
        }
        for p in query.split.predicates() {
            p.collect_columns(&mut pred_cols);
        }
        for c in pred_cols {
            push(c, &mut projection);
        }

        let slot_of = |col: ColumnId| -> usize {
            projection
                .iter()
                .position(|&c| c == col)
                .expect("column present in projection by construction")
        };
        let group_slots: Vec<usize> = query.group_by.iter().map(|&c| slot_of(c)).collect();
        let measure_slots: Vec<usize> = query
            .aggregates
            .iter()
            .map(|a| slot_of(a.measure))
            .collect();
        let filter = query.filter.as_ref().map(|f| f.bind(&slot_of));
        let split = match &query.split {
            SplitSpec::TargetVsAll(p) => BoundSplit::TargetVsAll(p.bind(&slot_of)),
            SplitSpec::TargetVsComplement(p) => BoundSplit::TargetVsComplement(p.bind(&slot_of)),
            SplitSpec::TargetVsQuery { target, reference } => {
                BoundSplit::TargetVsQuery(target.bind(&slot_of), reference.bind(&slot_of))
            }
            SplitSpec::TargetOnly(p) => BoundSplit::TargetOnly(p.bind(&slot_of)),
        };

        PartialAggregation {
            store: GroupStore::new(&query),
            query,
            projection,
            group_slots,
            measure_slots,
            filter,
            split,
            index: GroupIndex {
                dense: DenseIndex::Undecided,
                map: FxHashMap::default(),
            },
            scratch: Scratch::default(),
            rows_consumed: 0,
            target_rows: 0,
        }
    }

    /// The query this aggregation executes.
    pub fn query(&self) -> &CombinedQuery {
        &self.query
    }

    /// Total rows consumed so far (across all `update` calls).
    pub fn rows_consumed(&self) -> u64 {
        self.rows_consumed
    }

    /// Rows so far that were classified as target rows.
    pub fn target_rows(&self) -> u64 {
        self.target_rows
    }

    /// Number of groups currently maintained (the memory-budget quantity).
    pub fn num_groups(&self) -> usize {
        self.store.keys.len()
    }

    /// Picks the group index on the first batch:
    ///
    /// * one categorical attribute of cardinality ≤
    ///   [`DENSE_CARDINALITY_MAX`] → the growable single-attribute
    ///   dictionary-direct index;
    /// * several attributes, all dictionary-encoded, whose mixed-radix
    ///   domain `Π (|aᵢ| + 1)` fits the dense cap → the composite
    ///   dense index (the bin-packed cluster case: the §4.1 memory budget
    ///   already bounds `Π |aᵢ|`, so packed clusters qualify whenever the
    ///   budget is within the cap);
    /// * anything else → hash lookups.
    fn ensure_group_index(&mut self, table: &dyn Table) {
        if !matches!(self.index.dense, DenseIndex::Undecided) {
            return;
        }
        // The dense-vs-hash decision is the cost model's — the planner
        // calls the same function, so EXPLAIN can never disagree with what
        // actually runs. This method only materializes the chosen index.
        let card = |col: ColumnId| {
            table
                .dictionary(col)
                .expect("a dense index implies dictionaries")
                .len()
        };
        self.index.dense = match group_index_for(table, &self.query.group_by) {
            GroupIndexKind::DenseSingle => DenseIndex::Single {
                slots: vec![0; card(self.query.group_by[0]) + 1],
            },
            GroupIndexKind::DenseComposite => {
                // Last attribute varies fastest (row-major radix layout);
                // the final stride is the full domain Π (|aᵢ| + 1).
                let mut dims = vec![RadixDim { base: 0, stride: 0 }; self.query.group_by.len()];
                let mut stride = 1u64;
                for (i, &col) in self.query.group_by.iter().enumerate().rev() {
                    let base = card(col) as u64 + 1; // + NULL slot
                    dims[i] = RadixDim { base, stride };
                    stride *= base;
                }
                DenseIndex::Composite {
                    slots: vec![0; stride as usize],
                    dims,
                }
            }
            GroupIndexKind::Hash => DenseIndex::Disabled,
        };
    }

    /// Consumes rows `range` of `table` batch by batch, updating the
    /// aggregate state and `stats`.
    pub fn update(&mut self, table: &dyn Table, range: Range<usize>, stats: &mut ExecStats) {
        let proj_width = self.projection.len();
        let start = range.start.min(table.num_rows());
        let end = range.end.min(table.num_rows());
        self.ensure_group_index(table);

        let mut rows = 0u64;
        let mut target_rows = 0u64;
        let projection = std::mem::take(&mut self.projection);
        table.scan_batches(&projection, start..end, DEFAULT_BATCH_SIZE, &mut |batch| {
            rows += batch.len() as u64;
            target_rows += self.update_batch(batch);
        });
        self.projection = projection;

        self.rows_consumed += rows;
        self.target_rows += target_rows;
        stats.scan_passes += 1;
        stats.rows_scanned += rows;
        stats.cells_visited += rows * proj_width as u64;
        stats.groups_max = stats.groups_max.max(self.num_groups() as u64);
    }

    /// The kernel for one batch; returns the number of target rows.
    fn update_batch(&mut self, batch: &Batch<'_>) -> u64 {
        let sc = &mut self.scratch;
        self.split
            .classify_batch(batch, &mut sc.target, &mut sc.reference);
        if let Some(f) = &self.filter {
            f.eval_batch(batch, &mut sc.filter);
            sc.target.and_assign(&sc.filter);
            sc.reference.and_assign(&sc.filter);
        }
        let n = batch.len();
        sc.slots.resize(n, 0);
        resolve_slots(
            batch,
            &self.group_slots,
            &mut self.index,
            &mut self.store,
            sc,
        );

        // Aggregate-outer, row-inner: each aggregate walks its side's
        // selection over the measure's hoisted typed slice.
        let store = &mut self.store;
        for (agg, &slot) in self.measure_slots.iter().enumerate() {
            let col = *batch.column(slot);
            let sides = [
                (&mut store.target[agg], &sc.target),
                (&mut store.reference[agg], &sc.reference),
            ];
            for (state, selection) in sides {
                match (col.data, col.validity) {
                    (BatchData::Float(v), None) => {
                        state.update(selection.words(), &sc.slots, |i| Some(v[i]))
                    }
                    _ => state.update(selection.words(), &sc.slots, |i| col.value_f64(i)),
                }
            }
        }
        sc.target.count_ones() as u64
    }

    /// Folds another partial aggregation of the **same plan** (query shape)
    /// into this one, merging per-group state. Because state merges
    /// exactly (see [`crate::Accumulator::merge`]), folding morsel partials
    /// — in any order — produces results bit-identical to a single serial
    /// scan; the morsel scheduler still folds in ascending first-morsel
    /// order for deterministic group discovery.
    ///
    /// # Panics
    /// Debug-asserts that both sides execute the same group-by and
    /// aggregate list.
    pub fn merge(&mut self, other: PartialAggregation) {
        debug_assert_eq!(self.query.group_by, other.query.group_by, "plan mismatch");
        debug_assert_eq!(
            self.query.aggregates, other.query.aggregates,
            "plan mismatch"
        );
        self.rows_consumed += other.rows_consumed;
        self.target_rows += other.target_rows;
        if self.store.keys.is_empty() && matches!(self.index.dense, DenseIndex::Undecided) {
            // This side never consumed a batch: adopt the other side's
            // state wholesale (index structure included).
            self.index = other.index;
            self.store = other.store;
            return;
        }
        let codes = &mut self.scratch.codes;
        for (src, key) in other.store.keys.iter().enumerate() {
            codes.clear();
            codes.extend((0..key.arity()).map(|i| key.code(i)));
            let dst = self.index.resolve(codes, &mut self.store) as usize;
            let sides = self
                .store
                .target
                .iter_mut()
                .zip(&other.store.target)
                .chain(self.store.reference.iter_mut().zip(&other.store.reference));
            for (mine, theirs) in sides {
                mine.merge_slot(dst, theirs, src);
            }
        }
    }

    /// Clones the current state into a sorted [`GroupedResult`].
    pub fn snapshot(&self) -> GroupedResult {
        let groups = (self.store.keys.iter().enumerate())
            .map(|(slot, key)| self.store.entry(slot, key.clone()))
            .collect();
        self.result(groups)
    }

    /// Consumes the aggregation, producing the final sorted result.
    pub fn finalize(mut self) -> GroupedResult {
        let keys = std::mem::take(&mut self.store.keys);
        let groups = (keys.into_iter().enumerate())
            .map(|(slot, key)| self.store.entry(slot, key))
            .collect();
        self.result(groups)
    }

    fn result(&self, mut groups: Vec<GroupEntry>) -> GroupedResult {
        groups.sort_by(|a, b| a.key.cmp(&b.key));
        GroupedResult {
            group_by: self.query.group_by.clone(),
            aggregates: self.query.aggregates.clone(),
            groups,
        }
    }
}

/// Resolves the group slot of every row selected on either side into
/// `sc.slots`, creating groups in ascending row order.
fn resolve_slots(
    batch: &Batch<'_>,
    group_slots: &[usize],
    index: &mut GroupIndex,
    store: &mut GroupStore,
    sc: &mut Scratch,
) {
    let n = batch.len();
    let row_codes = |i: usize, codes: &mut Vec<u64>| {
        codes.clear();
        codes.extend(group_slots.iter().map(|&s| batch.column(s).group_code(i)));
    };
    // Column-at-a-time composite radix index, over every row (cheaper than
    // testing the selection first).
    if let DenseIndex::Composite { dims, .. } = &index.dense {
        sc.radix.clear();
        sc.radix.resize(n, 0);
        for (d, &s) in dims.iter().zip(group_slots) {
            let col = batch.column(s);
            let add = |acc: &mut u64, code: u64| {
                let sub = sub_slot(code);
                *acc = if sub < d.base {
                    *acc + sub * d.stride
                } else {
                    *acc | STRAY
                };
            };
            match (col.data, col.validity) {
                (BatchData::Cat(v), None) => {
                    for (acc, &c) in sc.radix.iter_mut().zip(v) {
                        add(acc, c as u64);
                    }
                }
                _ => {
                    for (i, acc) in sc.radix.iter_mut().enumerate() {
                        add(acc, col.group_code(i));
                    }
                }
            }
        }
    }
    let single = match (&index.dense, group_slots) {
        (DenseIndex::Single { .. }, [s]) => Some(*batch.column(*s)),
        _ => None,
    };
    let words = sc.target.words().iter().zip(sc.reference.words());
    for (w, (&tw, &rw)) in words.enumerate() {
        let mut any = tw | rw;
        while any != 0 {
            let i = (w << 6) | any.trailing_zeros() as usize;
            any &= any - 1;
            let slot = match &mut index.dense {
                DenseIndex::Composite { slots, .. } if sc.radix[i] & STRAY == 0 => {
                    dense_entry(&mut slots[sc.radix[i] as usize], store, || {
                        row_codes(i, &mut sc.codes);
                        GroupKey::from_codes(&sc.codes)
                    })
                }
                DenseIndex::Single { slots } => {
                    let gcol = single.expect("single index has one column");
                    let code = match gcol.data {
                        BatchData::Cat(v) if gcol.validity.is_none() => v[i] as u64,
                        _ => gcol.group_code(i),
                    };
                    let si = sub_slot(code) as usize;
                    if si < slots.len() {
                        dense_entry(&mut slots[si], store, || GroupKey::One(code))
                    } else {
                        index.resolve(&[code], store)
                    }
                }
                _ => {
                    row_codes(i, &mut sc.codes);
                    index.resolve(&sc.codes, store)
                }
            };
            sc.slots[i] = slot;
        }
    }
}

/// Executes `query` over the whole table in a single pass.
pub fn execute_combined(
    table: &dyn Table,
    query: &CombinedQuery,
    stats: &mut ExecStats,
) -> GroupedResult {
    stats.queries_issued += 1;
    let mut agg = PartialAggregation::new(query.clone());
    agg.update(table, 0..table.num_rows(), stats);
    agg.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::Predicate;
    use crate::naive::{check, naive_query};
    use crate::spec::AggSpec;
    use seedb_storage::{
        BoxedTable, ColumnDef, ColumnRole, ColumnType, StoreKind, TableBuilder, Value,
    };

    /// sex | marital | gain
    fn census_mini(kind: StoreKind) -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("sex"),
            ColumnDef::dim("marital"),
            ColumnDef::new("gain", ColumnType::Float64, ColumnRole::Measure),
        ]);
        let rows = [
            ("F", "unmarried", 500.0),
            ("M", "unmarried", 480.0),
            ("F", "married", 300.0),
            ("M", "married", 700.0),
            ("F", "unmarried", 520.0),
            ("M", "married", 660.0),
        ];
        for (s, m, g) in rows {
            b.push_row(&[Value::str(s), Value::str(m), Value::Float(g)])
                .unwrap();
        }
        b.build(kind).unwrap()
    }

    fn unmarried(table: &dyn Table) -> Predicate {
        Predicate::col_eq_str(table, "marital", "unmarried")
    }

    #[test]
    fn count_group_by_whole_table() {
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = census_mini(kind);
            let q = CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                SplitSpec::TargetOnly(Predicate::True),
            );
            let mut stats = ExecStats::default();
            let r = execute_combined(t.as_ref(), &q, &mut stats);
            assert_eq!(r.num_groups(), 2);
            // F interned first => code 0 sorts first.
            let (target, _) = r.value_vectors(0);
            assert_eq!(target, vec![3.0, 3.0]);
            assert_eq!(stats.queries_issued, 1);
            assert_eq!(stats.rows_scanned, 6);
        }
    }

    #[test]
    fn avg_with_target_vs_all_split() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsAll(unmarried(t.as_ref())),
        );
        let mut stats = ExecStats::default();
        let r = execute_combined(t.as_ref(), &q, &mut stats);
        let (target, reference) = r.value_vectors(0);
        // Target (unmarried): F avg = (500+520)/2 = 510, M = 480.
        assert_eq!(target, vec![510.0, 480.0]);
        // Reference (all rows): F avg = (500+300+520)/3 = 440, M = (480+700+660)/3.
        assert!((reference[0] - 440.0).abs() < 1e-9);
        assert!((reference[1] - (480.0 + 700.0 + 660.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn complement_split_partitions_rows() {
        let t = census_mini(StoreKind::Row);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetVsComplement(unmarried(t.as_ref())),
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        let (target, reference) = r.value_vectors(0);
        // Unmarried: F=2, M=1. Married: F=1, M=2.
        assert_eq!(target, vec![2.0, 1.0]);
        assert_eq!(reference, vec![1.0, 2.0]);
        // Target + complement = whole table.
        assert_eq!(
            target.iter().sum::<f64>() + reference.iter().sum::<f64>(),
            t.num_rows() as f64
        );
    }

    #[test]
    fn target_vs_query_split() {
        let t = census_mini(StoreKind::Column);
        let married = Predicate::col_eq_str(t.as_ref(), "marital", "married");
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsQuery {
                target: unmarried(t.as_ref()),
                reference: married,
            },
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        let (target, reference) = r.value_vectors(0);
        assert_eq!(target, vec![510.0, 480.0]);
        assert_eq!(reference, vec![300.0, 680.0]);
    }

    #[test]
    fn multiple_aggregates_in_one_scan() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, ColumnId(2)),
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Max, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let mut stats = ExecStats::default();
        let r = execute_combined(t.as_ref(), &q, &mut stats);
        assert_eq!(stats.scan_passes, 1); // all three aggregates in one pass
        let (count, _) = r.value_vectors(0);
        let (sum, _) = r.value_vectors(1);
        let (max, _) = r.value_vectors(2);
        assert_eq!(count, vec![3.0, 3.0]);
        assert_eq!(sum, vec![1320.0, 1840.0]);
        assert_eq!(max, vec![520.0, 700.0]);
    }

    #[test]
    fn multi_group_by_maintains_cross_product_groups() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        assert_eq!(r.num_groups(), 4); // (F,M) × (unmarried,married)
    }

    #[test]
    fn filter_restricts_scan() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery {
            group_by: vec![ColumnId(0)],
            aggregates: vec![AggSpec::new(AggFunc::Count, ColumnId(2))],
            filter: Some(Predicate::col_eq_str(t.as_ref(), "sex", "F")),
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        assert_eq!(r.num_groups(), 1);
        let (target, _) = r.value_vectors(0);
        assert_eq!(target, vec![3.0]);
    }

    #[test]
    fn empty_target_selection_yields_empty_target_side() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(2)),
            SplitSpec::TargetVsAll(Predicate::False),
        );
        let r = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
        // Groups exist (reference side saw rows) but target accumulators are empty.
        assert_eq!(r.num_groups(), 2);
        let (target, reference) = r.value_vectors(0);
        assert_eq!(target, vec![0.0, 0.0]); // AVG of empty -> None -> 0.0
        assert!(reference.iter().all(|&x| x > 0.0));
    }

    /// Feeds `small` then `big` into one aggregation planned against
    /// `small`, and checks it against the reference over both tables:
    /// `COUNT`/`SUM` of these integral-and-a-half values add exactly.
    fn check_two_tables(q: &CombinedQuery, small: &dyn Table, big: &dyn Table) {
        let mut agg = PartialAggregation::new(q.clone());
        let mut stats = ExecStats::default();
        agg.update(small, 0..small.num_rows(), &mut stats);
        agg.update(big, 0..big.num_rows(), &mut stats);
        let mut want = naive_query(small, q, 0..small.num_rows());
        for (key, (t, r)) in naive_query(big, q, 0..big.num_rows()) {
            let add = |a: &mut Vec<Option<f64>>, b: Vec<Option<f64>>| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x = Some(x.unwrap_or(0.0) + y.unwrap_or(0.0));
                }
            };
            match want.get_mut(&key) {
                Some((wt, wr)) => {
                    add(wt, t);
                    add(wr, r);
                }
                None => {
                    want.insert(key, (t, r));
                }
            }
        }
        check(&agg.finalize(), &want).unwrap();
    }

    #[test]
    fn dense_index_overflow_codes_spill_to_hash() {
        // Plan the dense index against a tiny dictionary, then feed a table
        // whose dictionary codes run past DENSE_CARDINALITY_MAX: the stray
        // codes must spill into the hash map (bounding the dense table's
        // growth at the cap) while producing exactly the reference result.
        let build_with_card = |card: usize| -> BoxedTable {
            let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")]);
            for i in 0..card {
                b.push_row(&[Value::str(format!("v{i}")), Value::Float(1.0)])
                    .unwrap();
            }
            b.build(StoreKind::Column).unwrap()
        };
        let small = build_with_card(2);
        let big = build_with_card(DENSE_CARDINALITY_MAX + 40);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(1)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        check_two_tables(&q, small.as_ref(), big.as_ref());
    }

    #[test]
    fn composite_dense_matches_reference_for_multi_group_by() {
        // sex × marital fits the mixed-radix dense cap easily, so the
        // kernel uses the composite index.
        for kind in [StoreKind::Row, StoreKind::Column] {
            let t = census_mini(kind);
            let q = CombinedQuery {
                group_by: vec![ColumnId(0), ColumnId(1)],
                aggregates: vec![
                    AggSpec::new(AggFunc::Avg, ColumnId(2)),
                    AggSpec::new(AggFunc::Sum, ColumnId(2)),
                ],
                filter: None,
                split: SplitSpec::TargetVsComplement(unmarried(t.as_ref())),
            };
            let got = execute_combined(t.as_ref(), &q, &mut ExecStats::default());
            assert_eq!(got.num_groups(), 4);
            check(&got, &naive_query(t.as_ref(), &q, 0..t.num_rows())).unwrap();
        }
    }

    #[test]
    fn composite_dense_stray_codes_spill_to_hash() {
        // Plan the composite index against tiny dictionaries, then feed a
        // table whose codes exceed the planned radix on both attributes:
        // the strays must spill to the hash map while matching the
        // reference exactly.
        let build = |card_a: usize, card_b: usize| -> BoxedTable {
            let mut b = TableBuilder::new(vec![
                ColumnDef::dim("a"),
                ColumnDef::dim("b"),
                ColumnDef::measure("m"),
            ]);
            let rows = card_a.max(card_b);
            for i in 0..rows {
                b.push_row(&[
                    Value::str(format!("a{}", i % card_a)),
                    Value::str(format!("b{}", i % card_b)),
                    Value::Float(i as f64 + 0.5),
                ])
                .unwrap();
            }
            b.build(StoreKind::Column).unwrap()
        };
        let q = CombinedQuery {
            group_by: vec![ColumnId(0), ColumnId(1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Sum, ColumnId(2)),
                AggSpec::new(AggFunc::Count, ColumnId(2)),
            ],
            filter: None,
            split: SplitSpec::TargetVsAll(Predicate::True),
        };
        check_two_tables(&q, build(2, 2).as_ref(), build(9, 5).as_ref());
    }

    #[test]
    fn merge_into_untouched_partial_adopts_state() {
        let t = census_mini(StoreKind::Column);
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(2)),
            SplitSpec::TargetVsAll(Predicate::True),
        );
        let mut full = PartialAggregation::new(q.clone());
        full.update(t.as_ref(), 0..6, &mut ExecStats::default());
        let mut empty = PartialAggregation::new(q);
        empty.merge(full);
        assert_eq!(empty.rows_consumed(), 6);
        let (target, _) = empty.finalize().value_vectors(0);
        assert_eq!(target, vec![3.0, 3.0]);
    }
}
