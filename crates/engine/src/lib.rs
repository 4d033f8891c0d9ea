//! # seedb-engine
//!
//! The execution engine underneath SeeDB: grouped aggregation over the
//! storage substrate, plus the building blocks for the paper's
//! *sharing-based optimizations* (§4.1):
//!
//! * **Combine multiple aggregates** — a [`CombinedQuery`] carries any
//!   number of [`AggSpec`]s, all evaluated in one scan.
//! * **Combine multiple GROUP BYs** — a `CombinedQuery` may group by several
//!   dimension attributes at once; [`rollup`] recovers each
//!   single-attribute view from the multi-attribute result (COUNT/SUM/MIN/
//!   MAX/AVG all decompose losslessly because accumulators merge).
//!   [`binpack`] chooses which attributes to combine under a memory budget
//!   (Problem 4.1, first-fit over `log₂|aᵢ|` weights).
//! * **Combine target and reference view** — a [`SplitSpec`] classifies each
//!   scanned row as target and/or reference, so one scan feeds both sides
//!   of the deviation computation.
//! * **Parallel query execution** — a persistent scoped worker pool
//!   ([`parallel::with_pool`]) executes `(query, morsel)` work items
//!   ([`morsel::execute_morsels`]): every query's scan range splits into
//!   fixed-size morsels, workers aggregate thread-local partials, and
//!   [`PartialAggregation::merge`] folds them — bit-identically to a
//!   serial scan, because accumulator sums are exact
//!   (see [`Accumulator`]). [`parallel::run_parallel`] keeps the simple
//!   one-round fan-out API.
//!
//! Execution is *phase-aware*: a [`PartialAggregation`] accepts any number
//! of row ranges and can snapshot its state between ranges, which is exactly
//! what the phased pruning framework in `seedb-core` needs.
//!
//! There is one execution path: a batched kernel over the storage layer's
//! typed batches — selection bitmaps from [`BoundPredicate::eval_batch`],
//! group slots resolved once per batch through a dense dictionary-direct
//! or composite mixed-radix index (see [`DENSE_CARDINALITY_MAX`]), and
//! aggregate-outer loops over struct-of-arrays state (see [`hashagg`]).

// The naive reference the tests check the kernel against; it is written
// against the public API, so it names this crate by its package name.
#[cfg(test)]
extern crate self as seedb_engine;
#[cfg(test)]
#[path = "../tests/naive/mod.rs"]
mod naive;

pub mod agg;
pub mod binpack;
pub mod cost;
pub mod expr;
pub mod groupkey;
pub mod hashagg;
pub mod morsel;
pub mod parallel;
pub mod prune;
pub mod rollup;
pub mod spec;
pub mod stats;

pub use agg::{Accumulator, AggFunc};
pub use binpack::{first_fit, first_fit_decreasing, GroupingPlan};
pub use cost::{
    choose_group_index, choose_morsel_rows, choose_workers, estimate_scan, group_index_for,
    GroupIndexKind, ScanEstimate, ScanShape, PARALLEL_ROWS_MIN,
};
pub use expr::{BoundPredicate, CmpOp, Predicate};
pub use groupkey::GroupKey;
pub use hashagg::{execute_combined, PartialAggregation, DENSE_CARDINALITY_MAX};
pub use morsel::{execute_morsels, execute_morsels_traced, DEFAULT_MORSEL_ROWS};
pub use parallel::{with_pool, BudgetLease, CancelToken, Pool, WorkerBudget, WorkerProbes};
pub use prune::{contribution_predicate, pruned_scan, zone_match, PrunedScan};
pub use rollup::rollup;
pub use seedb_obs::TraceCtx;
pub use spec::{AggSpec, CombinedQuery, SplitSpec};
pub use stats::ExecStats;

/// Result of a grouped aggregation: one entry per observed group, sorted by
/// key for deterministic downstream consumption.
#[derive(Debug, Clone)]
pub struct GroupedResult {
    /// The grouping attributes this result is keyed by.
    pub group_by: Vec<seedb_storage::ColumnId>,
    /// Aggregate specs, in the order accumulators appear in each entry.
    pub aggregates: Vec<AggSpec>,
    /// Per-group accumulated state.
    pub groups: Vec<GroupEntry>,
}

/// One group's accumulated target and reference state.
#[derive(Debug, Clone)]
pub struct GroupEntry {
    /// Group key (one `u64` code per grouping attribute).
    pub key: GroupKey,
    /// Target-side accumulators, one per aggregate spec.
    pub target: Vec<Accumulator>,
    /// Reference-side accumulators, one per aggregate spec.
    pub reference: Vec<Accumulator>,
}

impl GroupedResult {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Extracts the aligned `(target, reference)` value vectors for
    /// aggregate `agg_idx`, with groups in key order. Groups where an AVG
    /// has no rows yield 0.0 — the normalization step treats missing mass
    /// as zero probability, matching the paper's treatment of absent groups.
    pub fn value_vectors(&self, agg_idx: usize) -> (Vec<f64>, Vec<f64>) {
        let func = self.aggregates[agg_idx].func;
        let mut t = Vec::with_capacity(self.groups.len());
        let mut r = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            t.push(g.target[agg_idx].finish(func).unwrap_or(0.0));
            r.push(g.reference[agg_idx].finish(func).unwrap_or(0.0));
        }
        (t, r)
    }
}
