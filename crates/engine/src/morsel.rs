//! Morsel-driven intra-query parallelism (Leis et al., SIGMOD 2014) over
//! the storage layer's partition directory.
//!
//! The coarse unit of SeeDB parallelism — one worker per query cluster —
//! collapses exactly when the sharing optimizer works best: the all-sharing
//! configuration bin-packs every view into a handful of clusters, leaving
//! most workers idle. This module plans each query's scan with
//! [`crate::prune::pruned_scan`] — the **partition** is the unit of work
//! distribution: zone-map-pruned partitions are dropped before any worker
//! runs, and each surviving partition is split into fixed-size,
//! partition-aligned **morsels** ([`seedb_storage::morsel_ranges`]). The
//! per-job morsel lists are flattened into one job-major item space and
//! scheduled over a shared worker pool ([`crate::parallel::Pool`]): every
//! worker aggregates the morsels it claims into a **thread-local
//! [`PartialAggregation`]** per job, and the partials are folded
//! deterministically — ascending first-item order — once the pool drains.
//!
//! Because accumulators merge exactly (order-invariant sums, see
//! [`crate::Accumulator`]) and pruning only drops partitions whose rows
//! provably create no group entry, the folded result is **bit-identical**
//! to a serial unpartitioned scan of the same range, for every
//! `(worker count, morsel size, partition size)` combination.

use crate::cost::ScanShape;
use crate::parallel::{CancelToken, Pool, WorkerProbes};
use crate::prune::{pruned_scan, PrunedScan};
use crate::spec::CombinedQuery;
use crate::stats::ExecStats;
use crate::{GroupedResult, PartialAggregation};
use seedb_obs::TraceCtx;
use seedb_storage::Table;
use seedb_util::PLock;
use std::ops::Range;

pub use seedb_storage::DEFAULT_MORSEL_ROWS;

/// One worker's partial state for one job.
struct WorkerPartial {
    /// Global index of the first work item this worker claimed for the job
    /// — the deterministic fold key (workers claim items in ascending
    /// order, so this is also the smallest).
    first_item: usize,
    agg: PartialAggregation,
    stats: ExecStats,
}

/// Executes every query in `queries` over rows `range` of `table`,
/// morsel-parallel across `pool`, returning one `(result, stats)` pair per
/// query in input order. The scan's physical shape — its morsel size —
/// comes in as a [`ScanShape`], the engine-facing slice of
/// the planner's physical plan. Each query's scan is planned
/// independently: partitions whose zone maps prove the query can match no
/// row are pruned up front (tallied in `partitions_pruned`), and the
/// survivors are carved into partition-aligned morsels. Results are
/// bit-identical to running each query serially over the same range
/// without partitioning, regardless of pool size, morsel size, or the
/// table's partition size.
///
/// Each query counts as one issued query in its stats; `scan_passes`
/// reflects the number of morsel scans.
///
/// `cancel` is the cooperative deadline: once it expires, workers stop
/// aggregating before each newly claimed morsel (in-flight morsels
/// finish), so the call returns within one morsel of the deadline. The
/// caller must treat the folded results as garbage when the token expired
/// — partially scanned aggregates are not a prefix of anything
/// well-defined.
pub fn execute_morsels(
    pool: &Pool<'_>,
    table: &dyn Table,
    queries: &[CombinedQuery],
    range: Range<usize>,
    shape: ScanShape,
    cancel: &CancelToken,
) -> Vec<(GroupedResult, ExecStats)> {
    execute_morsels_traced(
        pool,
        table,
        queries,
        range,
        shape,
        cancel,
        &TraceCtx::disabled(),
    )
}

/// [`execute_morsels`] with per-worker trace probes: when `trace` is
/// enabled, each worker that claims at least one morsel emits one
/// aggregated `morsels` span on trace lane `1 + worker` (start = the
/// worker's first claim, duration = its summed busy time, with the morsel
/// count as a span argument). A disabled trace costs one branch per morsel
/// and allocates nothing; results are bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub fn execute_morsels_traced(
    pool: &Pool<'_>,
    table: &dyn Table,
    queries: &[CombinedQuery],
    range: Range<usize>,
    shape: ScanShape,
    cancel: &CancelToken,
    trace: &TraceCtx,
) -> Vec<(GroupedResult, ExecStats)> {
    let n_jobs = queries.len();
    if n_jobs == 0 {
        return Vec::new();
    }

    // Per-job scan plans: prune partitions against each query's
    // contribution predicate, then flatten the surviving morsel lists into
    // one job-major item space. `job_offsets[j]..job_offsets[j + 1]` are
    // job j's items.
    let plans: Vec<PrunedScan> = queries
        .iter()
        .map(|q| pruned_scan(table, q, range.clone(), shape.morsel_rows))
        .collect();
    let mut job_offsets = Vec::with_capacity(n_jobs + 1);
    job_offsets.push(0usize);
    for plan in &plans {
        job_offsets.push(job_offsets.last().unwrap() + plan.morsels.len());
    }
    let n_items = *job_offsets.last().unwrap();

    // Per-worker, per-job partials. Each worker only ever touches its own
    // slot, so the mutexes are uncontended; they exist to keep the hot path
    // in safe code.
    let workers = pool.threads();
    let locals: Vec<PLock<Vec<Option<WorkerPartial>>>> = (0..workers)
        .map(|_| {
            let mut slots = Vec::with_capacity(n_jobs);
            slots.resize_with(n_jobs, || None);
            PLock::new("engine.morsel.partials", slots)
        })
        .collect();

    // Workers drain one job's morsels before the next, and a worker's
    // morsels per job are ascending (the pool claims indices in ascending
    // order). Jobs with zero surviving morsels simply occupy an empty
    // stretch of the item space.
    let probes = WorkerProbes::new(workers, trace.is_enabled());
    pool.run(n_items, |worker, item| {
        if cancel.is_expired() {
            return;
        }
        let probe_start = probes.start();
        let job = job_offsets.partition_point(|&off| off <= item) - 1;
        let morsel = &plans[job].morsels[item - job_offsets[job]];
        let mut slots = locals[worker].lock();
        let partial = slots[job].get_or_insert_with(|| WorkerPartial {
            first_item: item,
            agg: PartialAggregation::new(queries[job].clone()),
            stats: ExecStats::new(),
        });
        partial
            .agg
            .update(table, morsel.clone(), &mut partial.stats);
        probes.record(worker, probe_start);
    });
    probes.emit(trace, "morsels");

    // Deterministic fold: per job, merge worker partials in ascending
    // first-item order. (Accumulator merges are exact, so any order yields
    // the same bits; the fixed order additionally makes group discovery
    // order — and thus internal state — reproducible.)
    (0..n_jobs)
        .map(|job| {
            let mut parts: Vec<WorkerPartial> = locals
                .iter()
                .filter_map(|slots| slots.lock()[job].take())
                .collect();
            parts.sort_by_key(|p| p.first_item);

            let mut stats = ExecStats::new();
            stats.queries_issued = 1;
            stats.partitions_scanned = plans[job].partitions_scanned;
            stats.partitions_pruned = plans[job].partitions_pruned;
            let mut parts = parts.into_iter();
            let agg = match parts.next() {
                // Empty range, or every partition pruned: an untouched plan
                // finalizes to the empty result — exactly what a serial
                // scan of rows that never create a group entry produces.
                None => PartialAggregation::new(queries[job].clone()),
                Some(first) => {
                    stats.merge(&first.stats);
                    let mut base = first.agg;
                    for part in parts {
                        stats.merge(&part.stats);
                        base.merge(part.agg);
                    }
                    base
                }
            };
            // Per-partial group counts under-report the final footprint.
            stats.groups_max = stats.groups_max.max(agg.num_groups() as u64);
            (agg.finalize(), stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::{CmpOp, Predicate};
    use crate::naive::{check, naive_query};
    use crate::parallel::with_pool;
    use crate::spec::{AggSpec, SplitSpec};
    use seedb_storage::{BoxedTable, ColumnDef, ColumnId, StoreKind, TableBuilder, Value};

    fn table(rows: usize) -> BoxedTable {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("d"),
            ColumnDef::dim("e"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..rows {
            b.push_row(&[
                Value::str(format!("d{}", i % 7)),
                Value::str(format!("e{}", i % 3)),
                Value::Float((i as f64) * 0.37 - 11.0),
            ])
            .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    fn queries(t: &dyn Table) -> Vec<CombinedQuery> {
        let split = SplitSpec::TargetVsAll(Predicate::col_eq_str(t, "e", "e0"));
        vec![
            CombinedQuery::single(
                ColumnId(0),
                AggSpec::new(AggFunc::Avg, ColumnId(2)),
                split.clone(),
            ),
            CombinedQuery {
                group_by: vec![ColumnId(0), ColumnId(1)],
                aggregates: vec![
                    AggSpec::new(AggFunc::Sum, ColumnId(2)),
                    AggSpec::new(AggFunc::Count, ColumnId(2)),
                ],
                filter: None,
                split,
            },
        ]
    }

    #[test]
    fn morsel_execution_matches_naive_reference() {
        let t = table(501);
        let qs = queries(t.as_ref());
        let want: Vec<_> = qs
            .iter()
            .map(|q| naive_query(t.as_ref(), q, 0..t.num_rows()))
            .collect();
        for threads in [1usize, 2, 8] {
            for morsel in [1usize, 7, 64, usize::MAX] {
                let got = with_pool(threads, |pool| {
                    execute_morsels(
                        pool,
                        t.as_ref(),
                        &qs,
                        0..t.num_rows(),
                        ScanShape::new(morsel),
                        &CancelToken::none(),
                    )
                });
                assert_eq!(got.len(), want.len());
                for ((result, stats), want) in got.iter().zip(&want) {
                    assert_eq!(stats.queries_issued, 1);
                    assert_eq!(stats.rows_scanned, t.num_rows() as u64);
                    check(result, want)
                        .unwrap_or_else(|e| panic!("threads {threads} morsel {morsel}: {e}"));
                }
            }
        }
    }

    #[test]
    fn empty_range_yields_empty_results() {
        let t = table(10);
        let qs = queries(t.as_ref());
        let got = with_pool(4, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &qs,
                5..5,
                ScanShape::new(2),
                &CancelToken::none(),
            )
        });
        assert_eq!(got.len(), 2);
        for (result, stats) in &got {
            assert_eq!(result.num_groups(), 0);
            assert_eq!(stats.rows_scanned, 0);
            assert_eq!(stats.queries_issued, 1);
        }
    }

    #[test]
    fn no_queries_is_fine() {
        let t = table(10);
        let got = with_pool(2, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                &[],
                0..10,
                ScanShape::new(4),
                &CancelToken::none(),
            )
        });
        assert!(got.is_empty());
    }

    /// Partitioned table + selective predicate: pruned parallel execution
    /// must match the naive reference while actually skipping partitions.
    #[test]
    fn pruning_skips_partitions_and_stays_bitwise_identical() {
        // Sorted measure so zone intervals are disjoint across partitions.
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(64);
        for i in 0..500 {
            b.push_row(&[Value::str(format!("d{}", i % 5)), Value::Float(i as f64)])
                .unwrap();
        }
        let t = b.build(StoreKind::Column).unwrap();
        let pred = Predicate::NumCmp {
            col: ColumnId(1),
            op: CmpOp::Lt,
            value: 100.0,
        };
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Avg, ColumnId(1)),
            SplitSpec::TargetOnly(pred),
        );
        let want = naive_query(t.as_ref(), &q, 0..t.num_rows());
        for threads in [1usize, 4] {
            let got = with_pool(threads, |pool| {
                execute_morsels(
                    pool,
                    t.as_ref(),
                    std::slice::from_ref(&q),
                    0..t.num_rows(),
                    ScanShape::new(64),
                    &CancelToken::none(),
                )
            });
            let (result, stats) = &got[0];
            // 500 rows at 64/partition = 8 partitions; rows < 100 live
            // in the first two (0..64, 64..128).
            assert_eq!(stats.partitions_scanned, 2);
            assert_eq!(stats.partitions_pruned, 6);
            assert_eq!(stats.rows_scanned, 128);
            check(result, &want).unwrap();
        }
    }

    /// An already-expired token means no morsel is aggregated: workers
    /// see the expiry before their first claim, so nothing is scanned and
    /// the call returns immediately instead of running the full scan.
    #[test]
    fn expired_token_skips_all_morsels() {
        let t = table(501);
        let qs = queries(t.as_ref());
        let expired = CancelToken::after(std::time::Duration::ZERO);
        for threads in [1usize, 4] {
            let got = with_pool(threads, |pool| {
                execute_morsels(
                    pool,
                    t.as_ref(),
                    &qs,
                    0..t.num_rows(),
                    ScanShape::new(16),
                    &expired,
                )
            });
            assert_eq!(got.len(), qs.len());
            for (result, stats) in &got {
                assert_eq!(result.num_groups(), 0, "threads {threads}");
                assert_eq!(stats.rows_scanned, 0, "threads {threads}");
            }
        }
    }

    /// A query whose contribution predicate prunes everything still returns
    /// a well-formed empty result.
    #[test]
    fn fully_pruned_job_finalizes_empty() {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(8);
        for i in 0..32 {
            b.push_row(&[Value::str("x"), Value::Float(i as f64)])
                .unwrap();
        }
        let t = b.build(StoreKind::Row).unwrap();
        let q = CombinedQuery::single(
            ColumnId(0),
            AggSpec::new(AggFunc::Count, ColumnId(1)),
            SplitSpec::TargetOnly(Predicate::NumCmp {
                col: ColumnId(1),
                op: CmpOp::Gt,
                value: 1000.0,
            }),
        );
        let got = with_pool(2, |pool| {
            execute_morsels(
                pool,
                t.as_ref(),
                std::slice::from_ref(&q),
                0..t.num_rows(),
                ScanShape::new(4),
                &CancelToken::none(),
            )
        });
        let (result, stats) = &got[0];
        assert_eq!(result.num_groups(), 0);
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(stats.partitions_pruned, 4);
        assert_eq!(stats.partitions_scanned, 0);
        assert_eq!(stats.queries_issued, 1);
    }
}
