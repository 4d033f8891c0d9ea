//! Cost-based physical planning.
//!
//! A [`PhysicalPlan`] is derived once per run, *before* the worker pool is
//! created, from three inputs:
//!
//! 1. **Table statistics** ([`seedb_storage::TableStats`]) — exact row and
//!    distinct counts, zone-map summaries, dictionary sizes.
//! 2. **The query's contribution predicate** — the planner asks the zone
//!    maps which partitions can contribute rows
//!    ([`seedb_engine::estimate_scan`]) and sizes parallelism to the
//!    *post-pruning* row volume, not the raw table.
//! 3. **The configuration's knob overrides** — a
//!    [`Knob::Fixed`](crate::config::Knob) pins a shape dimension; `Auto`
//!    defers to the cost model in `seedb_engine::cost`.
//!
//! The invariant the whole suite leans on: a plan changes **how** we
//! execute — worker count, morsel size, group-index layout, cluster
//! packing — never **what** we compute. Every plannable shape is
//! bit-identical to a serial scan (accumulators merge exactly), so the
//! planner can be wrong about *cost* without ever being wrong about
//! *results*.

use crate::config::{GroupingPolicy, SeeDbConfig, SharingConfig};
use crate::reference::ReferenceSpec;
use crate::view::{ViewId, ViewSpec};
use seedb_engine::{
    binpack, choose_morsel_rows, choose_workers, contribution_predicate, estimate_scan,
    group_index_for, AggSpec, CombinedQuery, GroupIndexKind, Predicate, ScanShape,
};
use seedb_storage::{ColumnId, Table};

/// One shared query cluster: the views answered by a single combined
/// query (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The GROUP BY dimensions; more than one when bin-packed.
    pub group_by: Vec<ColumnId>,
    /// The distinct `(function, measure)` aggregates, each computed once
    /// per scanned row however many of the cluster's dimensions use it:
    /// the rollup to each dimension recovers every member's view from the
    /// shared column.
    pub aggregates: Vec<AggSpec>,
    /// `(view id, index into aggregates, position of the view's dimension
    /// in group_by)` for each member view.
    pub members: Vec<(ViewId, usize, usize)>,
}

/// Builds the query clusters answering `views`, applying the
/// combine-aggregates, nagg-cap, and combine-group-bys knobs. The executor
/// calls this every phase with the views still live; the plan calls it
/// once with every view, so EXPLAIN reports exactly the phase-1 shape.
pub(crate) fn build_clusters(
    table: &dyn Table,
    sharing: &SharingConfig,
    views: &[&ViewSpec],
) -> Vec<Cluster> {
    if !sharing.combine_aggregates {
        // One cluster per view: the unshared (but possibly parallel and
        // split-combined) shape.
        return views
            .iter()
            .map(|v| Cluster {
                group_by: vec![v.dim],
                aggregates: vec![AggSpec::new(v.func, v.measure)],
                members: vec![(v.id, 0, 0)],
            })
            .collect();
    }

    // Unique dimensions in first-seen order, optionally combined into
    // shared multi-GROUP-BY bins.
    let mut dims: Vec<ColumnId> = Vec::new();
    for v in views {
        if !dims.contains(&v.dim) {
            dims.push(v.dim);
        }
    }
    let bins: Vec<Vec<ColumnId>> = if sharing.combine_group_bys && dims.len() > 1 {
        match sharing.grouping_policy {
            GroupingPolicy::BinPack => {
                let budget = sharing.effective_budget(table.kind());
                binpack::first_fit(table, &dims, budget).bins
            }
            GroupingPolicy::MaxGb(n) => dims.chunks(n.max(1)).map(|chunk| chunk.to_vec()).collect(),
        }
    } else {
        dims.iter().map(|&d| vec![d]).collect()
    };

    let nagg_cap = sharing
        .max_aggregates_per_query
        .unwrap_or(usize::MAX)
        .max(1);
    let mut clusters = Vec::new();
    for bin in bins {
        // Views of every dimension in the bin share the bin's distinct
        // aggregates.
        let mut aggregates: Vec<AggSpec> = Vec::new();
        let mut members = Vec::new();
        for (dim_pos, dim) in bin.iter().enumerate() {
            for v in views.iter().filter(|v| v.dim == *dim) {
                let agg = AggSpec::new(v.func, v.measure);
                let idx = match aggregates.iter().position(|a| *a == agg) {
                    Some(idx) => idx,
                    None => {
                        aggregates.push(agg);
                        aggregates.len() - 1
                    }
                };
                members.push((v.id, idx, dim_pos));
            }
        }
        // The nagg cap chunks the distinct aggregates; each member goes
        // with the chunk holding its aggregate.
        for (chunk_no, chunk) in aggregates.chunks(nagg_cap).enumerate() {
            let first = chunk_no * nagg_cap;
            clusters.push(Cluster {
                group_by: bin.clone(),
                aggregates: chunk.to_vec(),
                members: (members.iter())
                    .filter(|m| (first..first + chunk.len()).contains(&m.1))
                    .map(|&(view, idx, dim_pos)| (view, idx - first, dim_pos))
                    .collect(),
            });
        }
    }
    clusters
}

/// The execution shape chosen for one run. See the module docs for how it
/// is derived; see [`PhysicalPlan::explain_json`] for the EXPLAIN wire
/// rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// Pool workers executing `(cluster, morsel)` work items; 1 = serial
    /// (no pool threads spawned at all).
    pub workers: usize,
    /// Whether `workers` came from the cost model (`true`) or a
    /// `Knob::Fixed` override (`false`).
    pub workers_auto: bool,
    /// Rows per morsel; `usize::MAX` = one morsel per surviving partition.
    pub morsel_rows: usize,
    /// Whether `morsel_rows` came from the cost model.
    pub morsel_auto: bool,
    /// Group-index kind for the widest planned cluster (the cost-dominant
    /// one).
    pub index: GroupIndexKind,
    /// The planned phase-1 clusters (every view alive) — the clusters the
    /// executor's first phase runs. Later phases re-cluster over surviving
    /// views only, but phase 1 is the shape EXPLAIN reports and the one
    /// that dominates cost.
    pub clusters: Vec<Cluster>,
    /// Whether any planned cluster packs more than one dimension.
    pub packed: bool,
    /// Estimated rows the contribution predicate can touch (an upper
    /// bound: the row total of every partition the zone maps cannot rule
    /// out).
    pub estimated_rows: usize,
    /// Total storage partitions.
    pub partitions_total: usize,
    /// Partitions the zone maps prove irrelevant for this query.
    pub partitions_prunable: usize,
}

impl PhysicalPlan {
    /// Derives the plan for `config` over `table`, for a run answering
    /// `views` with the given target/reference selection.
    pub fn derive(
        table: &dyn Table,
        config: &SeeDbConfig,
        views: &[ViewSpec],
        target: &Predicate,
        reference: &ReferenceSpec,
    ) -> PhysicalPlan {
        // Post-pruning volume estimate: which partitions can contribute a
        // row to either side of the deviation computation?
        let probe = CombinedQuery {
            group_by: Vec::new(),
            aggregates: Vec::new(),
            filter: None,
            split: reference.to_split(target.clone()),
        };
        let contribution = contribution_predicate(&probe);
        let estimate = estimate_scan(table, &contribution);

        let sharing = &config.sharing;
        let host = seedb_engine::parallel::default_parallelism();
        let workers = sharing
            .parallelism
            .resolve(choose_workers(estimate.rows, host));
        let morsel_rows = sharing
            .morsel_rows
            .resolve(choose_morsel_rows(estimate.rows, workers));

        let all: Vec<&ViewSpec> = views.iter().collect();
        let clusters = build_clusters(table, sharing, &all);
        let packed = clusters.iter().any(|c| c.group_by.len() > 1);

        // Index kind for the widest cluster — the engine makes the same
        // call per cluster (`group_index_for`), so EXPLAIN cannot disagree
        // with execution.
        let index = clusters
            .iter()
            .max_by_key(|c| c.group_by.len())
            .map(|c| group_index_for(table, &c.group_by))
            .unwrap_or(GroupIndexKind::Hash);

        PhysicalPlan {
            workers,
            workers_auto: sharing.parallelism.fixed_value().is_none(),
            morsel_rows,
            morsel_auto: sharing.morsel_rows.fixed_value().is_none(),
            index,
            clusters,
            packed,
            estimated_rows: estimate.rows,
            partitions_total: estimate.partitions_total,
            partitions_prunable: estimate.partitions_prunable,
        }
    }

    /// The engine-facing slice of the plan.
    pub fn scan_shape(&self) -> ScanShape {
        ScanShape::new(self.morsel_rows)
    }

    /// `morsel_rows` rendered for humans/JSON (`usize::MAX` means "one
    /// morsel per surviving partition").
    fn morsel_label(&self) -> String {
        if self.morsel_rows == usize::MAX {
            "whole".to_owned()
        } else {
            self.morsel_rows.to_string()
        }
    }

    fn source(auto: bool) -> &'static str {
        if auto {
            "auto"
        } else {
            "fixed"
        }
    }

    /// One-line summary recorded into
    /// [`ExecStats::plan_summary`](seedb_engine::ExecStats).
    pub fn summary(&self) -> String {
        format!(
            "workers={}({}) morsel_rows={}({}) index={} clusters={}{} est_rows={} partitions={}/{} prunable",
            self.workers,
            Self::source(self.workers_auto),
            self.morsel_label(),
            Self::source(self.morsel_auto),
            self.index.label(),
            self.clusters.len(),
            if self.packed { " packed" } else { "" },
            self.estimated_rows,
            self.partitions_prunable,
            self.partitions_total,
        )
    }

    /// Compact JSON object for the `"explain": true` response envelope.
    /// Each cluster reports its GROUP BY width, member views and distinct
    /// aggregates — the per-row aggregate work of the shared scan.
    pub fn explain_json(&self) -> String {
        let clusters: Vec<String> = (self.clusters.iter())
            .map(|c| {
                format!(
                    "{{\"dims\":{},\"views\":{},\"aggregates\":{}}}",
                    c.group_by.len(),
                    c.members.len(),
                    c.aggregates.len()
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"workers\":{},\"workers_source\":\"{}\",",
                "\"morsel_rows\":\"{}\",\"morsel_source\":\"{}\",",
                "\"index\":\"{}\",",
                "\"clusters\":[{}],\"packed\":{},",
                "\"estimated_rows\":{},",
                "\"partitions_total\":{},\"partitions_prunable\":{}}}"
            ),
            self.workers,
            Self::source(self.workers_auto),
            self.morsel_label(),
            Self::source(self.morsel_auto),
            self.index.label(),
            clusters.join(","),
            self.packed,
            self.estimated_rows,
            self.partitions_total,
            self.partitions_prunable,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecutionStrategy, Knob};
    use crate::view::enumerate_views;
    use seedb_storage::{ColumnDef, StoreKind, TableBuilder, Value};

    fn table_with_partitions(rows: usize, partition_rows: usize) -> seedb_storage::BoxedTable {
        let mut b = TableBuilder::new(vec![ColumnDef::dim("d"), ColumnDef::measure("m")])
            .with_partition_rows(partition_rows);
        for i in 0..rows {
            b.push_row(&[Value::str(format!("g{}", i % 3)), Value::Float(i as f64)])
                .unwrap();
        }
        b.build(StoreKind::Column).unwrap()
    }

    #[test]
    fn fixed_knobs_override_the_cost_model() {
        let table = table_with_partitions(100, 25);
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.parallelism = Knob::Fixed(3);
        cfg.sharing.morsel_rows = Knob::Fixed(7);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(plan.workers, 3);
        assert!(!plan.workers_auto);
        assert_eq!(plan.morsel_rows, 7);
        assert!(!plan.morsel_auto);
        assert_eq!(plan.scan_shape().morsel_rows, 7);
    }

    #[test]
    fn auto_plan_is_serial_on_small_tables() {
        // 100 rows is far below PARALLEL_ROWS_MIN: the planner must not
        // spin up a pool regardless of host cores, and a serial run scans
        // whole partitions (morsel splitting buys nothing).
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(plan.workers, 1);
        assert!(plan.workers_auto);
        assert_eq!(plan.morsel_rows, usize::MAX);
        assert_eq!(plan.partitions_total, 4);
        assert_eq!(plan.estimated_rows, 100);
    }

    #[test]
    fn plan_counts_prunable_partitions_for_selective_targets() {
        // Partitions carry m ranges [0,25), [25,50), [50,75), [75,100).
        // A complement reference keeps the contribution predicate True for
        // the whole-table reference, so restrict via TargetVsQuery.
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let col = table.schema().column_id("m").unwrap();
        let lo = Predicate::NumCmp {
            col,
            op: seedb_engine::CmpOp::Lt,
            value: 10.0,
        };
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &lo,
            &ReferenceSpec::Query(lo.clone()),
        );
        assert_eq!(plan.partitions_total, 4);
        assert_eq!(plan.partitions_prunable, 3);
        assert_eq!(plan.estimated_rows, 25);
    }

    #[test]
    fn plan_reports_cluster_packing_and_index_kind() {
        let mut b = TableBuilder::new(vec![
            ColumnDef::dim("a"),
            ColumnDef::dim("b"),
            ColumnDef::measure("m"),
        ]);
        for i in 0..60usize {
            b.push_row(&[
                Value::str(format!("a{}", i % 4)),
                Value::str(format!("b{}", i % 5)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let table = b.build(StoreKind::Column).unwrap();
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.memory_budget = Some(1_000_000);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        // Both dims fit one bin (4 × 5 « budget) and the composite domain
        // 5 × 6 = 30 is dense-indexable.
        assert_eq!(plan.clusters.len(), 1);
        assert!(plan.packed);
        assert_eq!(plan.index, GroupIndexKind::DenseComposite);
        // Both dims' views share the one AVG(m) column.
        assert_eq!(plan.clusters[0].members.len(), 2);
        assert_eq!(plan.clusters[0].aggregates.len(), 1);

        // NO_OPT never packs.
        let noopt_cfg = SeeDbConfig::for_strategy(ExecutionStrategy::NoOpt);
        let noopt = PhysicalPlan::derive(
            table.as_ref(),
            &noopt_cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        assert_eq!(noopt.clusters.len(), 2);
        assert!(!noopt.packed);
        assert_eq!(noopt.workers, 1);
    }

    #[test]
    fn summary_and_json_render_the_choices() {
        let table = table_with_partitions(100, 25);
        let mut cfg = SeeDbConfig::default();
        cfg.sharing.parallelism = Knob::Fixed(2);
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let plan = PhysicalPlan::derive(
            table.as_ref(),
            &cfg,
            &views,
            &Predicate::True,
            &ReferenceSpec::WholeTable,
        );
        let summary = plan.summary();
        assert!(summary.contains("workers=2(fixed)"), "{summary}");
        assert!(summary.contains("clusters=1"), "{summary}");
        let json = plan.explain_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"workers\":2"), "{json}");
        assert!(json.contains("\"workers_source\":\"fixed\""), "{json}");
        assert!(json.contains("\"morsel_source\":\"auto\""), "{json}");
        assert!(json.contains("\"partitions_total\":4"), "{json}");
        assert!(
            json.contains("\"clusters\":[{\"dims\":1,\"views\":1,\"aggregates\":1}]"),
            "{json}"
        );
    }

    #[test]
    fn derivation_is_deterministic() {
        let table = table_with_partitions(100, 25);
        let cfg = SeeDbConfig::default();
        let views = enumerate_views(table.as_ref(), &cfg.agg_functions);
        let derive = || {
            PhysicalPlan::derive(
                table.as_ref(),
                &cfg,
                &views,
                &Predicate::True,
                &ReferenceSpec::WholeTable,
            )
        };
        assert_eq!(derive(), derive());
    }
}
