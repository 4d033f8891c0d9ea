//! Configuration of a SeeDB run: k, metric, strategy, sharing knobs,
//! pruning scheme, phases.

use crate::error::CoreError;
use seedb_engine::AggFunc;
use seedb_metrics::DistanceKind;
use seedb_storage::StoreKind;

/// The execution strategies evaluated in the paper (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// `NO_OPT`: two serial queries per view, no sharing, no pruning (§3's
    /// basic execution engine).
    NoOpt,
    /// `SHARING`: all §4.1 sharing optimizations, single pass, no pruning.
    Sharing,
    /// `COMB`: sharing + phased pruning (§4.2).
    Comb,
    /// `COMB_EARLY`: `COMB`, returning as soon as top-k membership is
    /// decided ("early result generation", §5.1).
    CombEarly,
}

impl ExecutionStrategy {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionStrategy::NoOpt => "NO_OPT",
            ExecutionStrategy::Sharing => "SHARING",
            ExecutionStrategy::Comb => "COMB",
            ExecutionStrategy::CombEarly => "COMB_EARLY",
        }
    }

    /// All strategies, in the order Figure 5 plots them.
    pub const ALL: [ExecutionStrategy; 4] = [
        ExecutionStrategy::NoOpt,
        ExecutionStrategy::Sharing,
        ExecutionStrategy::Comb,
        ExecutionStrategy::CombEarly,
    ];
}

impl std::fmt::Display for ExecutionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Pruning schemes (§4.2 plus the two §5.4 baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruningKind {
    /// Hoeffding–Serfling confidence-interval pruning (`CI`).
    Ci,
    /// Multi-armed bandit successive accepts/rejects (`MAB`).
    Mab,
    /// No pruning (`NO_PRU`) — latency/accuracy upper bound.
    None,
    /// Random top-k (`RANDOM`) — accuracy lower bound.
    Random,
}

impl PruningKind {
    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            PruningKind::Ci => "CI",
            PruningKind::Mab => "MAB",
            PruningKind::None => "NO_PRU",
            PruningKind::Random => "RANDOM",
        }
    }

    /// The four schemes §5.4 evaluates.
    pub const ALL: [PruningKind; 4] = [
        PruningKind::Ci,
        PruningKind::Mab,
        PruningKind::None,
        PruningKind::Random,
    ];
}

impl std::fmt::Display for PruningKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How dimensions are combined into multi-GROUP-BY queries (Fig 8b's
/// MAX_GB-vs-BP comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingPolicy {
    /// Bin-pack by `log₂|aᵢ|` under the memory budget (paper's `BP`).
    #[default]
    BinPack,
    /// Pack exactly `n` dimensions per query in enumeration order,
    /// ignoring cardinalities (paper's `MAX_GB` baseline).
    MaxGb(usize),
}

/// An execution-shape knob: either planner-resolved or pinned by the user.
///
/// `Auto` (the default) defers the choice to the cost-based planner, which
/// resolves it at plan time from table/partition statistics and the host —
/// so a serialized config carries no host-specific values and cache
/// signatures stay stable across machines. `Fixed(n)` pins the knob,
/// bypassing the planner for that dimension (benchmarks and equivalence
/// sweeps use this to force specific shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Knob {
    /// Resolved by the planner at plan time.
    #[default]
    Auto,
    /// Pinned to an explicit value.
    Fixed(usize),
}

impl Knob {
    /// The pinned value, if any.
    pub fn fixed_value(&self) -> Option<usize> {
        match self {
            Knob::Auto => None,
            Knob::Fixed(n) => Some(*n),
        }
    }

    /// Resolves the knob: the pinned value, or the planner's choice.
    pub fn resolve(&self, auto: usize) -> usize {
        match self {
            Knob::Auto => auto,
            Knob::Fixed(n) => *n,
        }
    }
}

impl std::fmt::Display for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Knob::Auto => f.write_str("auto"),
            Knob::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Knobs for the §4.1 sharing optimizations.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingConfig {
    /// Merge views with the same group-by attribute into multi-aggregate
    /// queries.
    pub combine_aggregates: bool,
    /// Cap on aggregates per combined query (`nagg` in Fig 7a);
    /// `None` = unlimited.
    pub max_aggregates_per_query: Option<usize>,
    /// Combine several group-by attributes into one query via bin packing.
    pub combine_group_bys: bool,
    /// Grouping policy when `combine_group_bys` is on.
    pub grouping_policy: GroupingPolicy,
    /// Memory budget 𝓜 (max distinct groups per query). `None` picks the
    /// store-specific default observed in §5.3: 10⁴ for ROW, 10² for COL.
    pub memory_budget: Option<usize>,
    /// Execute target and reference in one scan.
    pub combine_target_reference: bool,
    /// Number of pool workers executing `(cluster, morsel)` work items
    /// concurrently (Fig 7b). `Auto` lets the planner pick from the host's
    /// parallelism and the estimated post-pruning row volume;
    /// `Fixed(1)` = serial.
    pub parallelism: Knob,
    /// Rows per morsel for intra-query parallelism. Every cluster scan is
    /// split into morsels of this many rows, so even a single bin-packed
    /// cluster parallelizes across all workers. Results are bit-identical
    /// for every value (accumulators merge exactly); `Fixed(usize::MAX)`
    /// disables splitting (one whole-range morsel per cluster scan).
    /// `Auto` lets the planner size morsels from the estimated scan volume.
    pub morsel_rows: Knob,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            combine_aggregates: true,
            max_aggregates_per_query: None,
            combine_group_bys: true,
            grouping_policy: GroupingPolicy::BinPack,
            memory_budget: None,
            combine_target_reference: true,
            parallelism: Knob::Auto,
            morsel_rows: Knob::Auto,
        }
    }
}

impl SharingConfig {
    /// Everything off — the unoptimized baseline's sharing posture.
    pub fn none() -> Self {
        SharingConfig {
            combine_aggregates: false,
            max_aggregates_per_query: None,
            combine_group_bys: false,
            grouping_policy: GroupingPolicy::BinPack,
            memory_budget: None,
            combine_target_reference: false,
            parallelism: Knob::Fixed(1),
            morsel_rows: Knob::Auto,
        }
    }

    /// Effective memory budget for a store layout (§5.3's empirical values
    /// when unset).
    pub fn effective_budget(&self, kind: StoreKind) -> usize {
        self.memory_budget.unwrap_or(match kind {
            StoreKind::Row => 10_000,
            StoreKind::Column => 100,
        })
    }
}

/// Full configuration of a SeeDB run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeeDbConfig {
    /// Number of views to recommend (paper sweeps 1–25; defaults to 10).
    pub k: usize,
    /// Distance metric for deviation (paper default EMD).
    pub metric: DistanceKind,
    /// Aggregate functions `F` to enumerate. Table 1's view counts use a
    /// single function, so the default is `[AVG]`.
    pub agg_functions: Vec<AggFunc>,
    /// Execution strategy.
    pub strategy: ExecutionStrategy,
    /// Pruning scheme used by `COMB`/`COMB_EARLY`.
    pub pruning: PruningKind,
    /// Number of phases `n` for phased execution (paper uses 10).
    pub num_phases: usize,
    /// Confidence parameter δ for the Hoeffding–Serfling intervals.
    pub delta: f64,
    /// Sharing knobs.
    pub sharing: SharingConfig,
    /// RNG seed (used by `RANDOM` pruning only).
    pub seed: u64,
}

impl Default for SeeDbConfig {
    fn default() -> Self {
        SeeDbConfig {
            k: 10,
            metric: DistanceKind::Emd,
            agg_functions: vec![AggFunc::Avg],
            strategy: ExecutionStrategy::Comb,
            pruning: PruningKind::Ci,
            num_phases: 10,
            delta: 0.05,
            sharing: SharingConfig::default(),
            seed: 0,
        }
    }
}

impl SeeDbConfig {
    /// Validates invariants (k ≥ 1, phases ≥ 1, δ ∈ (0,1), ≥ 1 function).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::ZeroK);
        }
        if self.num_phases == 0 {
            return Err(CoreError::ZeroPhases);
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::BadDelta(self.delta.to_string()));
        }
        if self.agg_functions.is_empty() {
            return Err(CoreError::NoAggregateFunctions);
        }
        Ok(())
    }

    /// Convenience: a config preset for one of the paper's strategies, with
    /// everything else default.
    pub fn for_strategy(strategy: ExecutionStrategy) -> Self {
        let mut cfg = SeeDbConfig {
            strategy,
            ..Default::default()
        };
        if strategy == ExecutionStrategy::NoOpt {
            cfg.sharing = SharingConfig::none();
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let cfg = SeeDbConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.k, 10);
        assert_eq!(cfg.metric, DistanceKind::Emd);
        assert_eq!(cfg.num_phases, 10);
        assert_eq!(cfg.agg_functions, vec![AggFunc::Avg]);
        // Shape knobs default to planner-resolved so serialized configs
        // carry no host-specific values.
        assert_eq!(cfg.sharing.parallelism, Knob::Auto);
        assert_eq!(cfg.sharing.morsel_rows, Knob::Auto);
    }

    #[test]
    fn knob_resolves_fixed_over_auto() {
        assert_eq!(Knob::Auto.resolve(6), 6);
        assert_eq!(Knob::Fixed(2).resolve(6), 2);
        assert_eq!(Knob::Auto.fixed_value(), None);
        assert_eq!(Knob::Fixed(8).fixed_value(), Some(8));
        assert_eq!(Knob::Auto.to_string(), "auto");
        assert_eq!(Knob::Fixed(4).to_string(), "4");
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = SeeDbConfig::default();
        cfg.k = 0;
        assert_eq!(cfg.validate(), Err(CoreError::ZeroK));

        let mut cfg = SeeDbConfig::default();
        cfg.num_phases = 0;
        assert_eq!(cfg.validate(), Err(CoreError::ZeroPhases));

        let mut cfg = SeeDbConfig::default();
        cfg.delta = 1.5;
        assert!(matches!(cfg.validate(), Err(CoreError::BadDelta(_))));

        let mut cfg = SeeDbConfig::default();
        cfg.agg_functions.clear();
        assert_eq!(cfg.validate(), Err(CoreError::NoAggregateFunctions));
    }

    #[test]
    fn strategy_labels_match_paper() {
        assert_eq!(ExecutionStrategy::NoOpt.label(), "NO_OPT");
        assert_eq!(ExecutionStrategy::CombEarly.label(), "COMB_EARLY");
        assert_eq!(PruningKind::None.label(), "NO_PRU");
    }

    #[test]
    fn no_opt_preset_disables_sharing() {
        let cfg = SeeDbConfig::for_strategy(ExecutionStrategy::NoOpt);
        assert!(!cfg.sharing.combine_aggregates);
        assert!(!cfg.sharing.combine_target_reference);
        assert_eq!(cfg.sharing.parallelism, Knob::Fixed(1));
    }

    #[test]
    fn effective_budget_defaults_differ_by_store() {
        let sharing = SharingConfig::default();
        assert_eq!(sharing.effective_budget(StoreKind::Row), 10_000);
        assert_eq!(sharing.effective_budget(StoreKind::Column), 100);
        let sharing = SharingConfig {
            memory_budget: Some(42),
            ..Default::default()
        };
        assert_eq!(sharing.effective_budget(StoreKind::Row), 42);
    }
}
