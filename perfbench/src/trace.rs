//! The traced run: an in-process replay of a workload's requests through
//! the same public layer calls `seedbd`'s router makes, with a span around
//! each call. Spans live in memory and are written out at the end; the
//! program itself records nothing.

use seedb_core::{
    ingested_instance_signature, instance_signature, predicate_signature, reference_signature,
    ExecutionStrategy, Executor, Knob, PruningKind, ReferenceSpec, SeeDb,
};
use seedb_data::Dataset;
use seedb_server::api::{self, RecommendRequest};
use seedb_server::cache::PartialCache;
use seedb_server::{CacheValue, Catalog, RecCache, ServerConfig};
use seedb_util::Json;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span. Spans of one request share `request`.
#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code gives the untraced baseline.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if let Some(ix) = self.open.pop() {
            self.spans[ix].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered = Duration::ZERO;
                let mut reach = s.start;
                for &k in kids {
                    let (a, b) = (self.spans[k].start.max(reach), self.spans[k].end);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of the self times of every span under a `request` root, over
    /// the sum of those roots' durations.
    pub fn coverage(&self) -> f64 {
        let selfs = self.self_times();
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut layers = Duration::ZERO;
        let mut walls = Duration::ZERO;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != ROOT {
                if self.spans[root_of(i)].name == ROOT {
                    layers += selfs[i];
                }
            } else if s.parent.is_none() {
                walls += s.dur();
            }
        }
        ratio(layers.as_secs_f64(), walls.as_secs_f64())
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let line = Json::obj()
                .set("id", i)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("name", s.name)
                .set("request", s.request)
                .set("start_us", s.start.as_secs_f64() * 1e6)
                .set("dur_us", s.dur().as_secs_f64() * 1e6)
                .set("self_us", own.as_secs_f64() * 1e6);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

/// Name of the span around one whole replayed request.
pub const ROOT: &str = "request";

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What a replayed `/recommend` did, for the extra per-layer probes.
pub struct Replayed {
    pub label: &'static str,
    pub run: Option<(
        Arc<Dataset>,
        seedb_engine::Predicate,
        seedb_core::SeeDbConfig,
    )>,
}

/// An in-process mirror of `seedbd`'s request path over its own catalog
/// and cache: the same public calls in the same order as the router.
pub struct Mirror {
    catalog: Arc<Catalog>,
    cache: Arc<RecCache>,
    seed: u64,
}

impl Mirror {
    pub fn new(catalog: Arc<Catalog>) -> Mirror {
        let config = ServerConfig::default();
        Mirror {
            catalog,
            cache: Arc::new(RecCache::new(config.cache_bytes)),
            seed: config.seed,
        }
    }

    pub fn recommend(&self, t: &mut Tracer, id: u64, body: &str) -> Result<Replayed, String> {
        t.begin(ROOT, id);
        let out = self.recommend_inner(t, id, body);
        t.end();
        out
    }

    fn recommend_inner(&self, t: &mut Tracer, id: u64, body: &str) -> Result<Replayed, String> {
        let req = t.time("api.parse", id, || RecommendRequest::from_json(body))?;
        let rows = self.catalog.resolve_rows(&req.dataset, req.rows);
        let ds = t
            .time("catalog.dataset", id, || {
                self.catalog.dataset(&req.dataset, rows)
            })
            .map_err(|e| e.to_string())?;
        let target = t.time("sql.plan_where", id, || match &req.where_sql {
            Some(sql) => seedb_sql::parser::parse_expr(sql)
                .and_then(|e| seedb_sql::Planner::new(ds.table.as_ref()).plan_predicate(&e))
                .map_err(|e| e.render(sql)),
            None => Ok(ds.target.clone()),
        })?;
        let reference = ReferenceSpec::WholeTable;
        let instance = match self.catalog.ingested_fingerprint(&ds.name) {
            Some(fp) => ingested_instance_signature(&ds.name, rows, fp),
            None => instance_signature(&ds.name, rows, self.seed),
        };
        let key = format!(
            "R|{instance}|{}|{}|{}",
            predicate_signature(&target),
            reference_signature(&reference),
            req.config.result_signature()
        );
        if let Some(CacheValue::Response(_)) = t.time("cache.probe", id, || self.cache.get(&key)) {
            return Ok(Replayed {
                label: "hit",
                run: None,
            });
        }
        let plan = t.time("core.plan", id, || {
            SeeDb::with_config(ds.table.clone(), req.config.clone()).plan(&target, &reference)
        });
        // The router runs at the worker count its admission lease grants;
        // a lone request is granted the planned width.
        let mut config = req.config.clone();
        config.sharing.parallelism = Knob::Fixed(plan.workers);
        let seedb = SeeDb::with_config(ds.table.clone(), config);
        let partials = PartialCache::new(self.cache.clone(), instance);
        let (rec, usage) = t
            .time("core.recommend_cached", id, || {
                seedb.recommend_cached(&target, &reference, &partials)
            })
            .map_err(|e| e.to_string())?;
        let payload = t.time("json.render", id, || {
            api::render_recommendation(&ds, &rec).compact()
        });
        t.time("cache.deposit", id, || {
            self.cache
                .put(&key, CacheValue::Response(Arc::new(payload)))
        });
        let label = if usage.hits > 0 || usage.resumed > 0 {
            "partial"
        } else {
            "miss"
        };
        Ok(Replayed {
            label,
            run: Some((ds, target, req.config)),
        })
    }

    pub fn ingest(&self, t: &mut Tracer, id: u64, body: &str) -> Result<(), String> {
        t.begin(ROOT, id);
        let out = (|| {
            let doc = t.time("json.parse", id, || Json::parse(body))?;
            let name = doc.get("name").and_then(Json::as_str).ok_or("no name")?;
            let csv = doc.get("csv").and_then(Json::as_str).ok_or("no csv")?;
            t.time("catalog.ingest", id, || self.catalog.ingest_csv(name, csv))
                .map(drop)
                .map_err(|e| e.to_string())
        })();
        t.end();
        out
    }
}

/// Per-run layer probes taken outside the request trees, on the
/// requests that executed: the engine under its own strategies, the
/// pruner's view states, and the utility kernel.
#[derive(Default)]
pub struct Probes {
    pub comb: Vec<Duration>,
    pub sharing: Vec<Duration>,
    pub sharing_cells: u64,
    pub phases: Vec<usize>,
    pub phase_us: Vec<u64>,
    pub views: usize,
    pub pruned_early: usize,
    pub utility: Vec<Duration>,
    pub utility_views: usize,
}

impl Probes {
    pub fn probe(
        &mut self,
        t: &mut Tracer,
        id: u64,
        ds: &Dataset,
        target: &seedb_engine::Predicate,
        config: &seedb_core::SeeDbConfig,
    ) -> Result<(), String> {
        let reference = ReferenceSpec::WholeTable;
        let table = ds.table.as_ref();
        let seedb = SeeDb::with_config(ds.table.clone(), config.clone());
        let start = Instant::now();
        let rec = t
            .time("executor.recommend", id, || {
                seedb.recommend(target, &reference)
            })
            .map_err(|e| e.to_string())?;
        self.comb.push(start.elapsed());
        self.phases.push(rec.phases_executed);
        self.phase_us.extend(&rec.stats.phase_times_us);

        let views = seedb.views();
        let report = t.time("executor.run", id, || {
            Executor::new(table, config).run(&views, target, &reference)
        });
        self.views += report.states.len();
        self.pruned_early += report
            .states
            .iter()
            .filter(|s| {
                s.pruned_at_phase
                    .is_some_and(|p| p + 1 < report.phases_executed)
            })
            .count();

        let mut sharing = config.clone();
        sharing.strategy = ExecutionStrategy::Sharing;
        sharing.pruning = PruningKind::None;
        let start = Instant::now();
        let report = t.time("engine.sharing", id, || {
            Executor::new(table, &sharing).run(&views, target, &reference)
        });
        self.sharing.push(start.elapsed());
        self.sharing_cells += report.stats.cells_visited;

        let metric = config.metric;
        let vectors: Vec<(Vec<f64>, Vec<f64>)> =
            report.states.iter().map(|s| s.value_vectors()).collect();
        let start = Instant::now();
        let total = t.time("metrics.utility", id, || {
            vectors
                .iter()
                .map(|(tv, rv)| {
                    let (p, q) = seedb_metrics::normalize_pair(tv, rv);
                    metric.compute(&p, &q)
                })
                .sum::<f64>()
        });
        std::hint::black_box(total);
        self.utility.push(start.elapsed());
        self.utility_views += vectors.len();
        Ok(())
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[Duration]) -> Duration {
    let mut v = xs.to_vec();
    v.sort();
    v.get(v.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or_default()
}
