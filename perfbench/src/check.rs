//! Correctness checks, run after the timed window: every reply must parse
//! and carry the expected cache disposition, cached answers must equal
//! uncached in-process answers, and every answer is scored against the
//! exact top-k of an in-process `SHARING` run with no pruning.

use crate::gen::{self, CSV_ROWS};
use crate::load::{Done, Op};
use seedb_core::{
    ExecutionStrategy, Executor, Knob, PruningKind, ReferenceSpec, SeeDb, SeeDbConfig,
};
use seedb_data::Dataset;
use seedb_engine::Predicate;
use seedb_server::api::{self, RecommendRequest};
use seedb_server::{Catalog, ServerConfig};
use seedb_util::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Envelope fields the router wraps around the shared payload, then the
/// payload's work counters. A payload without the envelope is what the
/// cache shares between requests; without the counters too, it is the
/// answer, which must not depend on how much of it came from the cache
/// (a replay from cached partials scans less than an uncached run).
const NOT_PAYLOAD: usize = 10;
const NOT_ANSWER: [&str; 11] = [
    "where",
    "cache",
    "view_hits",
    "view_misses",
    "view_resumed",
    "elapsed_us",
    "request_id",
    "degraded",
    "coverage",
    "explain",
    "stats",
];

/// A catalog configured exactly like a default `seedbd`'s.
pub fn default_catalog() -> Catalog {
    let c = ServerConfig::default();
    Catalog::new(c.max_rows, c.default_rows, c.seed)
}

/// The dataset an operation ran against, as the check needs to rebuild it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Source {
    Bank,
    /// The upload of ingest cycle `cycle`.
    Upload {
        name: String,
        cycle: u64,
    },
}

/// What one reply is expected to be, derived from the op sequence.
pub struct Expect {
    pub source: Source,
    /// Allowed `cache` dispositions.
    pub labels: &'static [&'static str],
    /// Whether the payload must equal an uncached in-process run.
    pub recompute: bool,
}

/// Derives the expectation for every `/recommend` in completion order,
/// with ingest cycles tracked per upload name. `None` for uploads.
pub fn expectations(done: &[&Done], explore: bool) -> Vec<Option<Expect>> {
    let mut current: HashMap<String, (u64, usize)> = HashMap::new();
    done.iter()
        .map(|d| match &d.op {
            Op::Ingest { name, cycle } => {
                current.insert(name.clone(), (*cycle, 0));
                None
            }
            Op::Recommend(rec) if rec.dataset == "BANK" => Some(Expect {
                source: Source::Bank,
                labels: if explore {
                    &["miss"]
                } else {
                    &["miss", "partial", "hit"]
                },
                recompute: false,
            }),
            Op::Recommend(rec) => {
                let slot = current.get_mut(&rec.dataset)?;
                let (cycle, n) = *slot;
                slot.1 += 1;
                // The cycle's first answer must be a miss: a hit would be a
                // stale answer from the bytes the upload replaced.
                let (labels, recompute): (&'static [&'static str], bool) = match n {
                    0 => (&["miss"], true),
                    1 => (&["hit"], false),
                    _ => (&["partial", "miss"], true),
                };
                Some(Expect {
                    source: Source::Upload {
                        name: rec.dataset.clone(),
                        cycle,
                    },
                    labels,
                    recompute,
                })
            }
        })
        .collect()
}

/// The outcome of the checks.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Wrong answers and requests that failed outright.
    pub failed: u64,
    /// Requests `seedbd` refused with its overload answer (HTTP 503, e.g.
    /// `workers_busy` when two misses contend for the workers): not wrong,
    /// but not served either.
    pub refused: u64,
    /// Per operation, in the order checked: the distinct request it asked
    /// and |returned ∩ exact top-k| / k (`None` for uploads and failed
    /// replies).
    pub accuracy: Vec<Option<(usize, f64)>>,
    /// The first few failures and refusals, for the log.
    pub errors: Vec<String>,
    pub refusals: Vec<String>,
    /// `cache` disposition counts over the checked `/recommend` replies.
    pub labels: HashMap<String, u64>,
}

impl Verdict {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn refuse(&mut self, msg: String) {
        self.refused += 1;
        if self.refusals.len() < 8 {
            self.refusals.push(msg);
        }
    }

    /// Mean accuracy over the distinct requests among the checked
    /// operations at `positions`, with their count. A repeat carries the
    /// same answer (checked), so counting it again would only weigh popular
    /// requests, and with them the seed, more.
    pub fn topk_accuracy(&self, positions: impl IntoIterator<Item = usize>) -> (f64, usize) {
        // Ordered, so the sum and with it the value repeat exactly.
        let distinct: BTreeMap<usize, f64> = positions
            .into_iter()
            .filter_map(|i| self.accuracy[i])
            .collect();
        let mean = distinct.values().sum::<f64>() / distinct.len().max(1) as f64;
        (mean, distinct.len())
    }
}

/// Datasets the checks need, built on demand and shared across threads.
pub struct Datasets {
    bank: Arc<Dataset>,
    seed: u64,
}

impl Datasets {
    pub fn new(bank: Arc<Dataset>, seed: u64) -> Datasets {
        Datasets { bank, seed }
    }

    fn get(&self, source: &Source) -> Result<Arc<Dataset>, String> {
        match source {
            Source::Bank => Ok(self.bank.clone()),
            Source::Upload { name, cycle } => default_catalog()
                .ingest_csv(name, &gen::csv_text(self.seed, *cycle))
                .map_err(|e| e.to_string()),
        }
    }
}

/// The config a request body asks for, pinned to one worker so the two
/// checking threads do not oversubscribe the host. Results are
/// bit-identical at any worker count.
fn request_config(body: &str) -> Result<(RecommendRequest, SeeDbConfig), String> {
    let req = RecommendRequest::from_json(body)?;
    let mut config = req.config.clone();
    config.sharing.parallelism = Knob::Fixed(1);
    Ok((req, config))
}

fn target_of(ds: &Dataset, req: &RecommendRequest) -> Result<Predicate, String> {
    match &req.where_sql {
        Some(sql) => {
            let expr = seedb_sql::parser::parse_expr(sql).map_err(|e| e.render(sql))?;
            seedb_sql::Planner::new(ds.table.as_ref())
                .plan_predicate(&expr)
                .map_err(|e| e.render(sql))
        }
        None => Ok(ds.target.clone()),
    }
}

/// The payload an uncached in-process run renders for `body`.
pub fn uncached_payload(ds: &Dataset, body: &str) -> Result<String, String> {
    let (req, config) = request_config(body)?;
    let target = target_of(ds, &req)?;
    let rec = SeeDb::with_config(ds.table.clone(), config)
        .recommend(&target, &ReferenceSpec::WholeTable)
        .map_err(|e| e.to_string())?;
    Ok(api::render_recommendation(ds, &rec).compact())
}

/// Exact utilities of every view for one target: a `SHARING` run with no
/// pruning. Ranking them under any metric gives that metric's exact top-k.
struct Exact {
    report: seedb_core::ExecutionReport,
    names: Vec<String>,
}

fn exact(ds: &Dataset, body: &str) -> Result<Exact, String> {
    let (req, mut config) = request_config(body)?;
    config.strategy = ExecutionStrategy::Sharing;
    config.pruning = PruningKind::None;
    let target = target_of(ds, &req)?;
    let seedb = SeeDb::with_config(ds.table.clone(), config.clone());
    let views = seedb.views();
    let report =
        Executor::new(ds.table.as_ref(), &config).run(&views, &target, &ReferenceSpec::WholeTable);
    let names = views
        .iter()
        .map(|v| v.describe(ds.table.as_ref()))
        .collect();
    Ok(Exact { report, names })
}

/// The reply body without its per-request envelope fields: what the
/// cache shares between every request with the same signature.
pub fn payload_of(reply: &Json) -> String {
    without(reply, &NOT_ANSWER[..NOT_PAYLOAD])
}

/// `doc` without the top-level `keys`, rendered compactly.
fn without(doc: &Json, keys: &[&str]) -> String {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        )
        .compact(),
        other => other.compact(),
    }
}

/// The answer in a reply or payload.
fn answer_of(doc: &Json) -> String {
    without(doc, &NOT_ANSWER)
}

enum Job {
    Exact(Source, String),
    Uncached(Source, String),
}

enum JobOut {
    Exact(Exact),
    Uncached(String),
}

/// Runs `jobs` on two threads; each result lands under its job's index.
fn run_jobs(jobs: &[Job], data: &Datasets) -> Vec<Result<JobOut, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<JobOut, String>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let result = match job {
                    Job::Exact(src, body) => data
                        .get(src)
                        .and_then(|ds| exact(&ds, body))
                        .map(JobOut::Exact),
                    Job::Uncached(src, body) => data
                        .get(src)
                        .and_then(|ds| uncached_payload(&ds, body))
                        .and_then(|p| Json::parse(&p))
                        .map(|p| JobOut::Uncached(answer_of(&p))),
                };
                out.lock().expect("no checker panics holding the lock")[i] = Some(result);
            });
        }
    });
    out.into_inner()
        .expect("no checker panicked")
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

/// Checks every completed operation.
pub fn check(done: &[&Done], explore: bool, data: &Datasets) -> Verdict {
    let expects = expectations(done, explore);
    // One exact run per (dataset, target); one uncached run per request
    // whose payload must be recomputed, and per distinct request that was
    // ever answered from partials.
    let mut exact_ix: HashMap<(Source, Option<String>), usize> = HashMap::new();
    let mut uncached_ix: HashMap<(Source, String), usize> = HashMap::new();
    let mut jobs = Vec::new();
    for (d, e) in done.iter().zip(&expects) {
        let (Op::Recommend(rec), Some(e)) = (&d.op, e) else {
            continue;
        };
        let mut base = rec.clone();
        base.k = None;
        base.metric = None;
        exact_ix
            .entry((e.source.clone(), rec.where_sql.clone()))
            .or_insert_with(|| {
                jobs.push(Job::Exact(e.source.clone(), base.body()));
                jobs.len() - 1
            });
        let partial = reply_label(d).as_deref() == Some("partial");
        if e.recompute || partial {
            uncached_ix
                .entry((e.source.clone(), d.body.clone()))
                .or_insert_with(|| {
                    jobs.push(Job::Uncached(e.source.clone(), d.body.clone()));
                    jobs.len() - 1
                });
        }
    }
    eprintln!("perfbench: {} in-process reference runs", jobs.len());
    let results = run_jobs(&jobs, data);

    let mut v = Verdict::default();
    // Every reply to one (dataset, request) must carry the same answer, and
    // a hit must carry the exact payload some executed reply produced.
    let mut first_answer: HashMap<(Source, String), String> = HashMap::new();
    let mut computed: HashMap<(Source, String), Vec<String>> = HashMap::new();
    let mut hits = Vec::new();
    let mut distinct: HashMap<(Source, String), usize> = HashMap::new();
    for (d, e) in done.iter().zip(&expects) {
        v.attempted += 1;
        v.accuracy.push(None);
        if d.reply.status != 200 {
            let msg = format!(
                "{}: HTTP {} {:.200}",
                d.body.chars().take(120).collect::<String>(),
                d.reply.status,
                d.reply.body
            );
            if d.reply.status == 503 {
                v.refuse(msg);
            } else {
                v.fail(msg);
            }
            continue;
        }
        let json = match Json::parse(&d.reply.body) {
            Ok(j) => j,
            Err(err) => {
                v.fail(format!("unparseable reply: {err}"));
                continue;
            }
        };
        let (rec, e) = match (&d.op, e) {
            (Op::Ingest { name, .. }, _) => {
                let rows = json.get("rows").and_then(Json::as_u64);
                let got = json.get("name").and_then(Json::as_str);
                if rows != Some(CSV_ROWS as u64) || got != Some(name.as_str()) {
                    v.fail(format!(
                        "ingest of {name}: unexpected reply {}",
                        d.reply.body
                    ));
                }
                continue;
            }
            (Op::Recommend(rec), Some(e)) => (rec, e),
            (Op::Recommend(rec), None) => {
                v.fail(format!("recommend on {} before any upload", rec.dataset));
                continue;
            }
        };
        let label = json.get("cache").and_then(Json::as_str).unwrap_or("");
        *v.labels.entry(label.to_owned()).or_default() += 1;
        if !e.labels.contains(&label) {
            v.fail(format!(
                "{}: cache '{label}', expected {:?}",
                d.body, e.labels
            ));
            continue;
        }
        let answer = answer_of(&json);
        let key = (e.source.clone(), d.body.clone());
        match first_answer.get(&key) {
            Some(first) if *first != answer => {
                v.fail(format!(
                    "{}: '{label}' answer differs from the first",
                    d.body
                ));
                continue;
            }
            Some(_) => {}
            None => {
                first_answer.insert(key.clone(), answer.clone());
            }
        }
        if label == "hit" {
            hits.push((key.clone(), payload_of(&json)));
        } else {
            computed
                .entry(key.clone())
                .or_default()
                .push(payload_of(&json));
        }
        if let Some(&ix) = uncached_ix.get(&key) {
            match &results[ix] {
                Ok(JobOut::Uncached(expected)) if *expected == answer => {}
                Ok(_) => {
                    v.fail(format!(
                        "{}: '{label}' payload differs from an uncached run",
                        d.body
                    ));
                    continue;
                }
                Err(err) => {
                    v.fail(format!("{}: in-process run failed: {err}", d.body));
                    continue;
                }
            }
        }
        let returned: Vec<&str> = json
            .get("views")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|view| view.get("view").and_then(Json::as_str))
            .collect();
        let ix = exact_ix[&(e.source.clone(), rec.where_sql.clone())];
        let Ok(JobOut::Exact(ex)) = &results[ix] else {
            v.fail(format!("{}: exact in-process run failed", d.body));
            continue;
        };
        let (req, _) = request_config(&d.body).expect("parsed above");
        let k = req.config.k.min(ex.names.len());
        if returned.len() != k {
            v.fail(format!(
                "{}: {} views, expected {k}",
                d.body,
                returned.len()
            ));
            continue;
        }
        let top = ex.report.top_k(k, req.config.metric);
        let found = top
            .iter()
            .filter(|&&id| returned.contains(&ex.names[id].as_str()))
            .count();
        let request = distinct.len();
        let request = *distinct.entry(key).or_insert(request);
        *v.accuracy.last_mut().expect("pushed above") = Some((request, found as f64 / k as f64));
    }
    for (key, payload) in hits {
        if !computed.get(&key).is_some_and(|c| c.contains(&payload)) {
            v.fail(format!(
                "{}: 'hit' payload matches no executed reply",
                key.1
            ));
        }
    }
    v
}

/// The `cache` field of a reply, if it parses.
pub fn reply_label(d: &Done) -> Option<String> {
    let j = Json::parse(&d.reply.body).ok()?;
    j.get("cache").and_then(Json::as_str).map(str::to_owned)
}
