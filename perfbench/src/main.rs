//! End-to-end and per-layer benchmark of `seedbd`.
//!
//! ```text
//! seedb-perfbench --seedbd PATH --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! seedb-perfbench --seedbd PATH --self-test [--seed N]
//! ```
//!
//! A run launches the real `seedbd` (default flags, ephemeral port),
//! drives one workload with closed-loop clients for `S` seconds, checks
//! every answer against in-process runs, and prints its metrics; the last
//! line of stdout is one JSON object. End-to-end times are reported at the
//! reference host's speed (see `host`), with the values as measured printed
//! beside them. `--trace 1` adds an in-process replay of the same requests
//! with spans around every layer call and prints the per-layer metrics
//! instead. `--self-test` runs the single-client workloads twice with one
//! seed for a fixed number of operations and fails unless every count
//! repeats exactly.

mod check;
mod daemon;
mod gen;
mod host;
mod load;
mod trace;

use check::Verdict;
use daemon::Daemon;
use load::{Budget, Done, LoadRun, Op, Stream, Workload};
use seedb_util::Json;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{median, ratio, Mirror, Probes, Tracer};

/// `seedbd` launches per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// The window runs in this many equal slices, with a chunk of upload
/// cycles before, between and after them on the BANK workloads, so every
/// workload reports the ingest metrics. Spread over the whole run, the
/// uploads sample the host's slow and fast spells (the short ones last
/// about a second) in the same mix as the window does.
const SLICES: usize = 32;
/// Upload cycles per chunk.
const PROBE_CHUNK: usize = 1;
/// Upload cycles the traced run replays in process.
const REPLAYED_CYCLES: usize = 12;
/// `GET /healthz` round trips sampled after the window (traced run).
const HEALTHZ_SAMPLES: usize = 100;

/// The named tail percentile of each workload: the highest that keeps at
/// least 10 samples beyond it in a 15 s window even when the host runs at
/// two thirds of the throughput measured on a 2-core host (explore_cold
/// 12/s, session_warm 90/s, ingest_refresh 24/s), so a slow spell does not
/// fail the guard.
fn tail_percentile(w: Workload) -> f64 {
    match w {
        Workload::ExploreCold => 90.0,
        Workload::SessionWarm => 98.0,
        Workload::IngestRefresh => 95.0,
    }
}

/// Main-window operations the traced run replays in process.
fn replay_ops(w: Workload) -> usize {
    match w {
        Workload::ExploreCold => 24,
        Workload::SessionWarm => 240,
        Workload::IngestRefresh => 48,
    }
}

/// Executed requests that also get the engine, pruner and utility probes.
const PROBED_REQUESTS: usize = 12;

struct Args {
    seedbd: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seedbd: String::new(),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        out: ".".into(),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{v}'"))
        };
        match flag.as_str() {
            "--seedbd" => args.seedbd = value,
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--out" => args.out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seedbd.is_empty() {
        return Err("--seedbd is required".into());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| {
        if args.self_test {
            self_test(&args)
        } else {
            let name = args.workload.clone().ok_or("--workload is required")?;
            let w = Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?;
            run(&args, w)
        }
    }) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Everything one execution of a workload produced.
struct Execution {
    /// Each set-up's time and the host's slowdown around it (see `host`).
    setups: Vec<(Duration, f64)>,
    /// The host's median slowdown over the run, and the jobs that measured
    /// it.
    slowdown: f64,
    calibration_jobs: usize,
    /// Requests that warm the caches after set-up, before the window.
    warm: Vec<Done>,
    /// Upload-probe chunks (`false`) and window slices (`true`), in the
    /// order they ran.
    segments: Vec<(bool, LoadRun)>,
    peak_rss_mb: f64,
    /// `/statz` after set-up and warm-up, and after the last segment.
    statz_before: Json,
    statz: Json,
    metrics_text: String,
    healthz: Vec<Duration>,
    verdict: Verdict,
    catalog: Arc<seedb_server::Catalog>,
}

impl Execution {
    /// Every operation in the order it was sent.
    fn chronological(&self) -> Vec<&Done> {
        self.warm
            .iter()
            .chain(self.segments.iter().flat_map(|(_, run)| &run.done))
            .collect()
    }

    /// The timed window's operations, in order.
    fn window(&self) -> Vec<&Done> {
        self.segments
            .iter()
            .filter(|(timed, _)| *timed)
            .flat_map(|(_, run)| &run.done)
            .collect()
    }

    /// The timed window's length: the sum of its slices.
    fn window_secs(&self) -> f64 {
        self.segments
            .iter()
            .filter(|(timed, _)| *timed)
            .map(|(_, run)| run.window.as_secs_f64())
            .sum()
    }

    /// Positions of the window's operations in [`Execution::chronological`].
    fn window_positions(&self) -> Vec<usize> {
        let mut at = self.warm.len();
        let mut out = Vec::new();
        for (timed, run) in &self.segments {
            if *timed {
                out.extend(at..at + run.done.len());
            }
            at += run.done.len();
        }
        out
    }

    /// Every upload: the window's and the probes'.
    fn uploads(&self) -> Vec<&Done> {
        self.chronological()
            .into_iter()
            .filter(|d| is_ingest(d))
            .collect()
    }
}

/// Launches `seedbd` until it has answered once on every dataset `w`
/// uses; returns the daemon and the time that took.
fn set_up(binary: &str, w: Workload) -> Result<(Daemon, Duration), String> {
    let start = Instant::now();
    let daemon = Daemon::launch(binary)?;
    let mut warm: Vec<(Op, String)> = Vec::new();
    match w {
        Workload::IngestRefresh => {
            // Cycle numbers far past any run's last cycle: set-up bytes
            // never coincide with a timed upload's.
            for (i, name) in gen::INGEST_NAMES.iter().enumerate() {
                let op = Op::Ingest {
                    name: (*name).to_owned(),
                    cycle: u64::MAX - i as u64,
                };
                warm.push((op.clone(), load::body_of(&op, 0)));
                let rec = gen::Rec {
                    dataset: (*name).to_owned(),
                    rows: None,
                    where_sql: None,
                    k: None,
                    metric: None,
                };
                warm.push((Op::Recommend(rec.clone()), rec.body()));
            }
        }
        _ => {
            // The dataset's canonical target: no timed request uses it.
            let rec = gen::Rec {
                dataset: "BANK".into(),
                rows: Some(gen::BANK_ROWS),
                where_sql: None,
                k: None,
                metric: None,
            };
            warm.push((Op::Recommend(rec.clone()), rec.body()));
        }
    }
    for (op, body) in &warm {
        let reply = load::send(&daemon, body, op);
        if reply.status != 200 {
            return Err(format!(
                "set-up request failed: HTTP {} {}",
                reply.status, reply.body
            ));
        }
    }
    Ok((daemon, start.elapsed()))
}

/// Sets `w` up `setups` times, then runs its window in [`SLICES`] slices of
/// `slice` each, with `probe_chunk` upload cycles around every slice.
fn execute(
    args: &Args,
    w: Workload,
    slice: Budget,
    probe_chunk: usize,
    setups: usize,
) -> Result<Execution, String> {
    let catalog = Arc::new(check::default_catalog());
    let bank = match w {
        Workload::IngestRefresh => None,
        _ => Some(
            catalog
                .dataset("BANK", gen::BANK_ROWS)
                .map_err(|e| e.to_string())?,
        ),
    };

    // The host's speed is sampled while no seedbd works: before and after
    // every set-up and every segment. Each takes the mean of the two.
    let mut calibration = host::Calibration::new();
    let mut before = calibration.sample();
    let mut times = Vec::new();
    let mut daemon = None;
    for _ in 0..setups {
        drop(daemon.take());
        let (d, t) = set_up(&args.seedbd, w)?;
        let after = calibration.sample();
        times.push((t, (before + after) / 2.0));
        before = after;
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    let warm = match w {
        Workload::SessionWarm => {
            // Every pooled target asked once, split across the clients.
            let pool = gen::session_pool(args.seed);
            let per = pool.len().div_ceil(w.clients());
            let mut streams: Vec<Stream> = pool
                .chunks(per)
                .map(|chunk| {
                    let ops: Vec<Op> = chunk
                        .iter()
                        .map(|sql| Op::Recommend(gen::Rec::bank(sql.clone())))
                        .collect();
                    Box::new(ops.into_iter()) as Stream
                })
                .collect();
            load::run(&daemon, args.seed, &mut streams, Budget::Ops(per)).done
        }
        _ => Vec::new(),
    };

    // Set-up's own uploads are not the window's: count `/datasets` from here.
    let statz_before = daemon.statz()?;
    // A probe cycle is an upload and the three requests that follow it.
    let mut probe: Vec<Stream> = vec![Box::new(load::ingest_cycles(0))];
    let mut clients: Vec<Stream> = (0..w.clients()).map(|c| w.stream(args.seed, c)).collect();
    let mut segments: Vec<(bool, LoadRun)> = Vec::new();
    let mut before = calibration.sample();
    let mut calibrated = |timed: bool, mut run: LoadRun| {
        let after = calibration.sample();
        run.slowdown = (before + after) / 2.0;
        before = after;
        segments.push((timed, run));
    };
    for slice_no in 0..=SLICES {
        if probe_chunk > 0 {
            let chunk = load::run(&daemon, args.seed, &mut probe, Budget::Ops(probe_chunk * 4));
            calibrated(false, chunk);
        }
        if slice_no < SLICES {
            calibrated(true, load::run(&daemon, args.seed, &mut clients, slice));
        }
    }
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let statz = daemon.statz()?;
    let metrics_text = if args.trace {
        daemon.call("GET", "/metrics", None).body
    } else {
        String::new()
    };
    let healthz = if args.trace {
        (0..HEALTHZ_SAMPLES)
            .map(|_| daemon.call("GET", "/healthz", None).rtt)
            .collect()
    } else {
        Vec::new()
    };
    drop(daemon);

    let check_start = Instant::now();
    let bank = match bank {
        Some(b) => b,
        // The ingest workload never asks for BANK; any dataset will do.
        None => Arc::new(seedb_data::bank::generate(
            0.001,
            1,
            seedb_storage::StoreKind::Column,
        )),
    };
    let mut ex = Execution {
        setups: times,
        slowdown: calibration.slowdown(),
        calibration_jobs: calibration.jobs(),
        warm,
        segments,
        peak_rss_mb,
        statz_before,
        statz,
        metrics_text,
        healthz,
        verdict: Verdict::default(),
        catalog,
    };
    eprintln!(
        "perfbench: {} operations sent, checking",
        ex.chronological().len()
    );
    ex.verdict = check::check(
        &ex.chronological(),
        w == Workload::ExploreCold,
        &check::Datasets::new(bank, args.seed),
    );
    eprintln!(
        "perfbench: checks took {:.1} s",
        check_start.elapsed().as_secs_f64()
    );
    Ok(ex)
}

/// Nearest-rank percentile of sorted `xs`, with the count beyond it.
fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], sorted.len() - rank)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Round trips in ms, sorted.
fn sorted_ms<'a>(done: impl Iterator<Item = &'a Done>) -> Vec<f64> {
    let mut v: Vec<f64> = done.map(|d| ms(d.reply.rtt)).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn is_ingest(d: &Done) -> bool {
    matches!(d.op, Op::Ingest { .. })
}

/// A metric line for the log and an entry for the result object.
struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    ok: bool,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("  {name:<36} {value:>14.4} {unit:<8} n={samples}");
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    fn problem(&mut self, msg: String) {
        println!("  FAIL: {msg}");
        self.ok = false;
    }
}

fn run(args: &Args, w: Workload) -> Result<bool, String> {
    let probe_chunk = match w {
        Workload::IngestRefresh => 0,
        _ => PROBE_CHUNK,
    };
    let slice = Budget::Time(Duration::from_secs(args.seconds) / SLICES as u32);
    let ex = execute(args, w, slice, probe_chunk, SETUPS)?;
    let mut r = Report {
        metrics: BTreeMap::new(),
        ok: true,
    };
    let v = &ex.verdict;
    println!(
        "workload {} seed {} clients {} (closed loop) window {:.2} s in {SLICES} slices",
        w.name(),
        args.seed,
        w.clients(),
        ex.window_secs()
    );
    for e in &v.errors {
        r.problem(e.clone());
    }
    if v.failed > 0 {
        r.problem(format!(
            "{} of {} operations wrong or failed",
            v.failed, v.attempted
        ));
    }
    for e in &v.refusals {
        println!("  REFUSED: {e}");
    }

    let main_recs: Vec<&Done> = ex.window().into_iter().filter(|d| !is_ingest(d)).collect();
    let tail_p = tail_percentile(w);
    let lat = sorted_ms(main_recs.iter().copied());
    let (_, beyond) = percentile(&lat, tail_p);
    if beyond < 10 {
        r.problem(format!(
            "p{tail_p} has {beyond} samples beyond it (< 10): run longer"
        ));
    }
    if args.trace {
        println!("per-layer metrics (traced in-process replay):");
        traced(args, w, &ex, &mut r)?;
    } else {
        println!(
            "end-to-end metrics (at the reference host's speed: host slowdown {:.4} from {} calibration jobs):",
            ex.slowdown, ex.calibration_jobs
        );
        println!("  (latency_tail_ms is p{tail_p}, {beyond} samples beyond it)");
        for (name, value, unit, n) in timings(&ex, tail_p, false) {
            r.put(name, value, unit, n);
        }
        println!(
            "  {:<36} {:>14.4} {:<8} n={}",
            "error_rate",
            ratio((v.failed + v.refused) as f64, v.attempted as f64),
            "ratio",
            v.attempted
        );
        let (accuracy, scored) = v.topk_accuracy(ex.window_positions());
        r.put("topk_accuracy", accuracy, "ratio", scored);
        r.put("peak_rss_mb", ex.peak_rss_mb, "MiB", 1);
        println!("  as measured:");
        for (name, value, unit, n) in timings(&ex, tail_p, true) {
            println!("  {name:<36} {value:>14.4} {unit:<8} n={n}");
        }
    }
    let mut metrics = Json::obj();
    for (name, (value, unit)) in &r.metrics {
        metrics = metrics.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    let result = Json::obj()
        .set("correct", r.ok)
        .set("attempted", v.attempted)
        .set("failed", v.failed + v.refused)
        .set("metrics", metrics);
    println!("{}", result.compact());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(r.ok)
}

/// The timing metrics (name, value, unit, samples): each set-up's and
/// segment's times divided by the host's slowdown around it, or (`raw`) as
/// measured.
fn timings(
    ex: &Execution,
    tail_p: f64,
    raw: bool,
) -> [(&'static str, f64, &'static str, usize); 6] {
    let scale = |slowdown: f64| if raw { 1.0 } else { slowdown };
    let mut lat = Vec::new();
    let mut ing = Vec::new();
    let mut window_secs = 0.0;
    let mut ingest_bytes = 0;
    for (timed, run) in &ex.segments {
        let s = scale(run.slowdown);
        if *timed {
            window_secs += run.window.as_secs_f64() / s;
        }
        for d in &run.done {
            if is_ingest(d) {
                ing.push(ms(d.reply.rtt) / s);
                ingest_bytes += d.body.len();
            } else if *timed {
                lat.push(ms(d.reply.rtt) / s);
            }
        }
    }
    lat.sort_by(f64::total_cmp);
    ing.sort_by(f64::total_cmp);
    let setups: Vec<f64> = ex
        .setups
        .iter()
        .map(|(t, slowdown)| t.as_secs_f64() / scale(*slowdown))
        .collect();
    [
        ("setup_s", median_f(&setups), "s", setups.len()),
        ("latency_p50_ms", percentile(&lat, 50.0).0, "ms", lat.len()),
        (
            "latency_tail_ms",
            percentile(&lat, tail_p).0,
            "ms",
            lat.len(),
        ),
        (
            "throughput_rps",
            lat.len() as f64 / window_secs,
            "1/s",
            lat.len(),
        ),
        ("ingest_p50_ms", percentile(&ing, 50.0).0, "ms", ing.len()),
        (
            "ingest_mb_s",
            ratio(ingest_bytes as f64 / 1e3, ing.iter().sum::<f64>()),
            "MB/s",
            ing.len(),
        ),
    ]
}

fn median_f(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).0
}

/// The `stats` of the window's executed (non-hit) `/recommend` payloads.
fn executed_stats(ex: &Execution) -> Vec<Json> {
    ex.window()
        .into_iter()
        .filter(|d| !is_ingest(d))
        .filter_map(|d| Json::parse(&d.reply.body).ok())
        .filter(|j| j.get("cache").and_then(Json::as_str) != Some("hit"))
        .filter_map(|j| j.get("stats").cloned())
        .collect()
}

/// The interpolated median of a Prometheus log₂ histogram in `text`.
fn prom_histogram_p50(text: &str, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse().ok()?, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total == 0.0 {
        return 0.0;
    }
    let half = total / 2.0;
    let mut prev = (0.0, 0.0);
    for &(le, cum) in &buckets {
        if cum >= half {
            let lo = if prev.0 == 0.0 { le / 2.0 } else { prev.0 };
            return lo + (le - lo) * (half - prev.1) / (cum - prev.1).max(1.0);
        }
        prev = (le, cum);
    }
    prev.0
}

/// Times `seedbd`'s HTTP request reader on `body` over a loopback socket.
fn http_read(body: &str) -> Result<Duration, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let raw = format!(
        "POST /datasets HTTP/1.1\r\nHost: seedbd\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut s = std::net::TcpStream::connect(addr)?;
            s.write_all(raw.as_bytes())?;
            let _ = s.read_to_end(&mut Vec::new());
            Ok(())
        });
        let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let req = seedb_server::http::read_request(&mut stream);
        let took = start.elapsed();
        drop(stream);
        writer
            .join()
            .map_err(|_| "writer panicked".to_owned())?
            .map_err(|e| e.to_string())?;
        req.map(|_| took).map_err(|e| e.message())
    })
}

/// The traced in-process replay and every per-layer metric.
fn traced(args: &Args, w: Workload, ex: &Execution, r: &mut Report) -> Result<(), String> {
    let mut traced = Tracer::new(true);
    let mut untraced = Tracer::new(false);

    // Cold builds of BANK at the size the BANK workloads use.
    for _ in 0..3 {
        let catalog = check::default_catalog();
        traced
            .time("catalog.build", 0, || {
                catalog.dataset("BANK", gen::BANK_ROWS)
            })
            .map_err(|e| e.to_string())?;
    }

    // Window requests come before the first upload-probe chunks, so the
    // engine probes below go to the workload's own requests.
    let probes = ex
        .segments
        .iter()
        .filter(|(timed, _)| !*timed)
        .take(REPLAYED_CYCLES.div_ceil(PROBE_CHUNK));
    let ops: Vec<&Done> = ex
        .warm
        .iter()
        .chain(ex.window().into_iter().take(replay_ops(w)))
        .chain(probes.flat_map(|(_, run)| &run.done))
        .collect();
    let mirror_on = Mirror::new(ex.catalog.clone());
    let mirror_off = Mirror::new(ex.catalog.clone());
    let mut walls_on = Vec::new();
    let mut walls_off = Vec::new();
    let mut probes = Probes::default();
    let mut resume = Vec::new();
    let mut json_parse = (Duration::ZERO, 0usize);
    let mut csv_parse = (Duration::ZERO, 0usize);
    let mut http_reads = Vec::new();
    let mut labels: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, d) in ops.iter().enumerate() {
        let id = i as u64 + 1;
        // Alternate which mirror goes first, so neither gains from the
        // other warming the caches.
        let order = if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        let mut replayed = None;
        for on in order {
            let (mirror, t) = if on {
                (&mirror_on, &mut traced)
            } else {
                (&mirror_off, &mut untraced)
            };
            let start = Instant::now();
            let out = match &d.op {
                Op::Recommend(_) => mirror.recommend(t, id, &d.body).map(Some),
                Op::Ingest { .. } => mirror.ingest(t, id, &d.body).map(|_| None),
            }?;
            let wall = start.elapsed();
            if on {
                walls_on.push(wall);
                replayed = out;
            } else {
                walls_off.push(wall);
            }
        }

        // Layer probes outside the request tree (not part of coverage).
        let json_start = Instant::now();
        let parsed = traced.time("json.parse", id, || Json::parse(&d.body));
        let took = json_start.elapsed();
        parsed?;
        if !is_ingest(d) {
            // Ingest bodies are already timed inside their request tree.
            json_parse.0 += took;
            json_parse.1 += d.body.len();
        }
        match (&d.op, replayed) {
            (Op::Ingest { cycle, .. }, _) => {
                let text = gen::csv_text(args.seed, *cycle);
                let start = Instant::now();
                traced
                    .time("csv.parse", id, || seedb_server::csv::parse_csv(&text))
                    .map_err(|e| format!("csv: {e}"))?;
                csv_parse.0 += start.elapsed();
                csv_parse.1 += text.len();
                http_reads.push(traced.time("http.read", id, || http_read(&d.body))?);
            }
            (Op::Recommend(_), Some(rep)) => {
                *labels.entry(rep.label).or_default() += 1;
                if rep.label == "partial" {
                    if let Some(s) = traced
                        .spans
                        .iter()
                        .rev()
                        .find(|s| s.name == "core.recommend_cached")
                    {
                        resume.push(s.dur());
                    }
                }
                if let Some((ds, target, config)) = rep.run {
                    if probes.comb.len() < PROBED_REQUESTS {
                        probes.probe(&mut traced, id, &ds, &target, &config)?;
                    }
                }
            }
            _ => {}
        }
    }
    // Ingest bodies' JSON parse: the spans inside their request trees.
    for (s, d) in traced
        .spans
        .iter()
        .filter(|s| s.name == "json.parse" && s.parent.is_some())
        .zip(ops.iter().filter(|d| is_ingest(d)))
    {
        json_parse.0 += s.dur();
        json_parse.1 += d.body.len();
    }

    let path =
        std::path::Path::new(&args.out).join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    traced.write(&path).map_err(|e| e.to_string())?;
    println!(
        "  spans: {} written to {}",
        traced.spans.len(),
        path.display()
    );
    println!("  replayed dispositions: {labels:?}");

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let p50 = |name: &str| median(&traced.durations(name));
    let n = |name: &str| traced.durations(name).len();
    let per_kb = |(t, bytes): (Duration, usize)| ratio(us(t), bytes as f64 / 1024.0);

    r.put(
        "json.parse_us_per_kb",
        per_kb(json_parse),
        "us/KB",
        ops.len(),
    );
    r.put(
        "json.render_us",
        us(p50("json.render")),
        "us",
        n("json.render"),
    );
    r.put(
        "csv.parse_us_per_kb",
        per_kb(csv_parse),
        "us/KB",
        n("csv.parse"),
    );
    r.put(
        "catalog.ingest_ms",
        ms(p50("catalog.ingest")),
        "ms",
        n("catalog.ingest"),
    );
    r.put(
        "catalog.build_ms",
        ms(p50("catalog.build")),
        "ms",
        n("catalog.build"),
    );
    r.put(
        "http.rtt_ms",
        ms(median(&ex.healthz)),
        "ms",
        ex.healthz.len(),
    );
    r.put(
        "http.read_ms",
        ms(median(&http_reads)),
        "ms",
        http_reads.len(),
    );
    let num = |statz: &Json, path: &[&str]| {
        let mut j = statz;
        for key in path {
            j = j.get(key).unwrap_or(&Json::Null);
        }
        j.as_num().unwrap_or(0.0)
    };
    let statz_num = |path: &[&str]| num(&ex.statz, path);
    let statz_delta = |path: &[&str]| num(&ex.statz, path) - num(&ex.statz_before, path);
    // Where an upload's HTTP round trip goes: seedbd's own mean
    // `/datasets` handler time, and the rest (transport, connection
    // handling). The handler's work is what json.parse and catalog.ingest
    // time in process.
    let routed = statz_delta(&["latency", "datasets", "count"]);
    let route_ms = ratio(
        statz_delta(&["latency", "datasets", "total_us"]) / 1e3,
        routed,
    );
    r.put("ingest.route_ms", route_ms, "ms", routed as usize);
    let http_ingest: Vec<Duration> = ex.uploads().iter().map(|d| d.reply.rtt).collect();
    let mean_rtt_ms = ratio(ms(http_ingest.iter().sum()), http_ingest.len() as f64);
    r.put(
        "ingest.transport_ms",
        mean_rtt_ms - route_ms,
        "ms",
        http_ingest.len(),
    );
    r.put("api.parse_us", us(p50("api.parse")), "us", n("api.parse"));
    r.put(
        "sql.plan_where_us",
        us(p50("sql.plan_where")),
        "us",
        n("sql.plan_where"),
    );

    let labels_http = &ex.verdict.labels;
    let main_recs = ex.window().iter().filter(|d| !is_ingest(d)).count();
    let main_labels = |label: &str| {
        ex.window()
            .into_iter()
            .filter(|d| !is_ingest(d))
            .filter(|d| check::reply_label(d).as_deref() == Some(label))
            .count() as f64
    };
    println!("  checked dispositions (window + probe): {labels_http:?}");
    r.put(
        "cache.hit_ratio",
        ratio(main_labels("hit"), main_recs as f64),
        "ratio",
        main_recs,
    );
    r.put(
        "cache.partial_ratio",
        ratio(main_labels("partial"), main_recs as f64),
        "ratio",
        main_recs,
    );
    r.put(
        "cache.miss_ratio",
        ratio(main_labels("miss"), main_recs as f64),
        "ratio",
        main_recs,
    );
    r.put(
        "cache.evictions",
        statz_num(&["cache", "evictions"]),
        "count",
        1,
    );
    r.put(
        "cache.probe_us",
        us(p50("cache.probe")),
        "us",
        n("cache.probe"),
    );
    r.put("plan.us", us(p50("core.plan")), "us", n("core.plan"));
    r.put(
        "executor.recommend_ms",
        ms(median(&probes.comb)),
        "ms",
        probes.comb.len(),
    );
    r.put(
        "executor.phases",
        ratio(
            probes.phases.iter().sum::<usize>() as f64,
            probes.phases.len() as f64,
        ),
        "count",
        probes.phases.len(),
    );
    r.put(
        "executor.phase_ms",
        ratio(
            probes.phase_us.iter().sum::<u64>() as f64 / 1e3,
            probes.phase_us.len() as f64,
        ),
        "ms",
        probes.phase_us.len(),
    );
    r.put(
        "pruning.views_pruned_early_ratio",
        ratio(probes.pruned_early as f64, probes.views as f64),
        "ratio",
        probes.views,
    );
    let sum_secs = |v: &[Duration]| v.iter().map(Duration::as_secs_f64).sum::<f64>();
    r.put(
        "pruning.comb_over_sharing",
        ratio(sum_secs(&probes.comb), sum_secs(&probes.sharing)),
        "ratio",
        probes.comb.len(),
    );
    r.put(
        "partials.resume_ms",
        ms(median(&resume)),
        "ms",
        resume.len(),
    );
    r.put(
        "metrics.utility_us_per_view",
        ratio(sum_secs(&probes.utility) * 1e6, probes.utility_views as f64),
        "us",
        probes.utility_views,
    );
    let stats = executed_stats(ex);
    let stat_sum = |key: &str| {
        stats
            .iter()
            .filter_map(|s| s.get(key).and_then(Json::as_num))
            .sum::<f64>()
    };
    let runs = stats.len() as f64;
    r.put(
        "engine.rows_scanned",
        ratio(stat_sum("rows_scanned"), runs),
        "count",
        stats.len(),
    );
    r.put(
        "engine.cells_visited",
        ratio(stat_sum("cells_visited"), runs),
        "count",
        stats.len(),
    );
    r.put(
        "engine.partitions_pruned_ratio",
        ratio(
            stat_sum("partitions_pruned"),
            stat_sum("partitions_pruned") + stat_sum("partitions_scanned"),
        ),
        "ratio",
        stats.len(),
    );
    r.put(
        "engine.ns_per_cell",
        ratio(sum_secs(&probes.sharing) * 1e9, probes.sharing_cells as f64),
        "ns",
        probes.sharing.len(),
    );
    r.put(
        "parallel.lease_waits_per_1k",
        ratio(
            statz_delta(&["overload", "lease_waits"]) * 1e3,
            main_recs as f64,
        ),
        "count",
        main_recs,
    );
    r.put(
        "admission.queue_wait_p50_ms",
        prom_histogram_p50(&ex.metrics_text, "seedbd_admission_wait_us") / 1e3,
        "ms",
        1,
    );
    r.put(
        "obs.trace_overhead",
        median_f(
            &walls_on
                .iter()
                .zip(&walls_off)
                .map(|(on, off)| ratio(on.as_secs_f64(), off.as_secs_f64()))
                .collect::<Vec<_>>(),
        ),
        "ratio",
        walls_on.len(),
    );
    let coverage = traced.coverage();
    r.put("trace.coverage", coverage, "ratio", walls_on.len());
    if coverage < 0.9 {
        r.problem(format!("trace coverage {coverage:.3} < 0.9"));
    }
    Ok(())
}

/// Counts that must repeat exactly between two runs with one seed.
fn counts(args: &Args, w: Workload) -> Result<BTreeMap<String, String>, String> {
    // Operations per window slice, upload cycles per probe chunk.
    let (ops, probe_chunk) = match w {
        Workload::ExploreCold => (1, 1),
        _ => (2, 0),
    };
    let ex = execute(args, w, Budget::Ops(ops), probe_chunk, 1)?;
    let mut c = BTreeMap::new();
    let stats = executed_stats(&ex);
    for key in [
        "rows_scanned",
        "cells_visited",
        "partitions_scanned",
        "partitions_pruned",
    ] {
        let sum: f64 = stats
            .iter()
            .filter_map(|s| s.get(key).and_then(Json::as_num))
            .sum();
        c.insert(format!("engine.{key}"), sum.to_string());
    }
    for (label, n) in &ex.verdict.labels {
        c.insert(format!("cache.{label}"), n.to_string());
    }
    c.insert(
        "cache.evictions".into(),
        ex.statz
            .get("cache")
            .and_then(|j| j.get("evictions"))
            .map_or(String::new(), Json::compact),
    );
    c.insert(
        "topk_accuracy".into(),
        ex.verdict
            .topk_accuracy(0..ex.verdict.accuracy.len())
            .0
            .to_string(),
    );
    c.insert("failed".into(), ex.verdict.failed.to_string());
    let mut probes = Probes::default();
    let mut t = Tracer::new(false);
    let mirror = Mirror::new(ex.catalog.clone());
    for (i, d) in ex.chronological().into_iter().enumerate() {
        match &d.op {
            Op::Ingest { .. } => mirror.ingest(&mut t, i as u64, &d.body)?,
            Op::Recommend(_) => {
                if let Some((ds, target, config)) = mirror.recommend(&mut t, i as u64, &d.body)?.run
                {
                    probes.probe(&mut t, i as u64, &ds, &target, &config)?;
                }
            }
        }
    }
    c.insert("executor.phases".into(), format!("{:?}", probes.phases));
    c.insert(
        "pruning.views_pruned_early".into(),
        probes.pruned_early.to_string(),
    );
    Ok(c)
}

/// Runs each single-client workload twice with one seed; every count must
/// repeat exactly.
fn self_test(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for w in [Workload::ExploreCold, Workload::IngestRefresh] {
        let first = counts(args, w)?;
        let second = counts(args, w)?;
        for (key, value) in &first {
            let again = second.get(key).map_or("<missing>", String::as_str);
            let same = again == value;
            ok &= same;
            println!(
                "{} {:<32} {value} {}",
                w.name(),
                key,
                if same {
                    "repeats".to_owned()
                } else {
                    format!("!= {again}")
                }
            );
        }
        ok &= first.len() == second.len() && first.get("failed").map(String::as_str) == Some("0");
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
