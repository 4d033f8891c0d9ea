//! Seeded input generation: BANK target predicates, the per-workload
//! request streams, and the CSV uploads. Everything here is a pure function
//! of the seed, so a run can be replayed (and re-checked) exactly.

use seedb_data::bank;
use seedb_data::gen::zipf_weights;
use seedb_util::Json;
use std::collections::HashSet;

/// Rows of the BANK instance every BANK request asks for (Table 1 size).
pub const BANK_ROWS: usize = 40_000;

/// SplitMix64: tiny, seedable, and identical on every host.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// One conjunct of a target `WHERE`: its column, its SQL text, and the
/// share of BANK rows it is expected to keep.
#[derive(Clone)]
struct Atom {
    column: String,
    sql: String,
    selectivity: f64,
}

/// Every single-column atom the BANK predicates are built from: label
/// equalities on the dimensions and one-sided bands on the measures.
fn bank_atoms() -> Vec<Atom> {
    let spec = bank::spec();
    let mut atoms = Vec::new();
    for (i, dim) in spec.dims.iter().enumerate() {
        let weights: Vec<f64> = if i == spec.target_dim {
            vec![spec.target_fraction, 1.0 - spec.target_fraction]
        } else {
            zipf_weights(dim.labels.len(), dim.skew)
        };
        let total: f64 = weights.iter().sum();
        for (label, w) in dim.labels.iter().zip(&weights) {
            atoms.push(Atom {
                column: dim.name.clone(),
                sql: format!("{} = '{}'", dim.name, label),
                selectivity: w / total,
            });
        }
    }
    for m in &spec.measures {
        for (op, z, keep) in [(">=", 0.5, 0.31), ("<", -0.5, 0.31), (">=", -0.5, 0.69)] {
            let bound = ((m.mean + z * m.sd) * 10.0).round() / 10.0;
            atoms.push(Atom {
                column: m.name.clone(),
                sql: format!("{} {op} {bound}", m.name),
                selectivity: keep,
            });
        }
    }
    atoms
}

/// Distinct BANK target predicates of 1–3 conjuncts on distinct columns,
/// drawn without replacement. Conjuncts are sorted, so two draws of the
/// same set spell the same SQL, just as the server's cache key
/// canonicalizes them; each predicate is expected to keep at least 2 % of
/// the rows, so no target is empty.
pub struct PredicateSource {
    atoms: Vec<Atom>,
    seen: HashSet<String>,
    rng: Rng,
}

impl PredicateSource {
    /// A source that never draws BANK's canonical target (what set-up asks
    /// for) nor any of `taken`.
    pub fn new(seed: u64, stream: u64, taken: &[String]) -> PredicateSource {
        let spec = bank::spec();
        let target = &spec.dims[spec.target_dim];
        let mut seen: HashSet<String> = taken.iter().cloned().collect();
        seen.insert(format!("{} = '{}'", target.name, target.labels[0]));
        PredicateSource {
            atoms: bank_atoms(),
            seen,
            rng: Rng::new(seed, stream),
        }
    }

    /// A fresh predicate of 1–3 conjuncts.
    pub fn draw(&mut self) -> String {
        loop {
            let n = 1 + self.rng.below(3);
            let mut picked: Vec<&Atom> = Vec::new();
            while picked.len() < n {
                let atom = &self.atoms[self.rng.below(self.atoms.len())];
                if picked.iter().all(|a| a.column != atom.column) {
                    picked.push(atom);
                }
            }
            if picked.iter().map(|a| a.selectivity).product::<f64>() < 0.02 {
                continue;
            }
            let mut conjuncts: Vec<&str> = picked.iter().map(|a| a.sql.as_str()).collect();
            conjuncts.sort_unstable();
            let sql = conjuncts.join(" AND ");
            if self.seen.insert(sql.clone()) {
                return sql;
            }
        }
    }

    /// A fresh drill-down: one of `bases`, drawn by `weights`, narrowed by
    /// one conjunct on a column it does not constrain yet. The base is
    /// drawn again on every attempt, so a popular base whose drill-downs
    /// are all taken cannot stall the stream.
    pub fn drill(&mut self, bases: &[String], weights: &[f64]) -> String {
        loop {
            let base = &bases[self.rng.weighted(weights)];
            let atom = &self.atoms[self.rng.below(self.atoms.len())];
            if base.contains(&format!("{} ", atom.column)) {
                continue;
            }
            let mut conjuncts: Vec<&str> = base.split(" AND ").collect();
            conjuncts.push(&atom.sql);
            conjuncts.sort_unstable();
            let sql = conjuncts.join(" AND ");
            if self.seen.insert(sql.clone()) {
                return sql;
            }
        }
    }
}

/// A `/recommend` request: the target plus the knobs a request may vary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Rec {
    pub dataset: String,
    pub rows: Option<usize>,
    pub where_sql: Option<String>,
    pub k: Option<usize>,
    pub metric: Option<&'static str>,
}

impl Rec {
    pub fn bank(where_sql: String) -> Rec {
        Rec {
            dataset: "BANK".into(),
            rows: Some(BANK_ROWS),
            where_sql: Some(where_sql),
            k: None,
            metric: None,
        }
    }

    pub fn body(&self) -> String {
        let mut j = Json::obj().set("dataset", self.dataset.as_str());
        if let Some(rows) = self.rows {
            j = j.set("rows", rows);
        }
        if let Some(w) = &self.where_sql {
            j = j.set("where", w.as_str());
        }
        if let Some(k) = self.k {
            j = j.set("k", k);
        }
        if let Some(m) = self.metric {
            j = j.set("metric", m);
        }
        j.compact()
    }
}

/// `explore_cold`: distinct 1–3-conjunct targets, each a miss in both caches.
pub fn explore_stream(seed: u64) -> impl Iterator<Item = Rec> {
    let mut source = PredicateSource::new(seed, 1, &[]);
    std::iter::from_fn(move || Some(Rec::bank(source.draw())))
}

/// Pool size and Zipf skew of the `session_warm` shared predicates.
const SESSION_POOL: usize = 40;
const SESSION_SKEW: f64 = 1.0;

/// Each block of 20 requests of a `session_warm` client holds exactly 12
/// repeats of a pooled default request, 5 variants (a pooled target with
/// another `k` or metric) and 3 drill-downs no one has asked before, in a
/// seeded order. A fixed mix keeps the share of expensive misses, which
/// sets the throughput of the closed loop, the same for every seed.
const SESSION_BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2];

/// The pooled `session_warm` targets: the same for both clients (they
/// depend on the seed only). Set-up asks for each once, so a repeat in
/// the timed window is a response-cache hit.
pub fn session_pool(seed: u64) -> Vec<String> {
    let mut source = PredicateSource::new(seed, 2, &[]);
    (0..SESSION_POOL).map(|_| source.draw()).collect()
}

/// `session_warm`'s request stream for one client over the shared pool.
pub fn session_stream(seed: u64, client: u64) -> impl Iterator<Item = Rec> {
    let pool = session_pool(seed);
    let weights = zipf_weights(SESSION_POOL, SESSION_SKEW);
    // Drill-downs: one seeded sequence of fresh predicates, none in the
    // pool, that the two clients deal between them (even and odd), so no
    // drill-down is ever asked twice.
    let mut drills = {
        let pool = pool.clone();
        let weights = weights.clone();
        let mut source = PredicateSource::new(seed, 100, &pool);
        std::iter::from_fn(move || Some(source.drill(&pool, &weights)))
            .skip(client as usize)
            .step_by(2)
    };
    let mut rng = Rng::new(seed, 200 + client);
    let mut block = Vec::new();
    std::iter::from_fn(move || {
        if block.is_empty() {
            block = SESSION_BLOCK.to_vec();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
        }
        let kind = block.pop().expect("refilled above");
        let mut rec = Rec::bank(pool[rng.weighted(&weights)].clone());
        match (kind, rng.below(4)) {
            (0, _) => {}
            (1, 0) => rec.k = Some(5),
            (1, 1) => rec.k = Some(15),
            (1, 2) => rec.metric = Some("L1"),
            (1, _) => rec.metric = Some("EUCLIDEAN"),
            _ => rec.where_sql = drills.next(),
        }
        Some(rec)
    })
}

/// Dimensions and measures of the generated upload tables. Three
/// dimensions by three measures give 9 views, so the `k` of the ingest
/// requests (3 and 5) leaves the pruner real choices.
const CSV_DIMS: [(&str, &[&str]); 3] = [
    ("region", &["n", "s", "e", "w", "c"]),
    ("tier", &["a", "b", "c", "d"]),
    ("chan", &["x", "y", "z"]),
];
const CSV_MEASURES: [&str; 3] = ["qty", "price", "score"];

/// Rows of each upload: about 64 KB of CSV, large enough that `Json::parse`
/// dominates the ingest cost.
pub const CSV_ROWS: usize = 4_000;

/// The CSV text uploaded in ingest cycle `cycle`. Every cycle's bytes
/// differ, so every re-upload must re-key the cache.
pub fn csv_text(seed: u64, cycle: u64) -> String {
    let mut rng = Rng::new(seed, cycle.wrapping_add(1_000));
    let weights: Vec<Vec<f64>> = CSV_DIMS
        .iter()
        .map(|(_, labels)| zipf_weights(labels.len(), 0.5))
        .collect();
    // Each cycle plants its own effect: one dimension shifts one measure.
    let effect_dim = rng.below(CSV_DIMS.len());
    let effect_measure = rng.below(CSV_MEASURES.len());
    let mut out = String::with_capacity(CSV_ROWS * 18 + 64);
    let header: Vec<&str> = CSV_DIMS
        .iter()
        .map(|(n, _)| *n)
        .chain(CSV_MEASURES)
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for _ in 0..CSV_ROWS {
        let codes: Vec<usize> = weights.iter().map(|w| rng.weighted(w)).collect();
        for (d, code) in codes.iter().enumerate() {
            out.push_str(CSV_DIMS[d].1[*code]);
            out.push(',');
        }
        for m in 0..CSV_MEASURES.len() {
            let mut v = 100 + rng.below(400);
            if m == effect_measure {
                v += 120 * codes[effect_dim];
            }
            out.push_str(&v.to_string());
            out.push(if m + 1 == CSV_MEASURES.len() {
                '\n'
            } else {
                ','
            });
        }
    }
    out
}

/// Names the ingest cycles upload under: each re-upload replaces the bytes
/// of an earlier one.
pub const INGEST_NAMES: [&str; 3] = ["upload_0", "upload_1", "upload_2"];

/// The `POST /datasets` body for `csv` under `name`.
pub fn ingest_body(name: &str, csv: &str) -> String {
    Json::obj().set("name", name).set("csv", csv).compact()
}

/// The three `/recommend` requests that follow each upload: a miss, its
/// exact repeat (a hit), and a `k` variant (a partials replay).
pub fn ingest_requests(name: &str) -> [Rec; 3] {
    let base = Rec {
        dataset: name.to_owned(),
        rows: None,
        where_sql: Some("region = 'n'".into()),
        k: Some(3),
        metric: None,
    };
    let mut variant = base.clone();
    variant.k = Some(5);
    [base.clone(), base, variant]
}
