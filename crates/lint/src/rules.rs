//! The rule engine: token-sequence checks over the lexed workspace.
//!
//! | rule | invariant |
//! |------|-----------|
//! | L1   | no `.lock().unwrap()` / `.lock().expect(…)` anywhere — all locking goes through the poison-recovering `seedb_util::plock` |
//! | L2   | no `panic!`-family macros, `.unwrap()`, `.expect(…)`, or slice indexing in request-path code (`crates/server/src`, `crates/sql/src`, `crates/util/src/json.rs`, non-test) |
//! | L3   | every `ServerStats`/`CacheStats` counter field is surfaced by both `fn statz` (`/statz`) and `fn metrics` (the Prometheus exposition) |
//! | L4   | no clock reads or allocation-prone calls in the morsel inner-loop file except via the probe types |

use crate::lexer::{test_mask, Tok, TokKind};

/// One rule violation, anchored to a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule ID (`"L1"`…`"L4"`, or `"ALLOW"` for allowlist hygiene errors).
    pub rule: &'static str,
    /// Path relative to the lint root, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation of the violation.
    pub message: String,
}

/// A lexed file ready for rule application.
pub struct LexedFile {
    /// Root-relative path with forward slashes.
    pub path: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Source lines (for allowlist pattern matching and snippets).
    pub lines: Vec<String>,
}

impl LexedFile {
    /// Lexes `source` under `path`.
    pub fn new(path: String, source: &str) -> LexedFile {
        LexedFile {
            path,
            toks: crate::lexer::lex(source),
            lines: source.lines().map(str::to_owned).collect(),
        }
    }

    /// The trimmed source line a finding points at ("" when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim())
            .unwrap_or("")
    }
}

/// Whether L2's request-path scope covers `path`.
fn in_request_path(path: &str) -> bool {
    path.starts_with("crates/server/src/")
        || path.starts_with("crates/sql/src/")
        || path == "crates/util/src/json.rs"
}

/// Whether L4's morsel-inner-loop scope covers `path`.
fn in_morsel_scope(path: &str) -> bool {
    path == "crates/engine/src/morsel.rs"
}

/// L1: `.lock()` immediately followed by `.unwrap(` or `.expect(` —
/// applies to every file, test code included (tests poisoning a raw mutex
/// defeat the recovery discipline just as much).
pub fn l1_lock_unwrap(file: &LexedFile) -> Vec<Finding> {
    let t = &file.toks;
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(6) {
        if t[i].is_punct('.')
            && t[i + 1].is_ident("lock")
            && t[i + 2].is_punct('(')
            && t[i + 3].is_punct(')')
            && t[i + 4].is_punct('.')
            && (t[i + 5].is_ident("unwrap") || t[i + 5].is_ident("expect"))
            && t[i + 6].is_punct('(')
        {
            out.push(Finding {
                rule: "L1",
                path: file.path.clone(),
                line: t[i + 1].line,
                message: format!(
                    ".lock().{}() can panic on poisoning; use seedb_util::plock::PLock, \
                     which recovers with into_inner()",
                    t[i + 5].text
                ),
            });
        }
    }
    out
}

/// Keywords that may legitimately precede `[` without forming an index
/// expression (slice patterns, array literals in returns, `for _ in [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "dyn", "impl",
    "for", "where", "as", "break", "const", "static", "fn", "use", "pub", "type", "struct", "enum",
    "trait", "mod", "unsafe", "await", "yield", "box",
];

/// L2: panic-family macros, `.unwrap()`, `.expect(…)`, and slice indexing
/// in request-path files, outside test code.
pub fn l2_request_path_panics(file: &LexedFile) -> Vec<Finding> {
    if !in_request_path(&file.path) {
        return Vec::new();
    }
    let t = &file.toks;
    let mask = test_mask(t);
    let mut out = Vec::new();
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        // panic! / unreachable! / todo! / unimplemented!
        if t[i].kind == TokKind::Ident
            && matches!(
                t[i].text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && i + 1 < t.len()
            && t[i + 1].is_punct('!')
        {
            out.push(Finding {
                rule: "L2",
                path: file.path.clone(),
                line: t[i].line,
                message: format!(
                    "{}! in request-path code; return a structured error envelope instead",
                    t[i].text
                ),
            });
            continue;
        }
        // .unwrap( / .expect(
        if t[i].is_punct('.')
            && i + 2 < t.len()
            && (t[i + 1].is_ident("unwrap") || t[i + 1].is_ident("expect"))
            && t[i + 2].is_punct('(')
        {
            out.push(Finding {
                rule: "L2",
                path: file.path.clone(),
                line: t[i + 1].line,
                message: format!(
                    ".{}() in request-path code; handle the None/Err arm or allowlist \
                     with a written justification",
                    t[i + 1].text
                ),
            });
            continue;
        }
        // Slice indexing: `expr[`. The previous token must end an expression
        // (identifier, `)`, or `]`) and not be a keyword that introduces a
        // pattern or literal.
        if t[i].is_punct('[') && i > 0 {
            let prev = &t[i - 1];
            let ends_expr = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            if ends_expr {
                out.push(Finding {
                    rule: "L2",
                    path: file.path.clone(),
                    line: t[i].line,
                    message: "slice indexing in request-path code can panic out of \
                              bounds; use .get()/.get_mut() or allowlist with a \
                              justification"
                        .to_owned(),
                });
            }
        }
    }
    out
}

/// A counter struct's parsed fields.
struct CounterStruct {
    path: String,
    fields: Vec<String>,
}

/// Field types that count as exported counters.
const COUNTER_TYPES: &[&str] = &["AtomicU64", "LatencyHisto"];

/// Extracts counter fields (`AtomicU64` / `LatencyHisto` typed) of
/// `struct <name> { … }` if the file declares it.
fn counter_fields(file: &LexedFile, name: &str) -> Option<CounterStruct> {
    let t = &file.toks;
    let mut i = 0usize;
    while i + 2 < t.len() {
        if t[i].is_ident("struct") && t[i + 1].is_ident(name) && t[i + 2].is_punct('{') {
            let mut fields = Vec::new();
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < t.len() {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth == 1
                    && t[j].kind == TokKind::Ident
                    && j + 1 < t.len()
                    && t[j + 1].is_punct(':')
                    && !t[j].is_ident("pub")
                {
                    // Field name at struct depth; scan its type until the
                    // separating comma (depth-aware for generics' <> is not
                    // needed — `,` inside angle brackets only occurs in
                    // multi-param generics, which these counters don't use).
                    let field = t[j].text.clone();
                    let mut k = j + 2;
                    let mut ty_has_counter = false;
                    let mut inner = 0usize;
                    while k < t.len() {
                        match t[k].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                inner += 1
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') => inner -= 1,
                            TokKind::Punct('}') if inner > 0 => inner -= 1,
                            TokKind::Punct('}') => break,
                            TokKind::Punct(',') if inner == 0 => break,
                            TokKind::Ident if COUNTER_TYPES.contains(&t[k].text.as_str()) => {
                                ty_has_counter = true
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if ty_has_counter {
                        fields.push(field);
                    }
                    j = k;
                    continue;
                }
                j += 1;
            }
            return Some(CounterStruct {
                path: file.path.clone(),
                fields,
            });
        }
        i += 1;
    }
    None
}

/// The identifier set of `fn <name>`'s body, if the file defines it.
fn fn_body_idents(file: &LexedFile, name: &str) -> Option<std::collections::HashSet<String>> {
    let t = &file.toks;
    let mut i = 0usize;
    while i + 1 < t.len() {
        if t[i].is_ident("fn") && t[i + 1].is_ident(name) {
            // Find the body's opening brace (skip the signature).
            let mut j = i + 2;
            while j < t.len() && !t[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            let mut idents = std::collections::HashSet::new();
            while j < t.len() {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t[j].kind == TokKind::Ident {
                    idents.insert(t[j].text.clone());
                }
                j += 1;
            }
            return Some(idents);
        }
        i += 1;
    }
    None
}

/// L3 result: findings plus the number of counters proven in parity (for
/// the report).
pub struct L3Outcome {
    /// Missing-counter findings.
    pub findings: Vec<Finding>,
    /// Counters checked against both expositions.
    pub counters_checked: usize,
}

/// L3: every `ServerStats`/`CacheStats` counter field must appear in both
/// `fn statz` (the `/statz` JSON) and `fn metrics` (the Prometheus text
/// exposition). Skipped entirely when neither struct exists in the tree
/// (e.g. lint self-test fixtures without a server).
pub fn l3_counter_parity(files: &[LexedFile]) -> L3Outcome {
    let structs: Vec<CounterStruct> = ["ServerStats", "CacheStats"]
        .iter()
        .filter_map(|name| files.iter().find_map(|f| counter_fields(f, name)))
        .collect();
    if structs.is_empty() {
        return L3Outcome {
            findings: Vec::new(),
            counters_checked: 0,
        };
    }
    let statz = files.iter().find_map(|f| fn_body_idents(f, "statz"));
    let metrics = files.iter().find_map(|f| fn_body_idents(f, "metrics"));
    let mut findings = Vec::new();
    let mut checked = 0usize;
    for (fn_name, body) in [("statz", &statz), ("metrics", &metrics)] {
        if body.is_none() {
            findings.push(Finding {
                rule: "L3",
                path: structs[0].path.clone(),
                line: 1,
                message: format!(
                    "counter structs exist but no `fn {fn_name}` was found to \
                     surface them"
                ),
            });
        }
    }
    for cs in &structs {
        for field in &cs.fields {
            checked += 1;
            for (fn_name, body) in [("statz", &statz), ("metrics", &metrics)] {
                if let Some(idents) = body {
                    if !idents.contains(field) {
                        findings.push(Finding {
                            rule: "L3",
                            path: cs.path.clone(),
                            line: 1,
                            message: format!(
                                "counter field `{field}` is not surfaced by `fn {fn_name}` \
                                 — /statz and /metrics must expose every counter"
                            ),
                        });
                    }
                }
            }
        }
    }
    L3Outcome {
        findings,
        counters_checked: checked,
    }
}

/// Calls banned in the morsel inner loop (`ident :: ident` paths).
const L4_BANNED_PATHS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros banned in the morsel inner loop.
const L4_BANNED_MACROS: &[&str] = &["format", "println", "eprintln", "print", "eprint", "vec"];

/// Methods banned in the morsel inner loop (allocation per call).
const L4_BANNED_METHODS: &[&str] = &["to_string", "to_owned", "to_vec"];

/// L4: no direct clock reads or allocation-prone calls in the morsel
/// inner-loop file (non-test) — timing goes through the probe types
/// (`WorkerProbes`), which keep the disabled path allocation- and
/// clock-free.
pub fn l4_morsel_hot_loop(file: &LexedFile) -> Vec<Finding> {
    if !in_morsel_scope(&file.path) {
        return Vec::new();
    }
    let t = &file.toks;
    let mask = test_mask(t);
    let mut out = Vec::new();
    for i in 0..t.len() {
        if mask[i] {
            continue;
        }
        if t[i].kind == TokKind::Ident && i + 3 < t.len() {
            for (ty, method) in L4_BANNED_PATHS {
                if t[i].is_ident(ty)
                    && t[i + 1].is_punct(':')
                    && t[i + 2].is_punct(':')
                    && t[i + 3].is_ident(method)
                {
                    out.push(Finding {
                        rule: "L4",
                        path: file.path.clone(),
                        line: t[i].line,
                        message: format!(
                            "{ty}::{method} in the morsel inner-loop file; route timing \
                             through WorkerProbes and hoist allocations out of the loop"
                        ),
                    });
                }
            }
        }
        if t[i].kind == TokKind::Ident
            && L4_BANNED_MACROS.contains(&t[i].text.as_str())
            && i + 1 < t.len()
            && t[i + 1].is_punct('!')
        {
            out.push(Finding {
                rule: "L4",
                path: file.path.clone(),
                line: t[i].line,
                message: format!(
                    "{}! allocates in the morsel inner-loop file; hoist it out of the loop",
                    t[i].text
                ),
            });
        }
        if t[i].is_punct('.')
            && i + 2 < t.len()
            && t[i + 1].kind == TokKind::Ident
            && L4_BANNED_METHODS.contains(&t[i + 1].text.as_str())
            && t[i + 2].is_punct('(')
        {
            out.push(Finding {
                rule: "L4",
                path: file.path.clone(),
                line: t[i + 1].line,
                message: format!(
                    ".{}() allocates in the morsel inner-loop file; hoist it out of the loop",
                    t[i + 1].text
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexed(path: &str, src: &str) -> LexedFile {
        LexedFile::new(path.to_owned(), src)
    }

    #[test]
    fn l1_flags_lock_unwrap_and_expect_but_not_recovery() {
        let f = lexed(
            "crates/x/src/a.rs",
            r#"
            let a = m.lock().unwrap();
            let b = m.lock().expect("poisoned");
            let c = m.lock().unwrap_or_else(|e| e.into_inner());
            let d = plock.lock();
            "#,
        );
        let found = l1_lock_unwrap(&f);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[1].line, 3);
    }

    #[test]
    fn l2_scope_is_server_and_sql_src_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(
            l2_request_path_panics(&lexed("crates/server/src/a.rs", src)).len(),
            1
        );
        assert_eq!(
            l2_request_path_panics(&lexed("crates/sql/src/a.rs", src)).len(),
            1
        );
        assert!(l2_request_path_panics(&lexed("crates/engine/src/a.rs", src)).is_empty());
        assert!(l2_request_path_panics(&lexed("crates/server/tests/a.rs", src)).is_empty());
    }

    #[test]
    fn l2_skips_tests_and_catches_indexing() {
        let f = lexed(
            "crates/server/src/a.rs",
            r#"
            fn handler(v: &[u8]) -> u8 { v[0] }
            fn fine(v: &[u8]) -> Option<&u8> { v.get(0) }
            fn arr() -> [u8; 2] { [1, 2] }
            fn pat(v: &[u8; 2]) { let [_a, _b] = v; }
            fn mac() { let _v = vec![1, 2]; }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); panic!("fine in tests"); }
            }
            "#,
        );
        let found = l2_request_path_panics(&f);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("slice indexing"));
    }

    #[test]
    fn l2_flags_panic_family() {
        let f = lexed(
            "crates/sql/src/a.rs",
            "fn f() { panic!(\"x\"); unreachable!(); todo!(); }",
        );
        assert_eq!(l2_request_path_panics(&f).len(), 3);
    }

    #[test]
    fn l3_passes_on_parity_and_flags_drift() {
        let good = vec![lexed(
            "crates/server/src/router.rs",
            r#"
            pub struct ServerStats { pub requests: AtomicU64, pub histo: LatencyHisto, pub other: String }
            pub struct CacheStats { pub hits: AtomicU64 }
            fn statz() { let _ = (s.requests, s.histo, c.hits); }
            fn metrics() { let _ = (s.requests, s.histo, c.hits); }
            "#,
        )];
        let out = l3_counter_parity(&good);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.counters_checked, 3, "non-counter `other` not counted");

        let bad = vec![lexed(
            "crates/server/src/router.rs",
            r#"
            pub struct ServerStats { pub requests: AtomicU64, pub sheds: AtomicU64 }
            fn statz() { let _ = (s.requests, s.sheds); }
            fn metrics() { let _ = s.requests; }
            "#,
        )];
        let out = l3_counter_parity(&bad);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("sheds"));
        assert!(out.findings[0].message.contains("metrics"));
    }

    #[test]
    fn l3_skips_trees_without_counter_structs() {
        let files = vec![lexed("crates/x/src/a.rs", "fn main() {}")];
        let out = l3_counter_parity(&files);
        assert!(out.findings.is_empty());
        assert_eq!(out.counters_checked, 0);
    }

    #[test]
    fn l4_bans_clocks_and_allocation_in_morsel_file_only() {
        let src = r#"
            fn hot() {
                let t = Instant::now();
                let s = format!("x{t:?}");
                let o = name.to_string();
            }
            #[cfg(test)]
            mod tests { fn t() { let _ = Instant::now(); } }
        "#;
        let found = l4_morsel_hot_loop(&lexed("crates/engine/src/morsel.rs", src));
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(l4_morsel_hot_loop(&lexed("crates/engine/src/parallel.rs", src)).is_empty());
    }
}
