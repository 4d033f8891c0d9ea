//! Property tests for the JSON parser `seedbd` reads request bodies with:
//! every string the writer emits parses back to itself, documents survive
//! `compact ∘ parse`, escapes decode to their characters, and no input —
//! arbitrary Unicode, escape soup, truncated documents — panics the parser.

use proptest::prelude::*;
use seedb_util::Json;

/// Characters that stress the string path: the delimiters, every escape
/// target, control characters, and 1- to 4-byte UTF-8 scalars.
const PALETTE: &[char] = &[
    'a', 'z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', 'ß', '€', '中', '\u{2028}', '\u{fffd}', '𝄞', '😀',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<usize>(), 0..48)
        .prop_map(|picks| picks.iter().map(|i| PALETTE[i % PALETTE.len()]).collect())
}

/// Token soup for the no-panic property: structure, literals, escapes and
/// multi-byte characters in any order.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\x",
    "\\\"",
    "null",
    "tru",
    "true",
    "false",
    "-",
    "1",
    "2.5",
    "e9",
    "1e400",
    " ",
    "\n",
    "é",
    "€",
    "𝄞",
    "\u{0}",
    "\"k\":",
    "[[[[",
    "]]]]",
    "{\"a\":[1,{\"b\":\"c\"}]}",
];

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<usize>(), 0..40).prop_map(|picks| {
        picks
            .iter()
            .map(|i| FRAGMENTS[i % FRAGMENTS.len()])
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A string value written by the writer parses back to the same string,
    /// nested in arrays and objects (as keys too), compact and pretty.
    #[test]
    fn written_strings_parse_back_identically(s in arb_string(), t in arb_string()) {
        let doc = Json::obj()
            .set(&s, Json::Arr(vec![Json::Str(t.clone()), Json::Num(1.5)]))
            .set("plain", Json::Str(s.clone()));
        for text in [doc.compact(), doc.pretty()] {
            let parsed = Json::parse(&text);
            prop_assert_eq!(parsed.as_ref(), Ok(&doc), "text {:?}", text);
        }
        prop_assert_eq!(Json::parse(&Json::Str(s.clone()).compact()), Ok(Json::Str(s)));
    }

    /// `compact ∘ parse` is the identity on compact documents.
    #[test]
    fn compact_of_parse_is_identity(s in arb_string(), t in arb_string()) {
        let text = Json::obj()
            .set("a", Json::Str(s))
            .set("b", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str(t)]))
            .compact();
        let parsed = Json::parse(&text);
        prop_assert!(parsed.is_ok(), "{text:?}: {parsed:?}");
        prop_assert_eq!(parsed.map(|j| j.compact()), Ok(text));
    }

    /// Every escape decodes to its character, wherever it sits in a run.
    #[test]
    fn escapes_decode(prefix in arb_string(), picks in prop::collection::vec(any::<u32>(), 1..12)) {
        let mut text = String::from("\"");
        let mut want = String::new();
        for c in prefix.chars() {
            if !matches!(c, '"' | '\\') {
                text.push(c);
                want.push(c);
            }
        }
        for p in picks {
            let (esc, c) = match p % 9 {
                0 => ("\\\"".to_owned(), '"'),
                1 => ("\\\\".to_owned(), '\\'),
                2 => ("\\/".to_owned(), '/'),
                3 => ("\\b".to_owned(), '\u{8}'),
                4 => ("\\f".to_owned(), '\u{c}'),
                5 => ("\\n".to_owned(), '\n'),
                6 => ("\\r".to_owned(), '\r'),
                7 => ("\\t".to_owned(), '\t'),
                _ => {
                    // Any non-surrogate BMP scalar as \uXXXX.
                    let c = char::from_u32((p >> 4) % 0xd800).unwrap_or('?');
                    (format!("\\u{:04x}", c as u32), c)
                }
            };
            text.push_str(&esc);
            text.push('x');
            want.push(c);
            want.push('x');
        }
        text.push('"');
        prop_assert_eq!(Json::parse(&text), Ok(Json::Str(want)), "{:?}", text);
    }

    /// No input panics the parser: token soup, arbitrary Unicode inside a
    /// string, and every prefix of a valid document.
    #[test]
    fn parser_never_panics(soup in arb_soup(), s in arb_string()) {
        let _ = Json::parse(&soup);
        let _ = Json::parse(&format!("\"{s}"));
        let _ = Json::parse(&format!("{{\"{s}\": [\"{s}\\"));
        let doc = Json::obj().set("k", Json::Str(s)).compact();
        for (i, _) in doc.char_indices() {
            prop_assert!(Json::parse(&doc[..i]).is_err(), "prefix {:?} parsed", &doc[..i]);
        }
    }
}

/// A 1 MiB string body parses to the exact string (the request-body size
/// class of a CSV upload). Correctness only; the parser is one pass.
#[test]
fn one_mebibyte_string_parses() {
    let mut want = String::with_capacity(1 << 20);
    let mut i = 0usize;
    while want.len() < 1 << 20 {
        want.push_str(match i % 5 {
            0 => "city,segment,sales\n",
            1 => "paris,\"a\",10.5\n",
            2 => "zürich,b,€20\t",
            3 => "\\path\\",
            _ => "𝄞 lyon,c,5\r\n",
        });
        i += 1;
    }
    let body = Json::obj()
        .set("name", "big")
        .set("csv", Json::Str(want.clone()))
        .compact();
    assert!(body.len() > 1 << 20);
    let parsed = Json::parse(&body).unwrap();
    assert_eq!(
        parsed.get("csv").and_then(Json::as_str),
        Some(want.as_str())
    );
}
