//! The test-side JSON reader parses what the library's writer prints: every
//! document the crate writes reads back equal, with its layout kept.

#[path = "common/json.rs"]
mod json;

use json::{parse, Json, JsonExt};

#[test]
fn parses_nested_document() {
    let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y\n"} "#;
    let v = parse(doc).expect("parses");
    let arr = v.get("a").and_then(Json::as_arr).expect("array");
    assert_eq!(arr.len(), 3);
    assert_eq!(arr[2].as_num(), Some(-300.0));
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")).and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(v.get("e").and_then(Json::as_str), Some("x\"y\n"));
}

#[test]
fn rejects_garbage() {
    assert!(parse("{").is_err());
    assert!(parse("[1,]").is_err());
    assert!(parse("{} extra").is_err());
    assert!(parse("nul").is_err());
}

/// Re-serializing a parsed document gives back an equal value with the
/// same line count, so the writer keeps each file's layout.
#[test]
fn writer_roundtrips_every_document_the_crate_writes() {
    let original = "line\nwith \"quotes\" and \\slashes\\ and \t tabs \u{1}";
    let escaped = Json::obj([("s", original.into())]).to_string();
    let v = parse(&escaped).expect("escaped string parses");
    assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
    for source in [
        include_str!("../../../BENCH_sim.json"),
        include_str!("../../../BENCH_kernels.json"),
        &escaped,
    ] {
        let doc = parse(source).expect("source parses");
        let written = doc.to_string();
        assert_eq!(parse(&written).as_ref(), Ok(&doc), "{written}");
        assert_eq!(written.lines().count(), source.lines().count(), "{written}");
    }
}
