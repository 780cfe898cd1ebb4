//! The benchmark's static contract: metric names and units, agreement with
//! `BENCHMARK.json`, and the repository's source lints.

use std::path::Path;

use draid_check::lint;
use simcost::metrics::METRICS;
use simcost::scenario::Workload;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository")
}

#[test]
fn metric_names_units_and_directions() {
    let mut seen = std::collections::BTreeSet::new();
    for m in METRICS {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(
            ["higher", "lower"].contains(&m.better),
            "{} direction",
            m.name
        );
    }
    assert!(METRICS
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.end_to_end));
}

/// The `"name"` values of one array in BENCHMARK.json, in order.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let names = |e2e: bool| -> Vec<String> {
        METRICS
            .iter()
            .filter(|m| m.end_to_end == e2e)
            .map(|m| m.name.to_string())
            .collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), names(true));
    assert_eq!(names_in(&json, "per_layer"), names(false));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    for m in METRICS {
        assert!(
            json.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            )),
            "{} differs in BENCHMARK.json",
            m.name
        );
    }
}

#[test]
fn sources_pass_the_repository_lints() {
    let files: Vec<lint::SourceFile> = lint::collect_files(repo_root())
        .expect("walk repository")
        .into_iter()
        .filter(|f| f.path.starts_with("simcost/"))
        .collect();
    assert!(files.iter().any(|f| f.path == "simcost/src/lib.rs"));
    let findings = lint::lint_files(&files, lint::ALLOWLIST);
    assert!(findings.is_empty(), "{findings:#?}");
    // The lint checks library roots; the binary root must forbid unsafe too.
    for root in ["simcost/src/lib.rs", "simcost/src/main.rs"] {
        let text = std::fs::read_to_string(repo_root().join(root)).expect("crate root");
        assert!(text.contains("#![forbid(unsafe_code)]"), "{root}");
    }
}
