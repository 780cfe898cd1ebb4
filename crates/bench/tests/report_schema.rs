//! What `report --quick --json` prints must parse and validate against the
//! checked-in schema, and its totals must reconcile with the conservation
//! ledgers.

#[path = "common/json.rs"]
mod json;

use std::process::Command;
use std::sync::OnceLock;

use json::{Json, JsonExt};

const SCHEMA: &str = include_str!("../schema/report.schema.json");

/// The parsed stdout of one `report --quick --json` run, shared by the
/// tests of this file.
fn report() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(["--quick", "--json"])
            .output()
            .expect("report runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "report failed: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("report prints UTF-8");
        json::parse(&stdout).expect("report JSON parses")
    })
}

#[test]
fn report_json_validates_against_schema() {
    let schema = json::parse(SCHEMA).expect("schema parses");
    json::validate(&schema, report()).expect("report matches schema");
}

#[test]
fn report_totals_reconcile_with_ledgers() {
    let doc = report();
    assert_eq!(doc.get("reconciled").and_then(Json::as_bool), Some(true));
    let ledgers = doc
        .get("ledgers")
        .and_then(Json::as_arr)
        .expect("ledgers array");
    // 1 host + 8 servers: 2 NIC directions each, plus 8 drive channels.
    assert_eq!(ledgers.len(), 9 * 2 + 8);
    for row in ledgers {
        let offered = row.get("offered").and_then(Json::as_num).expect("offered");
        let served = row.get("served").and_then(Json::as_num).expect("served");
        let dropped = row.get("dropped").and_then(Json::as_num).expect("dropped");
        assert_eq!(
            offered,
            served + dropped,
            "ledger {:?} does not balance",
            row.get("resource")
        );
        assert_eq!(row.get("balanced").and_then(Json::as_bool), Some(true));
    }
    // The written user bytes all land on drives: the drive channels must
    // together have served at least the user payload (plus parity).
    let drive_served: f64 = ledgers
        .iter()
        .filter(|r| {
            r.get("resource")
                .and_then(Json::as_str)
                .is_some_and(|s| s.starts_with("drive:"))
        })
        .filter_map(|r| r.get("served").and_then(Json::as_num))
        .sum();
    let bytes_written = doc
        .get("totals")
        .and_then(|t| t.get("bytes_written"))
        .and_then(Json::as_num)
        .expect("totals.bytes_written");
    assert!(
        drive_served >= bytes_written,
        "drives served {drive_served} < user writes {bytes_written}"
    );
}

#[test]
fn ledger_resources_match_utilization_labels() {
    // Both sections label a node through `Cluster::node_name`: every NIC
    // direction and drive ledger is a utilization series of the same name.
    let resources = |section: &str| -> Vec<&str> {
        report()
            .get(section)
            .and_then(Json::as_arr)
            .expect(section)
            .iter()
            .map(|r| r.get("resource").and_then(Json::as_str).expect("resource"))
            .collect()
    };
    let mut ledgers = resources("ledgers");
    let mut sampled: Vec<&str> = resources("utilization")
        .into_iter()
        .filter(|r| r.starts_with("net:") || r.starts_with("drive:"))
        .collect();
    ledgers.sort_unstable();
    sampled.sort_unstable();
    assert_eq!(ledgers, sampled);
    assert!(ledgers.contains(&"net:host:egress") && ledgers.contains(&"drive:server7"));
}

#[test]
fn utilization_is_clamped_in_json_output() {
    for section in ["utilization", "bottlenecks"] {
        for row in report().get(section).and_then(Json::as_arr).expect(section) {
            let u = row
                .get("utilization")
                .and_then(Json::as_num)
                .expect("utilization");
            assert!(
                (0.0..=1.0 + 1e-9).contains(&u),
                "{section}: utilization {u} out of [0, 1]"
            );
        }
    }
}
