//! The `draid-bench report` observability report.
//!
//! Runs a reference scenario under closed-loop load with step tracing and
//! fixed-interval utilization sampling, then attributes where the time and
//! the bytes went: per-resource utilization timeline, per-phase bottleneck,
//! per-class queueing-vs-service latency breakdown, and the byte-conservation
//! ledgers (`offered == served + dropped`) for every NIC direction and drive
//! channel. Renders as aligned text or as a [`Json`] document (validated
//! against `schema/report.schema.json`).

use draid_core::trace::{ClassBreakdown, StepClass};
use draid_core::{run_measured, ArraySim, RaidLevel, SystemKind};
use draid_net::LinkDir;
use draid_sim::{Engine, HistogramSummary, SimTime, UtilizationTimeline};
use draid_workload::{start_closed_loop, FioJob};

use crate::json::Json;
use crate::{build_array, Scenario};

/// What to run and how to sample it.
#[derive(Clone, Copy, Debug)]
pub struct ReportConfig {
    /// The array under observation.
    pub scenario: Scenario,
    /// Closed-loop workload (queue depth comes from the job).
    pub job: FioJob,
    /// Warm-up run before counters are reset.
    pub warmup: SimTime,
    /// Measured window.
    pub measure: SimTime,
    /// Number of fixed-width utilization buckets over the window (at least
    /// one; also the harness's slice count).
    pub buckets: u64,
}

impl ReportConfig {
    /// The reference scenario: dRAID RAID-6 over 8 members, 128 KiB random
    /// writes at queue depth 32, 20 ms warm-up, 80 ms measured, 16 buckets.
    pub fn reference() -> Self {
        ReportConfig {
            scenario: Scenario::paper(SystemKind::Draid).level(RaidLevel::Raid6),
            job: FioJob::random_write(128 * 1024).queue_depth(32),
            warmup: SimTime::from_millis(20),
            measure: SimTime::from_millis(80),
            buckets: 16,
        }
    }

    /// A short variant of [`ReportConfig::reference`] for tests and CI smoke
    /// runs: same scenario, 2 ms warm-up, 8 ms measured, 4 buckets.
    pub fn quick() -> Self {
        ReportConfig {
            warmup: SimTime::from_millis(2),
            measure: SimTime::from_millis(8),
            buckets: 4,
            ..Self::reference()
        }
    }
}

/// One resource's utilization over the whole measured window.
#[derive(Clone, Debug)]
pub struct UtilRow {
    /// Series name (`net:<node>:egress`, `cpu:<node>`, `drive:<node>`).
    pub resource: String,
    /// Clamped busy time inside the window.
    pub busy: SimTime,
    /// `busy / window`, in `[0, 1]`.
    pub utilization: f64,
}

/// The saturated resource of one timeline bucket.
#[derive(Clone, Debug)]
pub struct BottleneckRow {
    /// End of the bucket.
    pub end: SimTime,
    /// The bucket's highest-utilization resource.
    pub resource: String,
    /// That resource's utilization in the bucket.
    pub utilization: f64,
}

/// One byte-conservation ledger (a NIC direction or a drive channel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerRow {
    /// Resource the ledger covers.
    pub resource: String,
    /// Bytes offered to the resource.
    pub offered: u64,
    /// Bytes the resource served.
    pub served: u64,
    /// Bytes refused (link down, drive failed).
    pub dropped: u64,
}

impl LedgerRow {
    /// The conservation invariant: `offered == served + dropped`.
    pub fn balanced(&self) -> bool {
        self.offered == self.served + self.dropped
    }
}

/// Everything the report knows, ready to render.
#[derive(Clone, Debug)]
pub struct BottleneckReport {
    /// Engine under test.
    pub system: SystemKind,
    /// RAID level.
    pub level: RaidLevel,
    /// Stripe width.
    pub width: usize,
    /// Chunk size in KiB.
    pub chunk_kib: u64,
    /// Warm-up length.
    pub warmup: SimTime,
    /// Measured-window length.
    pub measure: SimTime,
    /// Completed reads / writes in the window.
    pub reads: u64,
    /// Completed writes in the window.
    pub writes: u64,
    /// User bytes read.
    pub bytes_read: u64,
    /// User bytes written.
    pub bytes_written: u64,
    /// Aggregate bandwidth, decimal MB/s.
    pub bandwidth_mb_per_sec: f64,
    /// Aggregate throughput, KIOPS.
    pub kiops: f64,
    /// Read-latency summary (zeroes when no reads completed).
    pub read_latency: HistogramSummary,
    /// Write-latency summary (zeroes when no writes completed).
    pub write_latency: HistogramSummary,
    /// Per-class latency demand split into queueing and service.
    pub breakdown: Vec<(StepClass, ClassBreakdown)>,
    /// Whole-window utilization per resource, saturated first.
    pub utilization: Vec<UtilRow>,
    /// Per-bucket bottleneck attribution.
    pub bottlenecks: Vec<BottleneckRow>,
    /// Byte-conservation ledgers.
    pub ledgers: Vec<LedgerRow>,
    /// Trace events captured / dropped at the tracer's capacity bound.
    pub trace_events: u64,
    /// Events dropped after the tracer filled.
    pub trace_dropped: u64,
}

impl BottleneckReport {
    /// Whether every ledger balances (`offered == served + dropped`).
    pub fn reconciled(&self) -> bool {
        self.ledgers.iter().all(LedgerRow::balanced)
    }
}

/// Runs the scenario and builds the report.
///
/// The driver keeps `job.queue_depth` I/Os outstanding, discards the warm-up,
/// then advances the engine bucket by bucket, sampling every resource's
/// clamped elapsed busy time at each boundary.
pub fn run_report(cfg: &ReportConfig) -> BottleneckReport {
    let mut array = build_array(&cfg.scenario);
    let mut engine: Engine<ArraySim> = Engine::new();
    start_closed_loop(&mut array, &mut engine, &cfg.job);
    let mut timeline = UtilizationTimeline::new(cfg.warmup);
    run_measured(
        &mut engine,
        &mut array,
        cfg.warmup,
        cfg.measure,
        cfg.buckets,
        |array, at| {
            if at == cfg.warmup {
                array.enable_tracing(2_000_000);
            }
            array.cluster.sample_busy(&mut timeline, at);
        },
    );

    let trace = array.take_trace().expect("tracing enabled above");
    let mut utilization: Vec<UtilRow> = timeline
        .names()
        .map(|name| {
            let busy = timeline.total_busy(name);
            UtilRow {
                resource: name.to_string(),
                busy,
                utilization: busy.as_secs_f64() / cfg.measure.as_secs_f64(),
            }
        })
        .collect();
    utilization.sort_by(|a, b| {
        b.utilization
            .partial_cmp(&a.utilization)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.resource.cmp(&b.resource))
    });

    let bottlenecks = timeline
        .bottlenecks()
        .into_iter()
        .map(|(bucket_end, resource, utilization)| BottleneckRow {
            end: bucket_end,
            resource,
            utilization,
        })
        .collect();

    let ledgers = collect_ledgers(&array);
    let stats = &mut array.stats;
    BottleneckReport {
        system: cfg.scenario.system,
        level: cfg.scenario.level,
        width: cfg.scenario.width,
        chunk_kib: cfg.scenario.chunk_kib,
        warmup: cfg.warmup,
        measure: cfg.measure,
        reads: stats.reads,
        writes: stats.writes,
        bytes_read: stats.bytes_read,
        bytes_written: stats.bytes_written,
        bandwidth_mb_per_sec: stats.bandwidth_mb_per_sec(cfg.measure),
        kiops: stats.kiops(cfg.measure),
        read_latency: stats.read_latency.summary(),
        write_latency: stats.write_latency.summary(),
        breakdown: trace.breakdown(),
        utilization,
        bottlenecks,
        ledgers,
        trace_events: trace.events().len() as u64,
        trace_dropped: trace.dropped(),
    }
}

fn collect_ledgers(array: &ArraySim) -> Vec<LedgerRow> {
    let cluster = &array.cluster;
    let fabric = cluster.fabric();
    let mut nodes = vec![(cluster.host_node(), None)];
    for m in 0..array.config().width {
        let server = draid_block::ServerId(m);
        nodes.push((cluster.server_node(server), Some(server)));
    }
    let mut out = Vec::new();
    for (node, server) in nodes {
        let name = cluster.node_name(node);
        out.push(LedgerRow {
            resource: format!("net:{name}:egress"),
            offered: fabric.bytes_offered(node, LinkDir::Egress),
            served: fabric.bytes_sent(node),
            dropped: fabric.bytes_dropped(node, LinkDir::Egress),
        });
        out.push(LedgerRow {
            resource: format!("net:{name}:ingress"),
            offered: fabric.bytes_offered(node, LinkDir::Ingress),
            served: fabric.bytes_received(node),
            dropped: fabric.bytes_dropped(node, LinkDir::Ingress),
        });
        if let Some(server) = server {
            let drive = cluster.drive(server);
            out.push(LedgerRow {
                resource: format!("drive:{name}"),
                offered: drive.bytes_offered(),
                served: drive.bytes_served(),
                dropped: drive.bytes_dropped(),
            });
        }
    }
    out
}

fn level_label(level: RaidLevel) -> &'static str {
    match level {
        RaidLevel::Raid5 => "raid5",
        RaidLevel::Raid6 => "raid6",
    }
}

fn summary_json(s: &HistogramSummary) -> Json {
    Json::obj([
        ("n", s.n.into()),
        ("mean_ns", s.mean.as_nanos().into()),
        ("p50_ns", s.p50.as_nanos().into()),
        ("p99_ns", s.p99.as_nanos().into()),
        ("min_ns", s.min.as_nanos().into()),
        ("max_ns", s.max.as_nanos().into()),
    ])
}

impl BottleneckReport {
    /// Renders the report as a JSON document matching
    /// `schema/report.schema.json`.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("schema_version", 1u64.into()),
            (
                "scenario",
                Json::obj([
                    ("system", self.system.label().into()),
                    ("level", level_label(self.level).into()),
                    ("width", self.width.into()),
                    ("chunk_kib", self.chunk_kib.into()),
                ]),
            ),
            (
                "window",
                Json::obj([
                    ("warmup_ns", self.warmup.as_nanos().into()),
                    ("measure_ns", self.measure.as_nanos().into()),
                    ("buckets", self.bottlenecks.len().into()),
                ]),
            ),
            (
                "totals",
                Json::obj([
                    ("reads", self.reads.into()),
                    ("writes", self.writes.into()),
                    ("bytes_read", self.bytes_read.into()),
                    ("bytes_written", self.bytes_written.into()),
                    (
                        "bandwidth_mb_per_sec",
                        Json::rounded(self.bandwidth_mb_per_sec, 3),
                    ),
                    ("kiops", Json::rounded(self.kiops, 3)),
                    ("read_latency", summary_json(&self.read_latency)),
                    ("write_latency", summary_json(&self.write_latency)),
                ]),
            ),
            (
                "breakdown",
                self.breakdown
                    .iter()
                    .map(|(class, row)| {
                        Json::obj([
                            ("class", class.label().into()),
                            ("steps", row.steps.into()),
                            ("span_ns", row.total_span.as_nanos().into()),
                            ("queue_ns", row.queue.as_nanos().into()),
                            ("service_ns", row.service.as_nanos().into()),
                            ("bytes", row.bytes.into()),
                        ])
                    })
                    .collect(),
            ),
            (
                "utilization",
                self.utilization
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("resource", row.resource.as_str().into()),
                            ("busy_ns", row.busy.as_nanos().into()),
                            ("utilization", Json::rounded(row.utilization, 6)),
                        ])
                    })
                    .collect(),
            ),
            (
                "bottlenecks",
                self.bottlenecks
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("end_ns", row.end.as_nanos().into()),
                            ("resource", row.resource.as_str().into()),
                            ("utilization", Json::rounded(row.utilization, 6)),
                        ])
                    })
                    .collect(),
            ),
            (
                "ledgers",
                self.ledgers
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("resource", row.resource.as_str().into()),
                            ("offered", row.offered.into()),
                            ("served", row.served.into()),
                            ("dropped", row.dropped.into()),
                            ("balanced", row.balanced().into()),
                        ])
                    })
                    .collect(),
            ),
            ("reconciled", self.reconciled().into()),
            (
                "trace",
                Json::obj([
                    ("events", self.trace_events.into()),
                    ("dropped", self.trace_dropped.into()),
                ]),
            ),
        ])
        .to_string()
    }

    /// Renders the report as aligned human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bottleneck report: {} {} x{} ({} KiB chunks), {} measured after {} warm-up\n\n",
            self.system.label(),
            level_label(self.level),
            self.width,
            self.chunk_kib,
            self.measure,
            self.warmup
        ));
        out.push_str(&format!(
            "totals: {} reads, {} writes, {:.0} MB/s, {:.1} KIOPS\n",
            self.reads, self.writes, self.bandwidth_mb_per_sec, self.kiops
        ));
        if self.read_latency.n > 0 {
            out.push_str(&format!("  read latency:  {}\n", self.read_latency));
        }
        if self.write_latency.n > 0 {
            out.push_str(&format!("  write latency: {}\n", self.write_latency));
        }
        out.push_str("\nlatency demand by resource class (queue vs. service):\n");
        out.push_str(&format!(
            "  {:<8} {:>8} {:>14} {:>14} {:>14} {:>14}\n",
            "class", "steps", "span", "queue", "service", "bytes"
        ));
        for (class, row) in &self.breakdown {
            if row.steps == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<8} {:>8} {:>14} {:>14} {:>14} {:>14}\n",
                class.label(),
                row.steps,
                row.total_span.to_string(),
                row.queue.to_string(),
                row.service.to_string(),
                row.bytes
            ));
        }
        out.push_str("\nutilization over the window (saturated first):\n");
        for row in self.utilization.iter().take(8) {
            out.push_str(&format!(
                "  {:<24} {:>6.1}%  busy {}\n",
                row.resource,
                row.utilization * 100.0,
                row.busy
            ));
        }
        out.push_str("\nbottleneck per phase:\n");
        for row in &self.bottlenecks {
            out.push_str(&format!(
                "  up to {:<12} {:<24} {:>6.1}%\n",
                row.end.to_string(),
                row.resource,
                row.utilization * 100.0
            ));
        }
        out.push_str(&format!(
            "\nledgers: {} ({} entries)\n",
            if self.reconciled() {
                "all balanced (offered == served + dropped)"
            } else {
                "IMBALANCED"
            },
            self.ledgers.len()
        ));
        for row in self.ledgers.iter().filter(|r| !r.balanced()) {
            out.push_str(&format!(
                "  UNBALANCED {:<24} offered {} != served {} + dropped {}\n",
                row.resource, row.offered, row.served, row.dropped
            ));
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!(
                "\nwarning: {} trace events dropped at capacity; breakdown is partial\n",
                self.trace_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_sane_and_reconciled() {
        let report = run_report(&ReportConfig::quick());
        assert!(report.writes > 0, "{report:?}");
        assert_eq!(report.reads, 0);
        assert!(report.reconciled(), "ledgers must balance: {report:?}");
        assert!(!report.utilization.is_empty());
        for row in &report.utilization {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&row.utilization),
                "{}: utilization {} out of range",
                row.resource,
                row.utilization
            );
        }
        // A saturating RMW write workload must name a bottleneck per bucket.
        assert_eq!(report.bottlenecks.len(), 4);
        let top = report.utilization.first().expect("has resources");
        assert!(top.utilization > 0.3, "load too light: {top:?}");
        // queue + service == span per class (the trace-span invariant).
        for (class, row) in &report.breakdown {
            assert_eq!(row.queue + row.service, row.total_span, "{class:?}");
        }
        assert_eq!(report.trace_dropped, 0);
    }

    #[test]
    fn totals_and_ledgers_do_not_depend_on_buckets() {
        let run = |buckets| {
            run_report(&ReportConfig {
                buckets,
                ..ReportConfig::quick()
            })
        };
        let base = run(4);
        for buckets in [1, 13] {
            let other = run(buckets);
            assert_eq!((other.reads, other.writes), (base.reads, base.writes));
            assert_eq!(other.ledgers, base.ledgers);
            assert_eq!(other.bottlenecks.len(), buckets as usize);
        }
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = run_report(&ReportConfig::quick());
        let text = report.to_text();
        assert!(text.contains("bottleneck per phase"));
        assert!(text.contains("all balanced"));
        let json = report.to_json();
        assert!(json.contains("\n  \"reconciled\": true,\n"), "{json}");
    }
}
