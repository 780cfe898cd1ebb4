//! The experiment registry: every table and figure of the paper's
//! evaluation, addressable by id.

use draid_core::RaidLevel;

use crate::exp_app;
use crate::exp_fio;
use crate::exp_misc;
use crate::Figure;

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct FigureSpec {
    /// Paper identifier ("fig10", "table1", "ablation", …).
    pub id: &'static str,
    /// Short description.
    pub title: &'static str,
    build: fn() -> Figure,
}

impl FigureSpec {
    /// Runs the experiment and returns the regenerated figure.
    pub fn build(&self) -> Figure {
        (self.build)()
    }
}

impl std::fmt::Debug for FigureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FigureSpec({})", self.id)
    }
}

macro_rules! spec {
    ($id:literal, $title:literal, $body:expr) => {
        FigureSpec {
            id: $id,
            title: $title,
            build: || $body,
        }
    };
}

/// Every experiment, in paper order, then the extensions beyond the paper's
/// artifact.
pub fn all() -> Vec<FigureSpec> {
    use RaidLevel::{Raid5, Raid6};
    vec![
        spec!(
            "table1",
            "Comparison of 3 remote RAID architectures",
            exp_misc::table1("table1")
        ),
        spec!(
            "fig09",
            "RAID-5 normal-state read on different I/O sizes",
            exp_fio::read_vs_io_size("fig09", Raid5)
        ),
        spec!(
            "fig10",
            "RAID-5 write on different I/O sizes",
            exp_fio::write_vs_io_size("fig10", Raid5)
        ),
        spec!(
            "fig11",
            "RAID-5 write on different chunk sizes",
            exp_fio::write_vs_chunk("fig11", Raid5)
        ),
        spec!(
            "fig12",
            "RAID-5 write on different stripe widths",
            exp_fio::write_vs_width("fig12", Raid5)
        ),
        spec!(
            "fig13",
            "RAID-5 write on different read/write ratios",
            exp_fio::write_vs_mix("fig13", Raid5)
        ),
        spec!(
            "fig14a",
            "RAID-5 latency vs bandwidth (write-only)",
            exp_fio::latency_vs_bandwidth("fig14a", Raid5, 0.0)
        ),
        spec!(
            "fig14b",
            "RAID-5 latency vs bandwidth (50% read + 50% write)",
            exp_fio::latency_vs_bandwidth("fig14b", Raid5, 0.5)
        ),
        spec!(
            "fig15",
            "RAID-5 degraded read on different I/O sizes",
            exp_fio::degraded_read_vs_io("fig15", Raid5)
        ),
        spec!(
            "fig16",
            "RAID-5 degraded read on different stripe widths",
            exp_fio::degraded_read_vs_width("fig16", Raid5)
        ),
        spec!(
            "fig17a",
            "Reconstruction scalability",
            exp_fio::reconstruction_scalability("fig17a")
        ),
        spec!(
            "fig17b",
            "Reconstruction with different reducer-selection algorithms",
            exp_fio::bandwidth_aware_reconstruction("fig17b")
        ),
        spec!(
            "fig18",
            "RAID-5 degraded-state write on different I/O sizes",
            exp_fio::degraded_write_vs_io("fig18", Raid5)
        ),
        spec!(
            "fig19a",
            "RocksDB-style KV YCSB throughput (normal state)",
            exp_app::lsm_ycsb("fig19a", false)
        ),
        spec!(
            "fig19b",
            "RocksDB-style KV YCSB throughput (degraded state)",
            exp_app::lsm_ycsb("fig19b", true)
        ),
        spec!(
            "fig20",
            "Object store on normal-state RAID-5",
            exp_app::object_ycsb("fig20", false)
        ),
        spec!(
            "fig21",
            "Object store on degraded-state RAID-5",
            exp_app::object_ycsb("fig21", true)
        ),
        spec!(
            "fig22",
            "RAID-6 normal-state read on different I/O sizes",
            exp_fio::read_vs_io_size("fig22", Raid6)
        ),
        spec!(
            "fig23",
            "RAID-6 write on different I/O sizes",
            exp_fio::write_vs_io_size("fig23", Raid6)
        ),
        spec!(
            "fig24",
            "RAID-6 write on different chunk sizes",
            exp_fio::write_vs_chunk("fig24", Raid6)
        ),
        spec!(
            "fig25",
            "RAID-6 write on different stripe widths",
            exp_fio::write_vs_width("fig25", Raid6)
        ),
        spec!(
            "fig26",
            "RAID-6 write on different read/write ratios",
            exp_fio::write_vs_mix("fig26", Raid6)
        ),
        spec!(
            "fig27a",
            "RAID-6 latency vs bandwidth (write-only)",
            exp_fio::latency_vs_bandwidth("fig27a", Raid6, 0.0)
        ),
        spec!(
            "fig27b",
            "RAID-6 latency vs bandwidth (50% read + 50% write)",
            exp_fio::latency_vs_bandwidth("fig27b", Raid6, 0.5)
        ),
        spec!(
            "fig28",
            "RAID-6 degraded read on different I/O sizes",
            exp_fio::degraded_read_vs_io("fig28", Raid6)
        ),
        spec!(
            "fig29",
            "RAID-6 degraded read on different stripe widths",
            exp_fio::degraded_read_vs_width("fig29", Raid6)
        ),
        spec!(
            "fig30",
            "RAID-6 degraded-state write on different I/O sizes",
            exp_fio::degraded_write_vs_io("fig30", Raid6)
        ),
        spec!(
            "ablation",
            "dRAID design-choice ablations",
            exp_misc::ablation("ablation")
        ),
        spec!(
            "cpu_util",
            "§7 server-side core utilization at peak write load",
            exp_misc::cpu_util("cpu_util")
        ),
        spec!(
            "breakdown",
            "Traced per-op resource demand (Table 1, quantified)",
            exp_misc::breakdown("breakdown")
        ),
        spec!(
            "openloop",
            "Open-loop Poisson and bursty arrival latency",
            exp_misc::openloop("openloop")
        ),
        spec!(
            "oversubscription",
            "Two-tier topology with an oversubscribed storage core",
            exp_misc::oversubscription("oversubscription")
        ),
        spec!(
            "bottleneck",
            "Where one loaded run's time goes, per resource class and slice",
            exp_misc::bottleneck("bottleneck")
        ),
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<FigureSpec> {
    all().into_iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Band, Kind};

    #[test]
    fn registry_ids_unique_and_ordered() {
        let ids: Vec<&str> = all().iter().map(|s| s.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate figure ids");
        assert!(ids.contains(&"fig10"));
        assert!(ids.contains(&"fig30"));
        assert!(ids.contains(&"table1"));
        // The extensions follow the paper's figures, in this order.
        let tail = [
            "ablation",
            "cpu_util",
            "breakdown",
            "openloop",
            "oversubscription",
            "bottleneck",
        ];
        assert_eq!(ids[ids.len() - tail.len()..], tail);
    }

    #[test]
    fn breakdown_quantifies_table1_asymmetry() {
        let fig = by_id("breakdown").expect("registered").build();
        let row = |label: &str, row: f64| {
            fig.series(label)
                .and_then(|s| s.at(row))
                .map(|p| p.y)
                .expect("measured")
        };
        // Row 1: drive bytes/op — identical drive work for every system.
        let drive = row("dRAID", 1.0);
        assert_eq!(row("Linux", 1.0), drive);
        assert_eq!(row("SPDK", 1.0), drive);
        // Row 0: network bytes/op — dRAID moves about half of SPDK's.
        let (draid, spdk) = (row("dRAID", 0.0), row("SPDK", 0.0));
        assert!(
            draid <= 0.55 * spdk,
            "dRAID {draid} vs SPDK {spdk} net bytes/op"
        );
    }

    /// The `bottleneck` figure splits every class's span into queueing and
    /// service, names the busiest resource of every slice, and drops no
    /// trace event; in a debug build its final audit also checks every
    /// conservation ledger.
    #[test]
    fn bottleneck_attributes_every_class_and_slice() {
        let fig = by_id("bottleneck").expect("registered").build();
        let span = fig.series("span").expect("span row");
        assert_eq!(span.points.len(), 4);
        for p in &span.points {
            let parts = fig.y("queue", p.x) + fig.y("service", p.x);
            assert!((parts - p.y).abs() <= 1e-9 * p.y.max(1.0), "class {}", p.x);
        }
        let shares = |prefix: &str| -> Vec<f64> {
            let notes = fig.notes.iter().filter(|n| n.starts_with(prefix));
            notes
                .map(|n| {
                    let pct = n.rsplit(' ').next().and_then(|w| w.strip_suffix('%'));
                    pct.and_then(|w| w.parse().ok()).expect(n)
                })
                .collect()
        };
        let busiest = shares("busy over the window: ");
        let slices = shares("busiest up to ");
        assert_eq!(busiest.len(), 8);
        assert_eq!(slices.len(), draid_core::MEASURE_SLICES as usize);
        for share in busiest.iter().chain(&slices) {
            assert!((0.0..=100.0).contains(share), "{share}% busy");
        }
        assert!(busiest[0] > 30.0, "load too light: {busiest:?}");
        assert!(!fig.notes.iter().any(|n| n.contains("dropped")));
    }

    /// The eight reproduction gates are gated rows of the figures that
    /// measure them, each with its threshold, so none can silently go.
    #[test]
    fn former_reproduction_gates_stay_gated() {
        use crate::Band::{Above, Below, Within};
        let gates: [(&str, &str, &[Band]); 8] = [
            ("fig09", "fig09-read-goodput", &[Above(10_500.0); 3]),
            ("fig10", "fig10-draid-plateau", &[Within(4_500.0, 5_600.0)]),
            (
                "fig12",
                "fig12-scaling",
                &[Above(9_000.0), Below(6_000.0), Above(1.8)],
            ),
            (
                "fig15",
                "fig15-degraded-read",
                &[Above(0.9), Below(0.7), Below(2_000.0)],
            ),
            ("table1", "table1-host-copies", &[Below(1.2), Above(3.5)]),
            ("fig17b", "fig17b-bw-aware", &[Above(1.2)]),
            ("fig23", "fig23-raid6-margin", &[Above(1.5)]),
            ("cpu_util", "sec7-member-cpu", &[Below(0.25)]),
        ];
        for (id, name, bands) in gates {
            let fig = by_id(id).expect("registered").build();
            let rows: Vec<_> = fig.claims.iter().filter(|c| c.name == name).collect();
            assert_eq!(
                rows.iter().map(|c| c.band).collect::<Vec<_>>(),
                bands,
                "{name}"
            );
            for c in rows {
                assert_eq!(c.kind, Kind::Gated, "{name}");
                assert!(c.holds(), "{}", c.note());
            }
        }
    }

    #[test]
    fn lookup() {
        assert!(by_id("fig17b").is_some());
        assert!(by_id("nope").is_none());
    }
}
