//! Figure data model and table rendering.

use std::fmt;

use crate::claim::{Band, Claim, Kind, Value};

/// One measured point of a series.
#[derive(Clone, Debug)]
pub struct Point {
    /// Sweep-variable value (I/O size in KiB, stripe width, read %, …) — or
    /// bandwidth for latency-vs-bandwidth figures.
    pub x: f64,
    /// Primary metric (bandwidth MB/s, KIOPS, …).
    pub y: f64,
    /// Mean latency in µs at this point, when meaningful.
    pub latency_us: Option<f64>,
}

/// One line of a figure (a system or configuration).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label ("Linux", "SPDK", "dRAID", …).
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<Point>,
}

impl Series {
    /// Groups `(label, point)` results into series, in first-seen order.
    pub(crate) fn group(results: impl IntoIterator<Item = (String, Point)>) -> Vec<Series> {
        let mut series: Vec<Series> = Vec::new();
        for (label, point) in results {
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.points.push(point),
                None => series.push(Series {
                    label,
                    points: vec![point],
                }),
            }
        }
        series
    }

    /// The point at sweep value `x`, if measured.
    pub fn at(&self, x: f64) -> Option<&Point> {
        self.points.iter().find(|p| (p.x - x).abs() < 1e-9)
    }

    /// Largest primary metric in the series.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.y).fold(0.0, f64::max)
    }
}

/// A regenerated table/figure of the paper.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper identifier ("fig10", "table1", …).
    pub id: String,
    /// Caption, matching the paper's.
    pub title: String,
    /// Sweep-variable name.
    pub x_label: String,
    /// Primary-metric name.
    pub y_label: String,
    /// Measured series.
    pub series: Vec<Series>,
    /// Observations appended to the rendering.
    pub notes: Vec<String>,
    /// The paper's claims, checked against this figure's data.
    pub claims: Vec<Claim>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// A series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The union of every series' sweep values, in first-seen order.
    fn xs(&self) -> Vec<f64> {
        let all = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x));
        all.fold(Vec::new(), |mut acc, x| {
            if !acc.iter().any(|&v: &f64| (v - x).abs() < 1e-9) {
                acc.push(x);
            }
            acc
        })
    }

    /// The primary metric of series `label` at sweep value `x`; NaN when
    /// not measured, which fails any claim that reads it.
    pub fn y(&self, label: &str, x: f64) -> f64 {
        self.series(label)
            .and_then(|s| s.at(x))
            .map_or(f64::NAN, |p| p.y)
    }

    /// Ratio of two series' primary metric at sweep value `x` (e.g.
    /// dRAID/SPDK at 128 KiB — the paper's "×" claims); NaN when either
    /// point is missing or the denominator is not positive.
    pub fn ratio_at(&self, num: &str, den: &str, x: f64) -> f64 {
        let d = self.y(den, x);
        if d > 0.0 {
            self.y(num, x) / d
        } else {
            f64::NAN
        }
    }

    /// Adds a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Records the paper's claims, each checked against a number this
    /// figure measured, as `(kind, name, band, measured, paper)` rows.
    pub fn claim(
        &mut self,
        rows: impl IntoIterator<Item = (Kind, String, Band, Value, &'static str)>,
    ) {
        for (kind, name, band, measured, paper) in rows {
            let paper = paper.to_string();
            self.claims.push(Claim {
                name,
                paper,
                measured,
                band,
                kind,
            });
        }
    }

    /// Renders as a Markdown table (also what `Display` prints).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        if self.series.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let has_latency = self
            .series
            .iter()
            .any(|s| s.points.iter().any(|p| p.latency_us.is_some()));
        // Header.
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} ({}) |", s.label, self.y_label));
        }
        if has_latency {
            for s in &self.series {
                out.push_str(&format!(" {} lat (us) |", s.label));
            }
        }
        out.push('\n');
        let cols = self.series.len() * if has_latency { 2 } else { 1 } + 1;
        out.push_str(&format!("|{}\n", "---|".repeat(cols)));
        // Rows: union of x values in first-series order.
        for x in self.xs() {
            out.push_str(&format!("| {} |", trim_float(x)));
            for s in &self.series {
                match s.at(x) {
                    Some(p) => out.push_str(&format!(" {:.0} |", p.y)),
                    None => out.push_str(" – |"),
                }
            }
            if has_latency {
                for s in &self.series {
                    match s.at(x).and_then(|p| p.latency_us) {
                        Some(l) => out.push_str(&format!(" {l:.0} |")),
                        None => out.push_str(" – |"),
                    }
                }
            }
            out.push('\n');
        }
        if !self.notes.is_empty() || !self.claims.is_empty() {
            out.push('\n');
            let claims = self.claims.iter().map(Claim::note);
            for n in self.notes.iter().cloned().chain(claims) {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

impl Figure {
    /// Renders a terminal bar chart of the primary metric (one bar per
    /// series per sweep point, normalized to the figure's maximum).
    pub fn to_ascii_chart(&self) -> String {
        const WIDTH: usize = 48;
        let max = self.series.iter().map(Series::peak).fold(0.0f64, f64::max);
        if max <= 0.0 || self.series.is_empty() {
            return String::new();
        }
        let label_w = self.series.iter().map(|s| s.label.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {} ({}, max {:.0})\n",
            self.id, self.title, self.y_label, max
        ));
        for x in self.xs() {
            out.push_str(&format!("{} {}\n", trim_float(x), self.x_label));
            for s in &self.series {
                if let Some(p) = s.at(x) {
                    let bar = ((p.y / max) * WIDTH as f64).round() as usize;
                    out.push_str(&format!(
                        "  {:<label_w$} {:>8.0} |{}\n",
                        s.label,
                        p.y,
                        "#".repeat(bar)
                    ));
                }
            }
        }
        out
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("figX", "demo", "I/O size (KiB)", "MB/s");
        fig.series.push(Series {
            label: "SPDK".into(),
            points: vec![
                Point {
                    x: 4.0,
                    y: 100.0,
                    latency_us: Some(10.0),
                },
                Point {
                    x: 128.0,
                    y: 3000.0,
                    latency_us: Some(500.0),
                },
            ],
        });
        fig.series.push(Series {
            label: "dRAID".into(),
            points: vec![
                Point {
                    x: 4.0,
                    y: 150.0,
                    latency_us: Some(9.0),
                },
                Point {
                    x: 128.0,
                    y: 5100.0,
                    latency_us: Some(400.0),
                },
            ],
        });
        fig
    }

    #[test]
    fn ratio_and_peak() {
        let mut fig = sample();
        let r = fig.ratio_at("dRAID", "SPDK", 128.0);
        assert!((r - 1.7).abs() < 0.01);
        assert_eq!(fig.series("dRAID").expect("exists").peak(), 5100.0);
        assert!(fig.ratio_at("dRAID", "missing", 128.0).is_nan());
        fig.series[0].points[1].y = 0.0;
        assert!(fig.ratio_at("dRAID", "SPDK", 128.0).is_nan());
        assert!(fig.y("dRAID", 64.0).is_nan());
    }

    #[test]
    fn markdown_contains_all_cells() {
        let mut fig = sample();
        fig.note("x axis: I/O size");
        let r = fig.ratio_at("dRAID", "SPDK", 128.0);
        let name = "figX-ratio".to_string();
        fig.claim([(Kind::Gated, name, Band::Above(1.5), Value::Times(r), "1.7x")]);
        let md = fig.to_markdown();
        assert!(md.contains("| 4 |"));
        assert!(md.contains("5100"));
        assert!(md.contains("lat (us)"));
        // Plain notes first, then the claims.
        assert!(md.ends_with(
            "- x axis: I/O size\n- ✅ figX-ratio: paper: 1.7x; measured 1.70x (band > 1.50x)\n"
        ));
    }

    #[test]
    fn ascii_chart_scales_bars() {
        let fig = sample();
        let chart = fig.to_ascii_chart();
        assert!(chart.contains("max 5100"));
        // The max point gets the widest bar.
        let widest = chart.lines().map(|l| l.matches('#').count()).max().unwrap();
        let draid_line = chart
            .lines()
            .find(|l| l.contains("dRAID") && l.contains("5100"))
            .expect("max row present");
        assert_eq!(draid_line.matches('#').count(), widest);
    }

    #[test]
    fn missing_points_render_dashes() {
        let mut fig = sample();
        fig.series[0].points.remove(0);
        assert!(fig.to_markdown().contains("–"));
    }
}
