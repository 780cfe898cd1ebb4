//! The paper's claims as checked rows. A figure builder records each claim
//! next to the data it measured; `all_figures` prints every claim under its
//! figure and in one "Headline claims" table, and fails when a gated claim
//! misses its band.

use crate::Figure;

/// What a miss means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A miss fails the run.
    Gated,
    /// A fidelity gap EXPERIMENTS.md's "Known limitation" explains: a miss
    /// renders ⚠️ and does not fail the run.
    KnownGap,
}

/// A measured number in the unit it renders in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Bandwidth in MB/s.
    Mbps(f64),
    /// A ratio, rendered as `1.25x`.
    Times(f64),
    /// A fraction, rendered as a percentage.
    Share(f64),
}

impl Value {
    /// `v` rendered in this value's unit.
    fn show(self, v: f64) -> String {
        match self {
            Value::Mbps(_) => format!("{v:.0} MB/s"),
            Value::Times(_) => format!("{v:.2}x"),
            Value::Share(_) => format!("{:.1}%", v * 100.0),
        }
    }
}

/// The band a measured number must lie in, in its value's unit (a fraction
/// for [`Value::Share`]). NaN, a missing point, lies in none.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Band {
    /// Strictly above the bound.
    Above(f64),
    /// Strictly below the bound.
    Below(f64),
    /// `lo <= v < hi`.
    Within(f64, f64),
}

/// One of the paper's claims, checked against a number its figure measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Stable name (`fig10-draid-plateau`, …).
    pub name: String,
    /// The paper's claim and where it is read (`@128 KiB`, `@18 / @4`, …).
    pub paper: String,
    /// The measured number.
    pub measured: Value,
    /// Where the measured number must lie.
    pub band: Band,
    /// Whether a miss fails the run.
    pub kind: Kind,
}

impl Claim {
    /// Whether the measured number lies in the band.
    pub fn holds(&self) -> bool {
        let (Value::Mbps(v) | Value::Times(v) | Value::Share(v)) = self.measured;
        match self.band {
            Band::Above(lo) => v > lo,
            Band::Below(hi) => v < hi,
            Band::Within(lo, hi) => (lo..hi).contains(&v),
        }
    }

    /// Whether this claim fails the run: gated and outside its band.
    pub fn fails(&self) -> bool {
        self.kind == Kind::Gated && !self.holds()
    }

    /// The verdict, the measured number and the band, rendered.
    fn cells(&self) -> [String; 3] {
        let verdict = match (self.holds(), self.kind) {
            (true, _) => "✅",
            (false, Kind::KnownGap) => "⚠️ known gap",
            (false, Kind::Gated) => "❌ FAIL",
        };
        let (Value::Mbps(v) | Value::Times(v) | Value::Share(v)) = self.measured;
        let show = |v| self.measured.show(v);
        let band = match self.band {
            Band::Above(lo) => format!("> {}", show(lo)),
            Band::Below(hi) => format!("< {}", show(hi)),
            Band::Within(lo, hi) => format!("{} to {}", show(lo), show(hi)),
        };
        [verdict.to_string(), show(v), band]
    }

    /// The claim as a figure note line.
    pub(crate) fn note(&self) -> String {
        let [verdict, measured, band] = self.cells();
        let (name, paper) = (&self.name, &self.paper);
        format!("{verdict} {name}: paper: {paper}; measured {measured} (band {band})")
    }
}

/// The "Headline claims" table: every claim of `figs`, in figure order.
pub fn headline_table(figs: &[Figure]) -> String {
    let mut out = String::from(
        "### Headline claims\n\n\
         Every claim below is recorded by the figure that measures it. ⚠️ marks a known gap \
         (EXPERIMENTS.md, \"Known limitation\"); a gated claim outside its band fails the run.\n\n\
         | Claim | Paper | Measured | Band | Verdict |\n|---|---|---|---|---|\n",
    );
    for c in figs.iter().flat_map(|f| &f.claims) {
        let [verdict, measured, band] = c.cells();
        let (name, paper) = (&c.name, &c.paper);
        out.push_str(&format!(
            "| {name} | {paper} | {measured} | {band} | {verdict} |\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(kind: Kind, measured: f64) -> Claim {
        Claim {
            name: "figX-demo".into(),
            paper: "dRAID/SPDK = 1.7x".into(),
            measured: Value::Times(measured),
            band: Band::Above(1.5),
            kind,
        }
    }

    #[test]
    fn inside_the_band_renders_a_check() {
        for kind in [Kind::Gated, Kind::KnownGap] {
            let c = claim(kind, 1.72);
            assert!(c.holds() && !c.fails());
            assert!(c
                .note()
                .starts_with("✅ figX-demo: paper: dRAID/SPDK = 1.7x"));
            assert!(c.note().ends_with("measured 1.72x (band > 1.50x)"));
        }
    }

    #[test]
    fn a_gated_miss_fails() {
        let c = claim(Kind::Gated, 1.2);
        assert!(c.fails());
        assert!(c.note().starts_with("❌ FAIL"));
        // A missing point is NaN, which no band contains.
        assert!(claim(Kind::Gated, f64::NAN).fails());
    }

    #[test]
    fn a_known_gap_miss_warns_and_passes() {
        let c = claim(Kind::KnownGap, 1.2);
        assert!(!c.holds() && !c.fails());
        assert!(c.note().starts_with("⚠️ known gap"));
    }

    #[test]
    fn bands_are_strict_above_and_below_and_half_open_within() {
        let holds = |band, v| {
            Claim {
                band,
                ..claim(Kind::Gated, v)
            }
            .holds()
        };
        assert!(!holds(Band::Above(1.0), 1.0));
        assert!(!holds(Band::Below(1.0), 1.0));
        assert!(holds(Band::Within(1.0, 2.0), 1.0));
        assert!(!holds(Band::Within(1.0, 2.0), 2.0));
        let share = Claim {
            measured: Value::Share(0.082),
            band: Band::Below(0.25),
            ..claim(Kind::Gated, 0.0)
        };
        assert!(share.note().ends_with("measured 8.2% (band < 25.0%)"));
    }

    #[test]
    fn the_table_lists_every_claim_of_every_figure() {
        let mut a = Figure::new("a", "a", "x", "y");
        a.claims.push(claim(Kind::Gated, 1.72));
        let mut b = Figure::new("b", "b", "x", "y");
        b.claims.push(claim(Kind::KnownGap, 1.2));
        let table = headline_table(&[a, b]);
        assert!(table.contains("| figX-demo | dRAID/SPDK = 1.7x | 1.72x | > 1.50x | ✅ |"));
        assert!(table.contains("| 1.20x | > 1.50x | ⚠️ known gap |"));
    }
}
