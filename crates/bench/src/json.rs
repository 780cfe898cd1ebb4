//! A minimal JSON document model and its writer.
//!
//! The workspace's `serde` is a façade without a JSON backend, so the bench
//! crate carries its own small writer. Both JSON files it writes —
//! `BENCH_kernels.json` and `BENCH_sim.json` — are [`Json`] values printed
//! through its `Display` impl. Nothing in the library reads JSON: the
//! reader the crate's tests check those files with lives in
//! `tests/common/json.rs`.

use std::fmt;

/// A JSON value to be written.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// A number rounded to `decimals` places exactly as `{:.decimals$}`
    /// rounds it, so the document prints no more digits than the
    /// measurement resolves.
    pub fn rounded(x: f64, decimals: usize) -> Json {
        Json::Num(
            format!("{x:.decimals$}")
                .parse()
                .expect("a formatted f64 parses"),
        )
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// Prints the value as a document. One layout rule covers every file the
/// crate writes: the root object puts each member on its own line, arrays
/// directly inside the root put each element on its own line, and
/// everything else prints inline (`{"k": v, "k2": v2}`, `[a, b]`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &Json, depth: usize) -> fmt::Result {
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        // `f64`'s `Display` prints integral values without a fraction and
        // everything else as the shortest decimal that parses back exactly.
        Json::Num(n) if n.is_finite() => write!(f, "{n}"),
        Json::Num(_) => f.write_str("null"),
        Json::Str(s) => write_str(f, s),
        Json::Arr(items) => write_seq(f, "[]", depth, depth == 1, items, |f, item| {
            write_value(f, item, depth + 1)
        }),
        Json::Obj(members) => write_seq(f, "{}", depth, depth == 0, members, |f, (k, v)| {
            write_str(f, k)?;
            f.write_str(": ")?;
            write_value(f, v, depth + 1)
        }),
    }
}

/// Writes `items` between `brackets`, either inline or one item per line
/// indented one level deeper than `depth`.
fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    brackets: &str,
    depth: usize,
    one_per_line: bool,
    items: &[T],
    mut each: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    f.write_str(open)?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if one_per_line {
            write!(f, "\n{:1$}", "", 2 * depth + 2)?;
        } else if i > 0 {
            f.write_str(" ")?;
        }
        each(f, item)?;
    }
    if one_per_line {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_str(close)
}

/// Writes `s` as a quoted, escaped JSON string.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}
