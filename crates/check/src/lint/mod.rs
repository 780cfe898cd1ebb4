//! A small lexical lint driver for the workspace's source-hygiene contract.
//!
//! The driver is deliberately *lexical*, not syntactic: it walks every
//! `.rs` file in the workspace, strips comments and string-literal
//! contents, indexes the identifiers that non-test code uses, and matches
//! rules against what remains. That keeps it
//! dependency-free (no rustc internals, no proc-macro parsing) and fast,
//! at the cost of known blind spots (type aliases, macro-generated code),
//! which the rules document individually.
//!
//! Findings survive only if no [`Allow`] entry matches; the allowlist is
//! per-rule and anchored to a path suffix plus a line substring so an
//! exception cannot silently widen when code moves.

pub mod rules;

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{all_rules, Rule, ALLOWLIST};

/// One workspace source file, with lazily derived comment/string-stripped
/// lines so rules can match code without tripping on prose.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/ec/src/kernels.rs`).
    pub path: String,
    /// Raw file contents.
    pub text: String,
    stripped: Vec<String>,
    /// Per line: whether it belongs to a `#[cfg(test)]` item.
    test_lines: Vec<bool>,
}

impl SourceFile {
    /// Builds a source file from a workspace-relative path and contents.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let text = text.into();
        let stripped = strip_comments_and_strings(&text);
        let test_lines = cfg_test_lines(&stripped);
        SourceFile {
            path: path.into(),
            text,
            stripped,
            test_lines,
        }
    }

    /// Raw lines (1-based indexing via `raw_line`).
    pub fn raw_lines(&self) -> impl Iterator<Item = &str> {
        self.text.lines()
    }

    /// The raw text of 1-based line `n`, or `""` past EOF.
    pub fn raw_line(&self, n: usize) -> &str {
        self.text.lines().nth(n.saturating_sub(1)).unwrap_or("")
    }

    /// Lines with comments removed and string-literal contents blanked.
    pub fn code_lines(&self) -> &[String] {
        &self.stripped
    }

    /// Code lines outside `#[cfg(test)]` items, as (0-based index, line).
    pub fn non_test_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.stripped
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.test_lines[i])
            .map(|(i, l)| (i, l.as_str()))
    }
}

/// Marks the lines of every `#[cfg(test)]` item: from the attribute to the
/// brace closing the item's body, or to the `;` ending a bodiless one.
/// Comments and literals are already blanked, so brackets balance.
fn cfg_test_lines(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let Some(at) = code[i].find("#[cfg(test)]") else {
            i += 1;
            continue;
        };
        // `depth` counts braces; `nest` counts the parentheses and square
        // brackets of the attribute and a signature (`[u8; 4]`).
        let (mut depth, mut nest, mut end, mut col) = (0usize, 0usize, code.len() - 1, at);
        'item: for (j, line) in code.iter().enumerate().skip(i) {
            for c in line[col..].chars() {
                match c {
                    '(' | '[' => nest += 1,
                    ')' | ']' => nest = nest.saturating_sub(1),
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = j;
                            break 'item;
                        }
                    }
                    ';' if depth == 0 && nest == 0 => {
                        end = j;
                        break 'item;
                    }
                    _ => {}
                }
            }
            col = 0;
        }
        mask[i..=end].fill(true);
        i = end + 1;
    }
    mask
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A targeted exception: suppresses findings of `rule` in files whose path
/// ends with `path_suffix`, on lines containing `line_contains` (empty
/// matches any line, including whole-file findings).
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// Rule the exception applies to.
    pub rule: &'static str,
    /// Path suffix the file must match.
    pub path_suffix: &'static str,
    /// Substring the offending raw line must contain (`""` = any).
    pub line_contains: &'static str,
    /// Why the exception is sound — shown by `draid-check --rules`.
    pub reason: &'static str,
}

/// Every identifier that caller code calls, built once per lint run over
/// the whole file set so cross-file rules (`no-dead-pub`) need no second
/// walk.
///
/// Caller code is the non-test part (everything outside `#[cfg(test)]`
/// items) of each file under `crates/*/src` (bins included), `src/`,
/// `examples/`, `simcost/src` and the facade's `tests/`. An identifier
/// counts only in call position (`name(`, `name::<T>(`) or after a path
/// separator (`Type::name`, which covers a fn pointer), so a field read
/// `self.name` or a local `name` is no use of a `pub fn name`. Neither the
/// `fn NAME` of a declaration nor a `use` declaration is a use: naming an
/// item in a re-export calls nothing. Per-crate `crates/*/tests/` never
/// count.
#[derive(Debug, Default)]
pub struct Index {
    used: HashSet<String>,
}

impl Index {
    /// Indexes the caller files among `files`.
    pub fn new(files: &[SourceFile]) -> Self {
        let mut used = HashSet::new();
        for file in files.iter().filter(|f| is_caller_file(&f.path)) {
            let mut in_use = false;
            for (_, line) in file.non_test_lines() {
                let mut prev = "";
                for (at, ident) in identifier_spans(line) {
                    in_use |= ident == "use";
                    if prev != "fn" && !in_use && is_called(line, at, ident.len()) {
                        used.insert(ident.to_string());
                    }
                    prev = ident;
                }
                if line.contains(';') {
                    in_use = false;
                }
            }
        }
        Index { used }
    }

    /// True if caller code calls `name` or names it through a path.
    pub fn uses(&self, name: &str) -> bool {
        self.used.contains(name)
    }
}

/// Whether a file's non-test code counts as a caller of library items.
fn is_caller_file(path: &str) -> bool {
    ["src/", "examples/", "tests/", "simcost/src/"]
        .iter()
        .any(|p| path.starts_with(p))
        || path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// The identifier tokens of a code line, in order (keywords included).
fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    identifier_spans(line).map(|(_, ident)| ident)
}

/// The identifier tokens of a code line with their byte offsets.
fn identifier_spans(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .map(move |t| (t.as_ptr() as usize - line.as_ptr() as usize, t))
}

/// Whether the identifier at `line[at..at + len]` is called (`name(`,
/// `name::<T>(`) or reached through a path (`Type::name`).
fn is_called(line: &str, at: usize, len: usize) -> bool {
    let after = line[at + len..].trim_start();
    after.starts_with('(') || after.starts_with("::<") || line[..at].trim_end().ends_with("::")
}

/// Lints a set of files with the given allowlist; returns surviving
/// findings sorted by (path, line, rule).
///
/// An allowlist entry that suppresses no finding is itself a finding
/// (rule `stale-allow`), so an exception goes once its item gains a
/// caller or leaves. Only entries whose file is in `files` are judged:
/// linting part of the tree says nothing of the rest's entries.
pub fn lint_files(files: &[SourceFile], allows: &[Allow]) -> Vec<Finding> {
    let index = Index::new(files);
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();
    for file in files {
        for rule in all_rules() {
            for finding in (rule.check)(file, &index) {
                let line_text = file.raw_line(finding.line);
                let allowed = allows.iter().position(|a| {
                    a.rule == finding.rule
                        && finding.path.ends_with(a.path_suffix)
                        && (a.line_contains.is_empty() || line_text.contains(a.line_contains))
                });
                match allowed {
                    Some(i) => used[i] = true,
                    None => out.push(finding),
                }
            }
        }
    }
    for (a, _) in allows.iter().zip(&used).filter(|(_, &hit)| !hit) {
        if let Some(file) = files.iter().find(|f| f.path.ends_with(a.path_suffix)) {
            out.push(Finding {
                rule: "stale-allow",
                path: file.path.clone(),
                line: 0,
                message: format!(
                    "allowlist entry [{}] `{}` suppresses no finding; delete it",
                    a.rule, a.line_contains
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    out
}

/// Walks the workspace rooted at `root` and lints every `.rs` file with
/// the default [`ALLOWLIST`].
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = collect_files(root)?;
    Ok(lint_files(&files, ALLOWLIST))
}

/// Locates the workspace root: the nearest ancestor of this crate's
/// manifest directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in manifest.ancestors() {
        let toml = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&toml) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

/// Collects every `.rs` file under `root`, skipping `target`, VCS
/// metadata, and `crates/shims` (offline stand-ins excluded from the
/// workspace). Files come back sorted by path for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(SourceFile::new(rel, text));
    }
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "shims" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path under root")
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Replaces comments with spaces and blanks string/char-literal contents,
/// preserving line structure so findings keep real line numbers.
///
/// Handles `//` line comments, nested `/* */` block comments, plain and
/// raw strings (`r"…"`, `r#"…"#`, byte variants), escapes, and char
/// literals (distinguished from lifetimes by lookahead).
fn strip_comments_and_strings(text: &str) -> Vec<String> {
    enum State {
        Code,
        Block(u32),
        Str,
        RawStr(usize),
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut keep = String::with_capacity(chars.len());
        let mut i = 0;
        while i < chars.len() {
            match state {
                State::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if chars[i] == '\\' {
                        i += 2;
                    } else if chars[i] == '"' {
                        keep.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if chars[i] == '"'
                        && chars[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|c| **c == '#')
                            .count()
                            == hashes
                        && (hashes == 0 || chars.get(i + 1..i + 1 + hashes).is_some())
                    {
                        keep.push('"');
                        state = State::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                State::Code => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        break; // line comment: drop the rest of the line
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::Block(1);
                        i += 2;
                    } else if c == '"' {
                        keep.push('"');
                        state = State::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && is_raw_string_start(&chars, i) {
                        // consume prefix up to and including the opening quote
                        let mut j = i + 1;
                        if chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        keep.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                    } else if c == '\'' && is_char_literal(&chars, i) {
                        // skip the char literal body
                        let mut j = i + 1;
                        if chars.get(j) == Some(&'\\') {
                            j += 2;
                        } else {
                            j += 1;
                        }
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        keep.push('\'');
                        keep.push('\'');
                        i = j + 1;
                    } else {
                        keep.push(c);
                        i += 1;
                    }
                }
            }
        }
        // Plain strings legally span lines (with or without a trailing
        // `\`), so string state carries over to the next line just like
        // raw-string and block-comment state.
        out.push(keep);
    }
    out
}

/// `r"`, `r#"`, `br"`, `br#"` at position `i`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// True if `needle` occurs in `line` as a standalone word (neither
/// neighbor is alphanumeric or `_`).
pub fn contains_word(line: &str, needle: &str) -> bool {
    find_word(line, needle).is_some()
}

/// Byte offset of the first standalone-word occurrence of `needle`.
pub fn find_word(line: &str, needle: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + needle.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_but_keeps_line_numbers() {
        let f = SourceFile::new("x.rs", "let a = 1; // trailing\n// whole line\nlet b = 2;");
        assert_eq!(f.code_lines().len(), 3);
        assert_eq!(f.code_lines()[0], "let a = 1; ");
        assert_eq!(f.code_lines()[1], "");
        assert_eq!(f.code_lines()[2], "let b = 2;");
    }

    #[test]
    fn strips_block_comments_including_nested() {
        let f = SourceFile::new("x.rs", "a /* one /* two */ still */ b\nnext");
        assert_eq!(f.code_lines()[0], "a  b");
        assert_eq!(f.code_lines()[1], "next");
    }

    #[test]
    fn blanks_string_contents() {
        let f = SourceFile::new("x.rs", r#"let u = "https://example.com"; code();"#);
        assert_eq!(f.code_lines()[0], r#"let u = ""; code();"#);
    }

    #[test]
    fn blanks_raw_string_contents() {
        let f = SourceFile::new("x.rs", "let s = r#\"contains // and \" things\"#; after();");
        assert_eq!(f.code_lines()[0], "let s = \"\"; after();");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = SourceFile::new("x.rs", "fn f<'a>(c: char) { if c == '/' { } }");
        // lifetime survives; char literal body blanked (no fake comment)
        assert!(f.code_lines()[0].contains("<'a>"));
        assert!(f.code_lines()[0].contains("''"));
        assert!(!f.code_lines()[0].contains("'/'"));
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(contains_word("(unsafe)", "unsafe"));
        assert!(!contains_word("forbid(unsafe_code)", "unsafe"));
        assert!(!contains_word("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(!contains_word("not_unsafe", "unsafe"));
    }

    #[test]
    fn allowlist_suppresses_matching_findings_only() {
        let bad = SourceFile::new(
            "crates/net/src/thing.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        let hit = lint_files(&[bad], &[]);
        assert!(hit.iter().any(|f| f.rule == "no-wall-clock"), "{hit:?}");

        let bad = SourceFile::new(
            "crates/net/src/thing.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        let allow = Allow {
            rule: "no-wall-clock",
            path_suffix: "net/src/thing.rs",
            line_contains: "Instant::now",
            reason: "test exception",
        };
        let none = lint_files(&[bad], &[allow]);
        assert!(
            !none.iter().any(|f| f.rule == "no-wall-clock"),
            "allow entry must suppress: {none:?}"
        );

        // A non-matching substring leaves the finding live.
        let bad = SourceFile::new(
            "crates/net/src/thing.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        let wrong = Allow {
            line_contains: "SystemTime",
            ..allow
        };
        let still = lint_files(&[bad], &[wrong]);
        assert!(still.iter().any(|f| f.rule == "no-wall-clock"));
    }

    #[test]
    fn allowlist_entry_that_suppresses_nothing_is_a_finding() {
        let bad = || {
            SourceFile::new(
                "crates/net/src/thing.rs",
                "fn f() { let t = std::time::Instant::now(); }",
            )
        };
        let live = Allow {
            rule: "no-wall-clock",
            path_suffix: "net/src/thing.rs",
            line_contains: "Instant::now",
            reason: "test exception",
        };
        let stale = Allow {
            line_contains: "SystemTime",
            ..live
        };
        let hits = lint_files(&[bad()], &[live, stale]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "stale-allow");
        assert_eq!(hits[0].path, "crates/net/src/thing.rs");
        assert!(hits[0].message.contains("SystemTime"), "{hits:?}");
        // An entry for a file outside the linted set is not judged.
        let elsewhere = Allow {
            path_suffix: "core/src/other.rs",
            ..stale
        };
        assert!(lint_files(&[bad()], &[live, elsewhere]).is_empty());
    }

    fn dead_pub(files: Vec<SourceFile>) -> Vec<Finding> {
        lint_files(&files, &[])
            .into_iter()
            .filter(|f| f.rule == "no-dead-pub")
            .collect()
    }

    #[test]
    fn getter_read_only_as_a_field_is_dead() {
        let hits = dead_pub(vec![
            SourceFile::new(
                "crates/foo/src/thing.rs",
                "pub struct S { count: u64 }\n\
                 impl S { pub fn count(&self) -> u64 { self.count } }\n\
                 pub(crate) fn bump(s: &mut S) { s.count += 1; }\n",
            ),
            SourceFile::new("src/lib.rs", "fn f(s: &S) { let count = s.count; }\n"),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("count"), "{hits:?}");
    }

    #[test]
    fn fn_pointer_through_a_path_is_a_use() {
        let hits = dead_pub(vec![
            SourceFile::new(
                "crates/foo/src/thing.rs",
                "impl Thing { pub fn on_done(&mut self) {} }\n",
            ),
            SourceFile::new("src/lib.rs", "fn f() { register(Thing::on_done); }\n"),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
        let turbofish = dead_pub(vec![
            SourceFile::new("crates/foo/src/thing.rs", "pub fn parse<T>() {}\n"),
            SourceFile::new("src/lib.rs", "fn f(s: &str) { s.parse::<u8>(); }\n"),
        ]);
        assert!(turbofish.is_empty(), "{turbofish:?}");
    }

    #[test]
    fn test_region_detection() {
        let f = SourceFile::new(
            "x.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x() }\n}\nfn b() {}\n\
             #[cfg(test)]\nuse std::fmt;\nfn c() {}\n\
             #[cfg(test)]\nfn helper(a: [u8; 4],\n          b: u8) {\n}\nfn d() {}",
        );
        let kept: Vec<usize> = f.non_test_lines().map(|(i, _)| i + 1).collect();
        assert_eq!(kept, [1, 6, 9, 14]);
        let g = SourceFile::new("x.rs", "fn a() {}");
        assert_eq!(g.non_test_lines().count(), 1);
    }
}
