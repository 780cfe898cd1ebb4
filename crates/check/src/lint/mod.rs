//! A small lexical lint driver for the workspace's source-hygiene contract.
//!
//! The driver is deliberately *lexical*, not syntactic: it walks every
//! `.rs` file in the workspace, strips comments and string-literal
//! contents, indexes what each use in non-test code can name, and matches
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

/// The item a `pub fn` belongs to: the type of the inherent `impl` block
/// it sits in, or the module it is free in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Owner {
    /// A method or associated function of this type.
    Type(String),
    /// A free function of this module (its file stem, the directory of a
    /// `mod.rs`, or an inline `mod`).
    Module(String),
}

/// One `pub fn` (or `pub const fn`) declared in a file's non-test code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubFn {
    /// 0-based line of the declaration.
    pub line: usize,
    /// The function's name.
    pub name: String,
    /// What it belongs to.
    pub owner: Owner,
}

/// Every use that caller code makes of a function, resolved as far as a
/// lexical pass can. Built once per lint run over the whole file set so
/// cross-file rules (`no-dead-pub`) need no second walk.
///
/// Caller code is the non-test part (everything outside `#[cfg(test)]`
/// items) of each file under `crates/*/src` (bins included), `src/`,
/// `examples/` and `simcost/src`. Test targets, the facade's `tests/`
/// included, are no callers. A use is recorded by what it can name:
///
/// * `.name(` and `.name::<T>(` reach methods called `name` of any type,
///   except that `self.name(` inside an `impl` block reaches that type's;
/// * `Type::name` and `Self::name` reach `name` of that type's inherent
///   `impl` only, in any position, so a fn pointer counts;
/// * `module::name` reaches a free `name` of that module, or of that crate
///   when the qualifier is a crate (`draid_core::`, the facade's
///   `draid::core::`, or `crate::`/`super::`/`self::` in the caller's own
///   crate);
/// * a bare call `name(` reaches a free `name` of the same file, or the one
///   a `use` line of the file imports (by name, alias or glob).
///
/// A field read `self.name` or a local `name` is no use, and neither is the
/// `fn NAME` of a declaration or a `use` declaration: naming an item in a
/// re-export calls nothing.
#[derive(Debug, Default)]
pub struct Index {
    /// Names called as methods, or through a qualifier that is no plain
    /// identifier (`<T as Tr>::name`, `Vec::<u8>::name`).
    methods: HashSet<String>,
    /// `(type, name)` of `Type::name` and `Self::name` paths.
    assoc: HashSet<(String, String)>,
    /// `(module or crate, name)` of qualified free-function uses.
    paths: HashSet<(String, String)>,
    /// `(file, name)` of each bare call.
    bare: HashSet<(String, String)>,
}

impl Index {
    /// Indexes the caller files among `files`.
    pub fn new(files: &[SourceFile]) -> Self {
        let mut index = Index::default();
        for file in files.iter().filter(|f| is_caller_file(&f.path)) {
            let own_crate = crate_dir(&file.path).unwrap_or_default();
            let mut qualified: Vec<(String, String)> = Vec::new();
            let mut bare: Vec<String> = Vec::new();
            let imports = file.walk(|tok| {
                if tok.in_use || tok.prev[0] == "fn" {
                    return;
                }
                let before = tok.code[..tok.at].trim_end();
                let after = tok.code[tok.at + tok.ident.len()..].trim_start();
                let called = after.starts_with('(') || after.starts_with("::<");
                let name = tok.ident.to_string();
                // What the use is qualified by: the path's last segment, or
                // `Self` for a method called on `self`; `None` for another
                // method call or a qualifier that is no plain identifier.
                let qualifier = match (before.strip_suffix("::"), before.strip_suffix('.')) {
                    (Some(path), _) => trailing_ident(path),
                    (None, Some(receiver)) if called => {
                        (trailing_ident(receiver) == Some("self")).then_some("Self")
                    }
                    (None, Some(_)) => return,
                    (None, None) => {
                        if called {
                            bare.push(name);
                        }
                        return;
                    }
                };
                match (qualifier, tok.impl_ty) {
                    (Some("Self"), Some(ty)) => {
                        index.assoc.insert((ty.to_string(), name));
                    }
                    (Some("Self") | None, _) => {
                        index.methods.insert(name);
                    }
                    (Some(q), _) => qualified.push((q.to_string(), name)),
                }
            });
            for name in bare {
                for (q, leaf) in imports.resolve_bare(&name) {
                    qualified.push((q, leaf));
                }
                index.bare.insert((file.path.clone(), name));
            }
            for (q, name) in qualified {
                let q = imports.unalias(&q);
                if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                    index.assoc.insert((q.to_string(), name));
                } else if matches!(q, "crate" | "self" | "super") {
                    index.paths.insert((own_crate.to_string(), name));
                } else {
                    index.paths.insert((q.to_string(), name));
                }
            }
        }
        index
    }

    /// True if caller code can reach `item`, declared in `file`.
    pub fn uses(&self, file: &SourceFile, item: &PubFn) -> bool {
        let name = item.name.clone();
        match &item.owner {
            Owner::Type(ty) => {
                self.methods.contains(&name) || self.assoc.contains(&(ty.clone(), name))
            }
            Owner::Module(module) => {
                let dir = crate_dir(&file.path).unwrap_or_default();
                let via = |q: String| self.paths.contains(&(q, name.clone()));
                self.bare.contains(&(file.path.clone(), name.clone()))
                    || via(module.clone())
                    || via(dir.to_string())
                    || via(format!("draid_{dir}"))
            }
        }
    }
}

/// Whether a file's non-test code counts as a caller of library items.
fn is_caller_file(path: &str) -> bool {
    ["src/", "examples/", "simcost/src/"]
        .iter()
        .any(|p| path.starts_with(p))
        || crate_dir(path).is_some() && path.split('/').nth(2) == Some("src")
}

/// `DIR` for a file under `crates/DIR/`: the crate `draid_DIR`, which the
/// facade re-exports as `draid::DIR`.
fn crate_dir(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

/// The module a file's free items belong to: its stem, or its directory
/// for a `mod.rs`.
fn file_module(path: &str) -> &str {
    let mut parts = path.trim_end_matches(".rs").rsplit('/');
    let stem = parts.next().unwrap_or_default();
    match stem {
        "mod" => parts.next().unwrap_or_default(),
        _ => stem,
    }
}

/// The identifier `text` ends with, if it ends with one.
fn trailing_ident(text: &str) -> Option<&str> {
    let start = text
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    let ident = &text[start..];
    ident
        .starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        .then_some(ident)
}

/// An identifier of a file's non-test code, with its lexical context.
struct Tok<'a> {
    /// 0-based line.
    line: usize,
    /// The stripped code line it is on.
    code: &'a str,
    /// Byte offset in `code`.
    at: usize,
    ident: &'a str,
    /// The three identifiers before it, nearest first.
    prev: [&'a str; 3],
    /// Whether it is part of a `use` declaration.
    in_use: bool,
    /// The self type of the innermost `impl` block around it.
    impl_ty: Option<&'a str>,
    /// The innermost inline `mod` around it.
    module: Option<&'a str>,
}

/// What a file's `use` declarations import: `alias -> (qualifier, name)`,
/// and the qualifiers of its glob imports.
#[derive(Default)]
struct Imports {
    names: Vec<(String, String, String)>,
    globs: Vec<String>,
}

impl Imports {
    /// The `(qualifier, name)` pairs a bare call of `name` can reach.
    fn resolve_bare(&self, name: &str) -> Vec<(String, String)> {
        let named = self
            .names
            .iter()
            .filter(|(alias, _, _)| alias == name)
            .map(|(_, q, leaf)| (q.clone(), leaf.clone()));
        let globbed = self.globs.iter().map(|q| (q.clone(), name.to_string()));
        named.chain(globbed).collect()
    }

    /// The imported name `alias` stands for (`use a::B as C` makes `C` a
    /// `B`), or `alias` itself.
    fn unalias<'a>(&'a self, alias: &'a str) -> &'a str {
        self.names
            .iter()
            .find(|(a, _, _)| a == alias)
            .map_or(alias, |(_, _, leaf)| leaf.as_str())
    }

    /// Adds the leaves of one `use` tree (the text between `use` and
    /// `;`), each path below `prefix`.
    fn add_tree(&mut self, prefix: &str, tree: &str) {
        let tree = tree.trim();
        let Some(open) = tree.find('{') else {
            let path = format!("{prefix}{tree}");
            let (path, alias) = path.split_once(" as ").unwrap_or((&path, ""));
            let mut segments = path.rsplit("::").map(str::trim);
            let leaf = segments.next().unwrap_or_default();
            let qual = segments.next().unwrap_or_default().to_string();
            match leaf {
                "*" => self.globs.push(qual),
                "" | "self" => {}
                _ => {
                    let alias = if alias.is_empty() { leaf } else { alias.trim() };
                    self.names.push((alias.to_string(), qual, leaf.to_string()));
                }
            }
            return;
        };
        let head = format!("{prefix}{}", &tree[..open]);
        let body = &tree[open + 1..tree.rfind('}').unwrap_or(tree.len())];
        let (mut depth, mut start) = (0usize, 0);
        for (i, c) in body.char_indices() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    self.add_tree(&head, &body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        self.add_tree(&head, &body[start..]);
    }
}

impl SourceFile {
    /// The `pub fn`s of the file's non-test code, with their owners.
    pub fn pub_fns(&self) -> Vec<PubFn> {
        let mut out = Vec::new();
        let module = file_module(&self.path);
        self.walk(|tok| {
            let public = tok.prev[1] == "pub" || tok.prev[1] == "const" && tok.prev[2] == "pub";
            if tok.prev[0] == "fn" && public && !tok.in_use {
                let owner = match tok.impl_ty {
                    Some(ty) => Owner::Type(ty.to_string()),
                    None => Owner::Module(tok.module.unwrap_or(module).to_string()),
                };
                out.push(PubFn {
                    line: tok.line,
                    name: tok.ident.to_string(),
                    owner,
                });
            }
        });
        out
    }

    /// Visits every identifier of the non-test code in order, tracking the
    /// `impl` and `mod` blocks around it by brace depth; returns what the
    /// file's `use` declarations import. An `impl` opens a block only at
    /// item position (after `{`, `}`, `;`, `]`, `unsafe` or at the start),
    /// so `-> impl Trait` and `x: impl Fn()` do not.
    fn walk<'a>(&'a self, mut visit: impl FnMut(&Tok<'_>)) -> Imports {
        let mut imports = Imports::default();
        // `(depth inside the block, "impl" or "mod", self type or name)`.
        let mut scopes: Vec<(usize, &str, String)> = Vec::new();
        let mut depth = 0usize;
        // An `impl`/`mod` header waiting for its `{`, or a `use` tree
        // waiting for its `;`, with its text so far.
        let mut pending: Option<(&str, String)> = None;
        let mut last = "{";
        let mut prev: [&'a str; 3] = [""; 3];
        for (line, code) in self.non_test_lines() {
            for (at, token) in tokens(code) {
                let is_ident = token.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
                if let Some((_, text)) = &mut pending {
                    if is_ident {
                        text.push(' ');
                    }
                    text.push_str(token);
                }
                let kind = pending.as_ref().map(|&(kind, _)| kind);
                match token {
                    "{" => {
                        depth += 1;
                        let header = pending.take_if(|(kind, _)| matches!(*kind, "impl" | "mod"));
                        if let Some((kind, text)) = header {
                            let text = text.trim_end_matches('{');
                            let name = match kind {
                                "impl" => impl_self_type(text),
                                _ => trailing_ident(text.trim()).unwrap_or_default().to_string(),
                            };
                            scopes.push((depth, kind, name));
                        }
                    }
                    "}" => {
                        if scopes.last().is_some_and(|&(d, _, _)| d == depth) {
                            scopes.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    ";" if matches!(kind, Some("use" | "mod")) => {
                        if let Some(("use", tree)) = pending.take() {
                            imports.add_tree("", tree.trim_end_matches(';'));
                        }
                    }
                    _ if is_ident => {
                        let item_position = matches!(last, "{" | "}" | ";" | "]");
                        if kind.is_none()
                            && (matches!(token, "mod" | "use")
                                || token == "impl" && (item_position || prev[0] == "unsafe"))
                        {
                            pending = Some((token, String::new()));
                        }
                        if !matches!(pending, Some(("impl" | "mod", _))) {
                            let innermost = |want: &str| {
                                let scope = scopes.iter().rev().find(|&&(_, k, _)| k == want);
                                scope.map(|(_, _, name)| name.as_str())
                            };
                            visit(&Tok {
                                line,
                                code,
                                at,
                                ident: token,
                                prev,
                                in_use: pending.is_some(),
                                impl_ty: innermost("impl"),
                                module: innermost("mod"),
                            });
                        }
                        prev = [token, prev[0], prev[1]];
                    }
                    _ => {}
                }
                last = token;
            }
        }
        imports
    }
}

/// The tokens of a code line with their byte offsets: identifiers (and
/// keywords, and numbers' digit runs split off) whole, anything else one
/// character at a time; whitespace separates and is dropped.
fn tokens(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        at += code[at..].len() - code[at..].trim_start().len();
        let c = code[at..].chars().next()?;
        let len = if c.is_ascii_alphanumeric() || c == '_' {
            code[at..]
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(code.len() - at)
        } else {
            c.len_utf8()
        };
        at += len;
        Some((at - len, &code[at - len..at]))
    })
}

/// The self type named by an `impl` header (the text between `impl` and
/// `{`): the last path segment after `for`, or after `impl` when there is
/// no `for`, with generic arguments and any `where` clause dropped.
fn impl_self_type(header: &str) -> String {
    let mut flat = String::new();
    let mut angle = 0usize;
    for c in header.chars() {
        match c {
            '<' => angle += 1,
            '>' if angle > 0 => angle -= 1,
            _ if angle == 0 => flat.push(c),
            _ => {}
        }
    }
    let flat = &flat[..find_word(&flat, "where").unwrap_or(flat.len())];
    let self_ty = find_word(flat, "for").map_or(flat, |at| &flat[at + "for".len()..]);
    trailing_ident(self_ty.trim_end()).unwrap_or("").to_string()
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
        let thing = || {
            SourceFile::new(
                "crates/foo/src/thing.rs",
                "impl Thing {\n    pub fn on_done(&mut self) {}\n}\n",
            )
        };
        let hits = dead_pub(vec![
            thing(),
            SourceFile::new("src/lib.rs", "fn f() { register(Thing::on_done); }\n"),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
        // Another type's path names another item.
        let other = dead_pub(vec![
            thing(),
            SourceFile::new("src/lib.rs", "fn f() { register(Other::on_done); }\n"),
        ]);
        assert_eq!(other.len(), 1, "{other:?}");
        let turbofish = dead_pub(vec![
            SourceFile::new("crates/foo/src/thing.rs", "pub fn parse<T>() {}\n"),
            SourceFile::new(
                "src/lib.rs",
                "fn f() { draid::foo::thing::parse::<u8>(); }\n",
            ),
        ]);
        assert!(turbofish.is_empty(), "{turbofish:?}");
    }

    #[test]
    fn a_type_path_keeps_no_free_fn_of_that_name_alive() {
        let json = || SourceFile::new("crates/foo/src/json.rs", "pub fn parse(text: &str) {}\n");
        let hits = dead_pub(vec![
            json(),
            SourceFile::new("src/lib.rs", "fn f() { let n = Number::parse(\"1\"); }\n"),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("json::parse"), "{hits:?}");
        // The module's path, through the crate or the facade, reaches it.
        for caller in [
            "fn f() { draid_foo::json::parse(\"1\"); }\n",
            "fn f() { draid::foo::json::parse(\"1\"); }\n",
        ] {
            let live = dead_pub(vec![json(), SourceFile::new("src/lib.rs", caller)]);
            assert!(live.is_empty(), "{caller:?}: {live:?}");
        }
    }

    #[test]
    fn a_method_call_keeps_no_free_fn_alive() {
        for caller in [
            "fn f(c: &Config) { c.validate(); }\n",
            "fn f(c: &Config) { c.validate::<u8>(); }\n",
        ] {
            let hits = dead_pub(vec![
                SourceFile::new("crates/foo/src/json.rs", "pub fn validate() {}\n"),
                SourceFile::new("src/lib.rs", caller),
            ]);
            assert_eq!(hits.len(), 1, "{caller:?}: {hits:?}");
        }
        // It does reach a method of that name.
        let method = dead_pub(vec![
            SourceFile::new(
                "crates/foo/src/config.rs",
                "impl Config {\n    pub fn validate(&self) {}\n}\n",
            ),
            SourceFile::new("src/lib.rs", "fn f(c: &Config) { c.validate(); }\n"),
        ]);
        assert!(method.is_empty(), "{method:?}");
    }

    #[test]
    fn a_bare_call_reaches_a_free_fn_through_its_module_or_a_use_line() {
        let json = || SourceFile::new("crates/foo/src/json.rs", "pub fn parse() {}\n");
        let other = |text: &str| SourceFile::new("crates/foo/src/other.rs", text);
        // A bare call in another module without an import names its own item.
        let hits = dead_pub(vec![json(), other("fn f() { parse(); }\n")]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        for caller in [
            "use draid_foo::json::parse;\nfn f() { parse(); }\n",
            "use crate::json::{self, parse as read};\nfn f() { read(); }\n",
            "use crate::{\n    json::{parse},\n    other,\n};\nfn f() { parse(); }\n",
            "use super::json::*;\nfn f() { parse(); }\n",
        ] {
            let live = dead_pub(vec![json(), other(caller)]);
            assert!(live.is_empty(), "{caller:?}: {live:?}");
        }
        let own = SourceFile::new(
            "crates/foo/src/json.rs",
            "pub fn parse() {}\nfn g() { parse(); }\n",
        );
        assert!(dead_pub(vec![own]).is_empty());
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
