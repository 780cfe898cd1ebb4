//! The lint driver against the real tree: the walk must actually cover
//! the workspace (guarding against a vacuously clean run), the tree must
//! lint clean, and a seeded violation must be caught end-to-end.

use draid_check::lint::{self, SourceFile};

#[test]
fn workspace_walk_covers_the_tree() {
    let root = lint::workspace_root().expect("workspace root");
    let files = lint::collect_files(&root).expect("walk");
    assert!(
        files.len() > 80,
        "walk found only {} files — scope regressed",
        files.len()
    );
    for expected in [
        "crates/ec/src/kernels.rs",
        "crates/sim/src/engine.rs",
        "crates/core/src/exec.rs",
        "crates/check/src/lint/rules.rs",
        "src/lib.rs",
        "tests/chaos.rs",
    ] {
        assert!(
            files.iter().any(|f| f.path == expected),
            "walk missed {expected}"
        );
    }
    assert!(
        files.iter().all(|f| !f.path.contains("shims/")),
        "shims must be excluded"
    );
    // Deterministic order: sorted by path.
    let paths: Vec<&str> = files.iter().map(|f| f.path.as_str()).collect();
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted);
}

#[test]
fn workspace_lints_clean() {
    let root = lint::workspace_root().expect("workspace root");
    let findings = lint::lint_workspace(&root).expect("lint");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violations_fail_against_real_file_set() {
    // Inject one synthetic violation per rule into the real file set; the
    // driver must surface all of them (and nothing masks them).
    let root = lint::workspace_root().expect("workspace root");
    let mut files = lint::collect_files(&root).expect("walk");
    files.push(SourceFile::new(
        "crates/evil/src/lib.rs",
        "pub fn no_forbid_attr() {}\n",
    ));
    files.push(SourceFile::new(
        "crates/core/src/evil.rs",
        "fn f() { unsafe { hint() } }\n\
         fn g() { let t = std::time::Instant::now(); }\n\
         struct S { m: HashMap<u64, u64> }\n\
         fn h(s: &S) { for v in s.m.values() { use_it(v); } }\n\
         pub fn seeded_dead_probe() {}\n\
         pub struct Probe { seeded_dead_getter: u64 }\n\
         impl Probe { pub fn seeded_dead_getter(&self) -> u64 { self.seeded_dead_getter } }\n\
         fn read(p: &Probe) -> u64 { p.seeded_dead_getter }\n\
         pub fn len() -> usize { 0 }\n",
    ));
    files.push(SourceFile::new(
        "crates/core/tests/seeded.rs",
        "#[test]\nfn t() { draid_core::seeded_dead_probe(); }\n",
    ));
    files.push(SourceFile::new(
        "crates/core/src/exec_evil.rs",
        "fn f(r: Result<u32, ()>) -> u32 { r.unwrap() }\n",
    ));
    let findings = lint::lint_files(&files, lint::ALLOWLIST);
    for rule in [
        "forbid-unsafe-crate",
        "unsafe-confined",
        "no-wall-clock",
        "no-unordered-iter",
        "no-dead-pub",
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "seeded {rule} violation not caught: {findings:?}"
        );
    }
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no-dead-pub" && f.message.contains("seeded_dead_probe")),
        "a pub fn only crates/*/tests call must be dead: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no-dead-pub" && f.message.contains("seeded_dead_getter")),
        "a getter whose name is only read as a field must be dead: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no-dead-pub" && f.path == "crates/core/src/evil.rs" && f.line == 9),
        "a free pub fn is dead though methods of its name are called: {findings:?}"
    );
    // The unwrap rule is path-scoped to the real op-path files; prove it
    // on the genuine exec.rs content with one appended bad line.
    let exec = files
        .iter()
        .find(|f| f.path == "crates/core/src/exec.rs")
        .expect("exec.rs present");
    let mut bad = String::new();
    // Insert before any test module so the test-region exemption cannot hide it.
    bad.push_str("fn seeded(r: Result<u32, ()>) -> u32 { r.unwrap() }\n");
    bad.push_str(&exec.text);
    let seeded = SourceFile::new("crates/core/src/exec.rs", bad);
    let findings = lint::lint_files(&[seeded], lint::ALLOWLIST);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no-op-path-unwrap" && f.line == 1),
        "seeded op-path unwrap not caught: {findings:?}"
    );
}
