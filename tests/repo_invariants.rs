//! Repo invariants that no compiler or clippy lint can express. Everything
//! else (panic-free hot paths, no host clock, no hash containers, no
//! ambient parallelism, no `unsafe`, reasoned suppressions) is enforced by
//! the root `clippy.toml` and the `[workspace.lints]` table; see DESIGN.md
//! §3.10.
//!
//! These checks read the workspace sources as plain text. Test code is a
//! whole file under a `tests/` directory, or a `#[cfg(test)]` item of a
//! source file (found by brace matching).

use std::fs;
use std::path::Path;

/// One workspace source file, split into test and non-test code.
struct Source {
    /// Path relative to the repo root, with `/` separators.
    rel: String,
    /// Each line as written, and whether it is test code.
    lines: Vec<(String, bool)>,
    /// The non-test lines with `//` comments removed.
    non_test: String,
    /// The test lines with `//` comments removed.
    test: String,
}

impl Source {
    fn new(rel: String, text: &str) -> Source {
        let whole_file_is_test = rel.starts_with("tests/") || rel.contains("/tests/");
        let (mut in_item, mut depth, mut opened) = (false, 0i32, false);
        let (mut lines, mut non_test, mut test) = (Vec::new(), String::new(), String::new());
        for line in text.lines() {
            let code = line.find("//").map_or(line, |i| &line[..i]);
            if !in_item && code.trim_start().starts_with("#[cfg(test)]") {
                (in_item, depth, opened) = (true, 0, false);
            }
            let is_test = whole_file_is_test || in_item;
            if in_item {
                for c in code.chars() {
                    match c {
                        '{' => (depth, opened) = (depth + 1, true),
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                // The item ends at its closing brace, or at its `;` if it
                // has no body (`#[cfg(test)] use …;`).
                if (opened && depth == 0) || (!opened && code.trim_end().ends_with(';')) {
                    in_item = false;
                }
            }
            let out = if is_test { &mut test } else { &mut non_test };
            out.push_str(code);
            out.push('\n');
            lines.push((line.to_string(), is_test));
        }
        Source {
            rel,
            lines,
            non_test,
            test,
        }
    }
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<Source>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if !path.ends_with("fixtures") {
                collect(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let text = fs::read_to_string(&path).expect("readable source");
            out.push(Source::new(rel, &text));
        }
    }
}

/// The root package's `src/`, `tests/` and `examples/`, and each crate's
/// `src/`, `tests/` and `benches/`.
fn workspace_sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["src", "tests", "examples"] {
        collect(root, &root.join(dir), &mut out);
    }
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    crates.sort();
    for krate in crates {
        for dir in ["src", "tests", "benches"] {
            collect(root, &krate.join(dir), &mut out);
        }
    }
    assert!(out.len() > 50, "found only {} sources", out.len());
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `hay` contain `word` with no identifier character on either side?
fn has_word(hay: &str, word: &str) -> bool {
    hay.match_indices(word).any(|(i, _)| {
        let before = hay[..i].chars().next_back();
        let after = hay[i + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// The variants `EventKind::name()` maps, in declaration order.
fn event_kind_variants(sources: &[Source]) -> Vec<String> {
    let event = sources
        .iter()
        .find(|s| s.rel == "crates/obs/src/event.rs")
        .expect("event.rs");
    let body = event
        .non_test
        .split("pub fn name(&self)")
        .nth(1)
        .expect("EventKind::name()");
    let body = &body[..body.find("\n    }\n").expect("end of name()")];
    body.lines()
        .filter_map(|l| l.trim().strip_prefix("EventKind::"))
        .map(|l| l.chars().take_while(|&c| is_ident_char(c)).collect())
        .collect()
}

/// Every trace event kind is emitted by some subsystem outside `jmb-obs`
/// (no dead vocabulary) and named in some test (its emission conditions
/// are checked). Local renames (`EventKind as TraceKind`) count.
#[test]
fn every_event_kind_is_emitted_and_tested() {
    let sources = workspace_sources();
    let variants = event_kind_variants(&sources);
    assert!(variants.len() >= 20, "parsed {variants:?}");
    for v in &variants {
        let emitted = sources
            .iter()
            .filter(|s| !s.rel.starts_with("crates/obs/src/"))
            .any(|s| {
                let code = &s.non_test;
                let mut names = vec!["EventKind".to_string()];
                for (i, _) in code.match_indices("EventKind as ") {
                    let alias = &code[i + "EventKind as ".len()..];
                    names.push(alias.chars().take_while(|&c| is_ident_char(c)).collect());
                }
                names.iter().any(|n| has_word(code, &format!("{n}::{v}")))
            });
        assert!(
            emitted,
            "EventKind::{v} is never emitted outside jmb-obs: emit it from the subsystem that owns the condition, or delete it"
        );
        let tested = sources.iter().any(|s| has_word(&s.test, v));
        assert!(
            tested,
            "EventKind::{v} appears in no test: assert it in a trace-replay test, e.g. TraceQuery::kind(\"{v}\")"
        );
    }
}

/// Every public `merge` on the report and registry crates documents the
/// order it combines shards in, and a test in its own crate (or the root
/// `tests/`) calls it: merge order is where cross-shard floating-point
/// nondeterminism hides.
#[test]
fn every_public_merge_documents_its_order_and_is_tested() {
    let sources = workspace_sources();
    let mut found = 0;
    for krate in ["obs", "traffic", "city", "core"] {
        let src_prefix = format!("crates/{krate}/src/");
        let crate_prefix = format!("crates/{krate}/");
        let tested = sources
            .iter()
            .filter(|s| s.rel.starts_with(&crate_prefix) || s.rel.starts_with("tests/"))
            .any(|s| s.test.contains(".merge(") || s.test.contains("::merge("));
        for s in sources.iter().filter(|s| s.rel.starts_with(&src_prefix)) {
            for (i, (line, is_test)) in s.lines.iter().enumerate() {
                if *is_test || !line.trim_start().starts_with("pub fn merge(") {
                    continue;
                }
                found += 1;
                // The doc comment is every `///` line between the previous
                // item or statement and this fn (attributes interleave).
                let doc: String = s.lines[..i]
                    .iter()
                    .rev()
                    .map(|(l, _)| l.trim())
                    .take_while(|l| !(l.is_empty() || l.ends_with(['{', '}', ';'])))
                    .filter_map(|l| l.strip_prefix("///"))
                    .collect();
                assert!(
                    doc.to_lowercase().contains("order"),
                    "{}:{}: public `merge` must state its combination order in its doc comment",
                    s.rel,
                    i + 1
                );
                assert!(
                    tested,
                    "{}:{}: public `merge` is called by no test in its crate",
                    s.rel,
                    i + 1
                );
            }
        }
    }
    assert!(found >= 2, "found only {found} public merge fns");
}

/// The host core count reaches the simulation only through
/// `SweepConfig::parallelism`; the `JMB_THREADS` knob belongs to the bench
/// CLIs alone.
#[test]
fn jmb_threads_is_read_only_by_bench_clis() {
    for s in workspace_sources() {
        if s.rel.starts_with("crates/")
            && s.rel.contains("/src/")
            && !s.rel.starts_with("crates/bench/")
        {
            assert!(
                !s.non_test.contains("\"JMB_THREADS\""),
                "{}: reads JMB_THREADS; take the worker count from SweepConfig::parallelism",
                s.rel
            );
        }
    }
}
