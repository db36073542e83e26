//! `psdp-analyze` — the workspace determinism & robustness audit
//! (`psdp-audit`).
//!
//! A dependency-free static-analysis pass over the workspace's Rust
//! sources, enforcing the source-level invariants behind the project's
//! reproducibility contracts (DESIGN.md §11): no hash-order iteration in
//! deterministic modules (`D1`), no scheduling-dependent float reductions
//! (`D2`), no ambient clocks/randomness/env in solver paths (`D3`), no
//! panics or unchecked indexing on serving request paths (`R1`), and a
//! `SAFETY:`-justified inventory of every `unsafe` block (`H1`).
//!
//! The pipeline per file: [`lexer::lex`] → [`scope::test_mask`] →
//! [`suppress::parse_suppressions`] → [`rules::check_file`] → inline
//! suppressions → `audit.toml` allowlist ([`config`]) → [`report::Report`].
//! Three meta-rules keep the escape hatches honest: `S1` (malformed
//! suppression, error), `S2` (suppression that matched nothing, warning),
//! `S3` (allowlist entry that matched nothing, warning). Warnings are
//! fatal under `--deny-warnings`, which is how CI runs.
//!
//! Everything here is hand-rolled (lexer, TOML subset, JSON writer): the
//! build environment is offline, and the audit must never be the thing
//! that drags nondeterministic or unvetted dependencies into the tree.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod suppress;

use std::path::{Path, PathBuf};

use report::{Finding, Report, Severity};
use rules::FileInput;

/// Directories never walked (fixtures are audit *inputs*, target/.git are
/// artifacts). The vendored shims are walked: they sit outside every
/// D/R rule's scope, but H1 inventories their `unsafe` like any other.
const SKIP_DIRS: &[&str] = &["target", ".git", "tests/fixtures"];

/// Audit options.
#[derive(Debug, Default)]
pub struct Options {
    /// Explicit `audit.toml` path; `None` means `<root>/audit.toml` if it
    /// exists, else an empty config.
    pub config_path: Option<PathBuf>,
}

/// Run the audit over the workspace at `root`.
///
/// # Errors
/// A human-readable message when the root is unreadable or the config is
/// malformed. Unreadable individual source files are reported the same
/// way — an audit that silently skips files is worse than one that fails.
pub fn run_audit(root: &Path, opts: &Options) -> Result<Report, String> {
    let mut cfg = load_config(root, opts)?;
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("{}: cannot read: {e}", rel.display()))?;
        audit_source(&rel_str(rel), &src, &mut cfg, &mut report);
    }
    report.files_scanned = files.len();

    for e in cfg.allows.iter().filter(|e| !e.used) {
        report.findings.push(Finding {
            rule: "S3",
            severity: Severity::Warning,
            file: config_name(root, opts),
            line: e.line,
            message: format!(
                "allowlist entry (rule `{}`, path `{}`) matched no finding — remove it so the \
                 exemption cannot outlive its cause",
                e.rule, e.path,
            ),
        });
    }
    report.sort();
    Ok(report)
}

/// Audit a single in-memory source file, appending to `report`. Public so
/// the fixture corpus tests can drive exact sources through the full
/// pipeline (suppressions and config included).
pub fn audit_source(rel_path: &str, src: &str, cfg: &mut config::Config, report: &mut Report) {
    let lexed = lexer::lex(src);
    let mask = scope::test_mask(&lexed.tokens);
    let (mut supps, bad) = suppress::parse_suppressions(&lexed.comments);

    for b in bad {
        report.findings.push(Finding {
            rule: "S1",
            severity: Severity::Error,
            file: rel_path.to_string(),
            line: b.line,
            message: format!("malformed suppression: {}", b.message),
        });
    }

    let input = FileInput {
        path: rel_path,
        tokens: &lexed.tokens,
        test_mask: &mask,
        comments: &lexed.comments,
        is_test_file: is_test_path(rel_path),
    };
    let (findings, unsafe_sites) = rules::check_file(&input);
    report.unsafe_sites.extend(unsafe_sites);

    for f in findings {
        if suppress::covered(&mut supps, f.rule, f.line) {
            report.suppressions_used += 1;
        } else if !cfg.allows_finding(f.rule, rel_path) {
            report.findings.push(f);
        }
    }

    for s in supps.iter().filter(|s| !s.used) {
        report.findings.push(Finding {
            rule: "S2",
            severity: Severity::Warning,
            file: rel_path.to_string(),
            line: s.line,
            message: format!(
                "suppression for `{}` matched no finding — remove it so it cannot mask a \
                 future violation",
                s.rules.join(", "),
            ),
        });
    }
}

fn load_config(root: &Path, opts: &Options) -> Result<config::Config, String> {
    let path = match &opts.config_path {
        Some(p) => p.clone(),
        None => {
            let default = root.join("audit.toml");
            if !default.exists() {
                return Ok(config::Config::default());
            }
            default
        }
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: cannot read config: {e}", path.display()))?;
    config::parse_config(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn config_name(root: &Path, opts: &Options) -> String {
    match &opts.config_path {
        Some(p) => p.display().to_string(),
        None => root.join("audit.toml").display().to_string(),
    }
}

/// Collect workspace-relative paths of every `.rs` file under `dir`,
/// skipping [`SKIP_DIRS`]. Sorted by the caller for a deterministic walk —
/// the audit holds itself to its own rules.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read dir: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: read_dir entry: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if path.is_dir() {
            if SKIP_DIRS.iter().any(|s| rel_str(&rel) == *s) {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across platforms
/// for rule scoping and report output).
fn rel_str(p: &Path) -> String {
    p.to_string_lossy().replace('\\', "/")
}

/// Path-based test classification: integration tests, benches, and
/// examples are exempt from the determinism/robustness rules (H1 still
/// applies everywhere).
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_one(path: &str, src: &str) -> Report {
        let mut cfg = config::Config::default();
        let mut report = Report::default();
        audit_source(path, src, &mut cfg, &mut report);
        report.sort();
        report
    }

    #[test]
    fn suppressed_finding_is_counted_not_reported() {
        let src = "// psdp-audit: allow(D1, reason = \"keys are sorted before iteration\")\n\
                   use std::collections::HashMap;\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressions_used, 1);
    }

    #[test]
    fn unused_suppression_is_a_warning() {
        let src = "// psdp-audit: allow(D1, reason = \"nothing here\")\nfn f() {}\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "S2");
        assert_eq!(r.findings[0].severity, Severity::Warning);
        assert!(!r.is_clean(true));
        assert!(r.is_clean(false));
    }

    #[test]
    fn malformed_suppression_is_an_error() {
        let src = "// psdp-audit: allow(D1)\nuse std::collections::HashMap;\n";
        let r = audit_one("crates/core/src/solver.rs", src);
        // S1 for the malformed comment, and the D1 still fires (a broken
        // suppression must not suppress).
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["S1", "D1"]);
    }

    #[test]
    fn config_allowlist_exempts_and_tracks_use() {
        let mut cfg = config::parse_config(
            "[[allow]]\nrule = \"D3\"\npath = \"crates/core/src/solver.rs\"\nreason = \"telemetry\"\n",
        )
        .unwrap();
        let mut report = Report::default();
        audit_source(
            "crates/core/src/solver.rs",
            "let t = Instant::now();\n",
            &mut cfg,
            &mut report,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(cfg.allows[0].used);
    }

    #[test]
    fn test_paths_are_classified() {
        assert!(is_test_path("tests/determinism.rs"));
        assert!(is_test_path("crates/core/tests/props.rs"));
        assert!(is_test_path("crates/bench/benches/psi.rs"));
        assert!(is_test_path("examples/solve.rs"));
        assert!(!is_test_path("crates/core/src/solver.rs"));
        // A module merely *named* tests under src/ is still live code.
        assert!(!is_test_path("crates/core/src/tests_util.rs"));
    }
}
