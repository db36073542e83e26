//! The audit audits itself: drive the `psdp-audit` pipeline over the
//! fixture corpus (`tests/fixtures/audit_corpus/`) and over the live
//! workspace.
//!
//! Three layers of assurance:
//! 1. **Corpus** — every rule fires on its positive fixture at the exact
//!    expected lines, stays silent on near-misses (strings, comments,
//!    test code, slice patterns, …), and is silenced by a well-formed
//!    inline suppression (which is *counted*, not dropped).
//! 2. **Self-check** — the committed workspace is clean under
//!    `--deny-warnings` semantics, which is exactly what CI enforces.
//! 3. **Gate demo** — seeding a violation into a scratch workspace makes
//!    the audit fail with a `file:line`-anchored finding, proving the CI
//!    gate would catch a regression.

use psdp_analyze::report::{Report, Severity};
use psdp_analyze::{audit_source, config, run_audit, Options};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/audit_corpus")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Run one fixture through the full per-file pipeline (lexer, test mask,
/// suppressions) under a synthetic workspace-relative path — rule scoping
/// is path-based, so the same source can be probed in and out of scope.
fn audit_fixture(name: &str, synthetic_path: &str) -> Report {
    let src = std::fs::read_to_string(corpus_dir().join(name))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    let mut cfg = config::Config::default();
    let mut report = Report::default();
    audit_source(synthetic_path, &src, &mut cfg, &mut report);
    report.sort();
    report
}

fn hits(r: &Report) -> Vec<(&'static str, usize)> {
    r.findings.iter().map(|f| (f.rule, f.line)).collect()
}

const DET: &str = "crates/core/src/solver.rs";
const REQ: &str = "crates/serve/src/scheduler.rs";

#[test]
fn d1_corpus_positive_suppressed_nearmiss() {
    let r = audit_fixture("d1_positive.rs", DET);
    assert_eq!(hits(&r), [("D1", 1), ("D1", 3), ("D1", 4)], "{}", r.human());

    let r = audit_fixture("d1_suppressed.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());
    assert_eq!(r.suppressions_used, 2);

    let r = audit_fixture("d1_nearmiss.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());

    // Same violation out of scope (non-deterministic crate): silent.
    let r = audit_fixture("d1_positive.rs", "crates/workloads/src/graphs.rs");
    assert!(r.findings.is_empty(), "{}", r.human());

    // The baselines (home of the MMW game) are in scope.
    let r = audit_fixture("d1_positive.rs", "crates/baselines/src/matrix_mw.rs");
    assert_eq!(hits(&r), [("D1", 1), ("D1", 3), ("D1", 4)], "{}", r.human());
}

#[test]
fn d2_corpus_positive_nearmiss() {
    let r = audit_fixture("d2_positive.rs", DET);
    assert_eq!(hits(&r), [("D2", 4), ("D2", 8)], "{}", r.human());

    let r = audit_fixture("d2_nearmiss.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());
}

#[test]
fn d3_corpus_positive_suppressed_nearmiss() {
    let r = audit_fixture("d3_positive.rs", DET);
    assert_eq!(hits(&r), [("D3", 1), ("D3", 4), ("D3", 10), ("D3", 15)], "{}", r.human());

    let r = audit_fixture("d3_suppressed.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());
    assert_eq!(r.suppressions_used, 1);

    let r = audit_fixture("d3_nearmiss.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());
}

#[test]
fn r1_corpus_positive_suppressed_nearmiss() {
    let r = audit_fixture("r1_positive.rs", REQ);
    assert_eq!(hits(&r), [("R1", 2), ("R1", 3), ("R1", 9), ("R1", 14)], "{}", r.human());

    let r = audit_fixture("r1_suppressed.rs", REQ);
    assert!(r.findings.is_empty(), "{}", r.human());
    assert_eq!(r.suppressions_used, 1);

    let r = audit_fixture("r1_nearmiss.rs", REQ);
    assert!(r.findings.is_empty(), "{}", r.human());

    // Solver internals may index and unwrap freely (R1 is request-path
    // scoped); D1-D3 do not fire on panics either.
    let r = audit_fixture("r1_positive.rs", DET);
    assert!(r.findings.is_empty(), "{}", r.human());
}

#[test]
fn h1_corpus_inventory_and_justification() {
    // H1 applies everywhere, deterministic crate or not.
    let r = audit_fixture("h1_positive.rs", "crates/workloads/src/gen.rs");
    assert_eq!(hits(&r), [("H1", 2)], "{}", r.human());
    assert_eq!(r.unsafe_sites.len(), 1);
    assert!(!r.unsafe_sites[0].justified);

    let r = audit_fixture("h1_justified.rs", "crates/workloads/src/gen.rs");
    assert!(r.findings.is_empty(), "{}", r.human());
    assert_eq!(r.unsafe_sites.len(), 1);
    assert!(r.unsafe_sites[0].justified);
}

#[test]
fn meta_rules_keep_suppressions_honest() {
    // Malformed suppressions are S1 errors AND fail to suppress: the D1s
    // they sat next to still fire.
    let r = audit_fixture("s1_malformed.rs", DET);
    assert_eq!(hits(&r), [("S1", 1), ("D1", 2), ("D1", 4), ("S1", 5), ("D1", 6)], "{}", r.human());
    assert!(r.findings.iter().all(|f| f.severity == Severity::Error));
    assert_eq!(r.suppressions_used, 0);

    // A suppression matching nothing is an S2 warning: clean by default,
    // fatal under --deny-warnings (the CI configuration).
    let r = audit_fixture("s2_unused.rs", DET);
    assert_eq!(hits(&r), [("S2", 1)], "{}", r.human());
    assert_eq!(r.findings[0].severity, Severity::Warning);
    assert!(r.is_clean(false));
    assert!(!r.is_clean(true));
}

#[test]
fn renderings_anchor_findings_to_spans() {
    let r = audit_fixture("d1_positive.rs", DET);
    let human = r.human();
    assert!(human.contains(&format!("error[D1] {DET}:1:")), "{human}");
    let json = r.json();
    assert!(json.contains("\"rule\":\"D1\""), "{json}");
    assert!(json.contains(&format!("\"file\":\"{DET}\"")), "{json}");
    assert!(json.contains("\"line\":1"), "{json}");
}

/// The committed workspace must pass its own audit under the exact
/// semantics CI runs (`--deny-warnings`): zero errors, zero warnings —
/// so no stale suppressions or allowlist entries either.
#[test]
fn live_workspace_is_audit_clean() {
    let report = run_audit(&workspace_root(), &Options::default()).expect("audit runs");
    assert!(report.is_clean(true), "workspace audit not clean:\n{}", report.human());
    // Sanity that the walk actually saw the workspace, not an empty dir.
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
    // Every unsafe site in the tree carries a SAFETY justification.
    assert!(report.unsafe_sites.iter().all(|s| s.justified));
}

/// The walk reaches the vendored shims: the rayon shim's worker pool holds
/// the tree's one `unsafe` block, and H1 inventories it as justified.
#[test]
fn live_workspace_inventories_the_rayon_shim_unsafe() {
    let report = run_audit(&workspace_root(), &Options::default()).expect("audit runs");
    let sites: Vec<(&str, bool)> =
        report.unsafe_sites.iter().map(|s| (s.file.as_str(), s.justified)).collect();
    assert_eq!(sites, [("crates/shims/rayon/src/lib.rs", true)], "{}", report.human());
}

/// Gate demo: seed violations into a scratch workspace and watch the
/// audit fail with file:line-anchored findings — this is the regression
/// CI's fail-fast `psdp-analyze --deny-warnings` step would catch.
#[test]
fn seeded_violation_fails_the_gate() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_gate_demo");
    let core = root.join("crates/core/src");
    let serve = root.join("crates/serve/src");
    std::fs::create_dir_all(&core).expect("scratch workspace");
    std::fs::create_dir_all(&serve).expect("scratch workspace");
    std::fs::write(
        core.join("state.rs"),
        "use std::collections::HashMap;\npub type State = HashMap<u64, f64>;\n",
    )
    .expect("seed D1");
    std::fs::write(
        serve.join("handler.rs"),
        "pub fn id(line: &str) -> String {\n    line.split(':').next().unwrap().to_string()\n}\n",
    )
    .expect("seed R1");

    let report = run_audit(&root, &Options::default()).expect("audit runs");
    assert!(!report.is_clean(false), "seeded violations must fail the gate");
    let rules: Vec<(&str, &str, usize)> =
        report.findings.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    assert!(rules.contains(&("D1", "crates/core/src/state.rs", 1)), "{rules:?}");
    assert!(rules.contains(&("R1", "crates/serve/src/handler.rs", 2)), "{rules:?}");
}

/// An unjustified `unsafe` in a vendored shim fails the gate too.
#[test]
fn unjustified_unsafe_in_a_shim_fails_the_gate() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_shim_demo");
    let shim = root.join("crates/shims/rayon/src");
    std::fs::create_dir_all(&shim).expect("scratch workspace");
    std::fs::write(
        shim.join("lib.rs"),
        "pub fn first(v: &[u8]) -> u8 {\n    unsafe { *v.get_unchecked(0) }\n}\n",
    )
    .expect("seed H1");

    let report = run_audit(&root, &Options::default()).expect("audit runs");
    let rules: Vec<(&str, &str, usize)> =
        report.findings.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    assert_eq!(rules, [("H1", "crates/shims/rayon/src/lib.rs", 2)]);
    assert_eq!(report.unsafe_sites.len(), 1);
}
