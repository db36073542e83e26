//! The `psdp` subcommands: generate / info / solve / optimize.
//!
//! Kept separate from `main.rs` so the logic is unit-testable without
//! spawning processes; every command takes parsed [`Args`] and returns the
//! text it would print.

use crate::args::Args;
use crate::jsonfmt::{json_str, mixed_payload, optimize_payload, solve_payload};
use psdp_core::{
    named_family, sniff, verify_dual, verify_mixed_feasible, verify_mixed_infeasible,
    verify_primal, write_instance, write_mixed_instance, ApproxOptions, ConstantsMode,
    DecisionOptions, Encoding, EngineKind, Family, Instance, MixedApproxOptions, MixedSolver,
    Outcome, PackingInstance, Solver,
};
use psdp_workloads::{
    edge_packing, figure1_instance, gnp, mixed_edge_cover, mixed_lp_diagonal, random_factorized,
    random_lp_diagonal, vertex_star_packing, RandomFactorized,
};

/// Top-level usage text.
pub const USAGE: &str = "\
psdp — width-independent positive SDP solver (Peng–Tangwongsan–Zhang, SPAA'12)

USAGE:
  psdp generate --family <random|lp|graph|stars|figure1|mixed-lp|mixed-graph>
                [--dim N] [--n N] [--seed S] [--width W] [--p P] [--ridge R] --out FILE
  psdp info FILE
  psdp convert FILE --to bin|text --out FILE
  psdp solve FILE [--eps E] [--engine auto|exact|taylor|jl|expv] [--mode practical|strict] [--seed S] [--json]
  psdp optimize FILE [--eps E] [--warm on|off] [--json]
  psdp mixed FILE [--eps E] [--engine auto|exact|taylor|jl|expv] [--seed S] [--warm on|off] [--json]
  psdp serve [--cache on|off] [--max-line-bytes N]   (JSONL requests on stdin)
  psdp serve --listen [--shards N] [--queue-cap N] [--snapshot FILE] [--snapshot-keep N] [--cache on|off] [--max-line-bytes N] [--shed-target-p99-ms MS]
  psdp serve --listen --bind tcp:ADDR:PORT|unix:PATH [--max-clients N] [--client-inflight N] [...same flags as --listen]
  psdp audit [--root PATH] [--config FILE] [--json] [--deny-warnings]

The `auto` engine picks exact, sketched-Taylor, or the Krylov/Chebyshev
expm-action engine (`expv`, alias `lanczos`) from the instance's storage
profile (total nonzeros vs m², then dimension); `psdp solve` reports
which one ran.
`optimize` runs one prepared solver Session across all bisection brackets
(engine built once; each bracket continues from the previous one's rescaled
iterate unless `--warm off`).
`mixed` solves a mixed packing–covering instance (`psdp mixed 1` format,
families mixed-lp / mixed-graph): it bisects the largest coverage
threshold σ* with find x ≥ 0, Σx·Pᵢ ⪯ I, Σx·Cᵢ ⪰ σI, and re-verifies the
certificates it prints. `--json` emits outcomes, certificate values, and
per-bracket SolveStats for machine consumption.

Instance files are canonical text (`psdp 1` / `psdp mixed 1`) or the
`psdp-bin-1` binary format; readers sniff the encoding by magic.
`convert` also sniffs the family and translates losslessly in either
direction — both encodings are canonical, so a double conversion
is a byte fixpoint. Binary files carry a verified content hash in the
header, which `serve` uses directly as its cache fingerprint.

`serve` reads one JSON request per stdin line —
  {\"id\":\"r1\",\"command\":\"solve\",\"file\":\"inst.psdp\",\"threshold\":1.0,\"eps\":0.2}
  {\"id\":\"r2\",\"command\":\"optimize\",\"instance\":\"psdp 1\\n…\",\"eps\":0.1}
— or a binary frame (a NUL byte, a u32 LE length, then a JSON header and
psdp-bin-1 instance bytes) — batches them through the fingerprint-cached
scheduler (repeat instances share prepared solvers, identical requests
are memoized), and streams one JSON response per request to stdout
(submission order, same schemas as `--json` plus `id` and a `serve`
reuse-telemetry object; `wall_ms` is null so response bytes are
deterministic). Malformed lines and frames get in-place error lines. The
batch report goes to stderr.
With `--listen` the same protocol runs through the persistent streaming
service (DESIGN.md §13): requests are admitted as they arrive into
bounded per-shard queues (a full queue answers a typed `overloaded` line
instead of buffering without bound), the fingerprint-sharded cache
carries reuse across the whole session, and `--snapshot FILE` persists
the prepared-solver cache across restarts (saved atomically via tmp +
rename; `--snapshot-keep N` rotates N generations so a torn live file
warm-loads from the previous one — a missing or corrupted snapshot means
a cold start, never a refusal to serve). `--shed-target-p99-ms` turns on
adaptive shedding: queue admission tightens whenever the live p99
service latency overshoots the target. Lines longer than
`--max-line-bytes` (default 4 MiB) are rejected in place in every mode.
The service report — throughput, p50/p99 latency, per-tier hit counters,
queue high-water marks — goes to stderr.
With `--bind` the listen-mode service accepts many concurrent socket
clients (DESIGN.md §15) instead of stdin: `tcp:ADDR:PORT` (port 0 picks
a free port, printed to stderr) or `unix:PATH`. Each connection carries
the stdin protocol and gets its responses back in its own submission
order — bitwise identical to piping the same bytes over stdin. Admission
drains clients round-robin; a client with `--client-inflight` unwritten
responses gets typed `overloaded` lines instead of buffering, and
`--max-clients N` stops accepting after N connections (for scripted
runs; 0 = accept forever).

`audit` runs the psdp-audit determinism & robustness lint (DESIGN.md §11)
over the workspace sources: rules D1-D3 (hash-order iteration, parallel
float reductions, ambient clocks/randomness), R1 (panics and unchecked
indexing on request paths), H1 (unjustified `unsafe`). Exemptions need a
reasoned inline suppression or an audit.toml entry; CI runs it with
--deny-warnings so stale exemptions fail too.
";

/// Build the engine from its CLI name.
pub(crate) fn engine_of(name: &str, eps: f64) -> Result<EngineKind, String> {
    match name {
        "auto" => Ok(EngineKind::Auto { eps: eps.min(0.3) }),
        "exact" => Ok(EngineKind::Exact),
        "taylor" => Ok(EngineKind::Taylor { eps: (eps * 0.5).min(0.2) }),
        "jl" => Ok(EngineKind::TaylorJl { eps: eps.min(0.3), sketch_const: 4.0 }),
        "expv" | "lanczos" => Ok(EngineKind::Expv { eps: eps.min(0.3) }),
        other => Err(format!("unknown engine `{other}` (auto|exact|taylor|jl|expv)")),
    }
}

/// `psdp generate` — emit an instance file.
///
/// # Errors
/// Flag/validation errors as printable messages.
pub fn generate(args: &Args) -> Result<String, String> {
    args.ensure_known(&["family", "dim", "n", "seed", "width", "out", "density", "p", "ridge"])?;
    let family = args.str_flag("family", "random");
    let dim: usize = args.flag("dim", 12)?;
    let n: usize = args.flag("n", 8)?;
    let seed: u64 = args.flag("seed", 1)?;
    let width: f64 = args.flag("width", 1.0)?;

    // Mixed families write the `psdp mixed 1` format and return early.
    if family == "mixed-lp" || family == "mixed-graph" {
        let inst = match family.as_str() {
            "mixed-lp" => {
                let density: f64 = args.flag("density", 0.6)?;
                mixed_lp_diagonal(dim, dim.div_ceil(2).max(1), n, density, seed)
            }
            _ => {
                let p: f64 = args.flag("p", 0.5)?;
                let ridge: f64 = args.flag("ridge", 0.5)?;
                let g = gnp(dim, p, seed);
                if g.m() == 0 {
                    return Err("mixed-graph: generated graph has no edges (raise --p)".into());
                }
                mixed_edge_cover(&g, ridge)
            }
        };
        let text = write_mixed_instance(&inst);
        let out = args.str_flag("out", "");
        return if out.is_empty() {
            Ok(text)
        } else {
            std::fs::write(&out, &text).map_err(|e| format!("writing {out}: {e}"))?;
            Ok(format!(
                "wrote {} (pack {}x{}, cover {}x{}, n={}, nnz={})\n",
                out,
                inst.pack_dim(),
                inst.pack_dim(),
                inst.cover_dim(),
                inst.cover_dim(),
                inst.n(),
                inst.total_nnz()
            ))
        };
    }

    let inst = match family.as_str() {
        "random" => PackingInstance::new(random_factorized(&RandomFactorized {
            dim,
            n,
            rank: 2,
            nnz_per_col: (dim / 3).max(2),
            width,
            seed,
        }))
        .map_err(|e| e.to_string())?,
        "lp" => {
            let density: f64 = args.flag("density", 0.6)?;
            PackingInstance::new(random_lp_diagonal(dim, n, density, seed))
                .map_err(|e| e.to_string())?
        }
        "graph" => {
            let p: f64 = args.flag("p", 0.3)?;
            PackingInstance::new(edge_packing(&gnp(dim, p, seed))).map_err(|e| e.to_string())?
        }
        "stars" => {
            let p: f64 = args.flag("p", 0.3)?;
            PackingInstance::new(vertex_star_packing(&gnp(dim, p, seed)))
                .map_err(|e| e.to_string())?
        }
        "figure1" => PackingInstance::new(figure1_instance()).map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "unknown family `{other}` (random|lp|graph|stars|figure1|mixed-lp|mixed-graph)"
            ))
        }
    };

    let text = write_instance(&inst);
    let out = args.str_flag("out", "");
    if out.is_empty() {
        Ok(text)
    } else {
        std::fs::write(&out, &text).map_err(|e| format!("writing {out}: {e}"))?;
        Ok(format!("wrote {} (m={}, n={}, nnz={})\n", out, inst.dim(), inst.n(), inst.total_nnz()))
    }
}

/// Read a `family` instance file in either encoding (sniffed by magic).
/// A file that names the other family is refused with the command that
/// reads it.
fn load(path: &str, family: Family) -> Result<Instance, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if let Some(named) = named_family(&bytes).filter(|&f| f != family) {
        let command = match named {
            Family::Packing => "optimize",
            Family::Mixed => "mixed",
        };
        return Err(format!("{path}: {} instance: use `psdp {command}`", named.name()));
    }
    let decoded = Instance::decode(family, Encoding::of(&bytes), &bytes);
    decoded.map(|(inst, _)| inst).map_err(|e| e.to_string())
}

/// Read a packing instance file.
fn load_packing(path: &str) -> Result<std::sync::Arc<PackingInstance>, String> {
    match load(path, Family::Packing)? {
        Instance::Packing(inst) => Ok(inst),
        Instance::Mixed(_) => Err(format!("{path}: not a packing instance")),
    }
}

/// `psdp info` — describe an instance file.
///
/// # Errors
/// IO/parse errors as printable messages.
pub fn info(args: &Args) -> Result<String, String> {
    let path = args.pos(1).ok_or("info: missing FILE")?;
    let inst = load_packing(path)?;
    let mut out = String::new();
    out.push_str(&format!("dim          {}\n", inst.dim()));
    out.push_str(&format!("constraints  {}\n", inst.n()));
    out.push_str(&format!("storage nnz  {}\n", inst.total_nnz()));
    let traces: Vec<f64> = inst.mats().iter().map(|a| a.trace()).collect();
    let lams: Vec<f64> = inst.mats().iter().map(|a| a.lambda_max_est()).collect();
    let fmax = |v: &[f64]| v.iter().fold(0.0_f64, |a, &b| a.max(b));
    let fmin = |v: &[f64]| v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    out.push_str(&format!("trace range  [{:.4}, {:.4}]\n", fmin(&traces), fmax(&traces)));
    out.push_str(&format!("λmax range   [{:.4}, {:.4}]\n", fmin(&lams), fmax(&lams)));
    out.push_str(&format!("width (max/min λmax)  {:.3}\n", fmax(&lams) / fmin(&lams).max(1e-300)));
    Ok(out)
}

/// `psdp solve` — run the ε-decision procedure and print the certificate.
///
/// # Errors
/// IO/parse/solver errors as printable messages.
pub fn solve(args: &Args) -> Result<String, String> {
    args.ensure_known(&["eps", "engine", "mode", "seed", "json"])?;
    let path = args.pos(1).ok_or("solve: missing FILE")?;
    let inst = load_packing(path)?;
    let eps: f64 = args.flag("eps", 0.1)?;
    let seed: u64 = args.flag("seed", 0)?;
    let engine = engine_of(&args.str_flag("engine", "exact"), eps)?;
    let mode = match args.str_flag("mode", "practical").as_str() {
        "practical" => ConstantsMode::practical_default(),
        "strict" => ConstantsMode::PaperStrict,
        other => return Err(format!("unknown mode `{other}` (practical|strict)")),
    };
    let mut opts = DecisionOptions::practical(eps).with_engine(engine).with_seed(seed);
    opts.mode = mode;

    let solver = Solver::builder(&inst).options(opts).build().map_err(|e| e.to_string())?;
    let mut session = solver.session();
    let res = session.solve(1.0).map_err(|e| e.to_string())?;

    if args.bool_flag("json") {
        return Ok(format!(
            "{{\"command\":\"solve\",{}}}\n",
            solve_payload(&json_str(path), &inst, &res, true),
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "iterations {}  (cap {})  exit {:?}  engine {}\n",
        res.stats.iterations, res.stats.iteration_cap, res.stats.exit, res.stats.engine
    ));
    match &res.outcome {
        Outcome::Dual(d) => {
            let c = verify_dual(&inst, d, 1e-8);
            out.push_str(&format!(
                "DUAL side: value {:.6}, λmax(Σ xᵢAᵢ) = {:.8}, verified feasible: {}\n",
                d.value, c.lambda_max, c.feasible
            ));
        }
        Outcome::Primal(p) => {
            let c = verify_primal(&inst, p, 1e-5);
            out.push_str(&format!(
                "PRIMAL side: min_i Aᵢ•Y = {:.6} over {} averaged rounds, verified: {}\n",
                p.min_dot, p.rounds_averaged, c.feasible
            ));
        }
    }
    Ok(out)
}

/// `psdp optimize` — run the session-based bisection and print the
/// certified bracket (with per-bracket warm-start telemetry).
///
/// # Errors
/// IO/parse/solver errors as printable messages.
pub fn optimize(args: &Args) -> Result<String, String> {
    args.ensure_known(&["eps", "warm", "json"])?;
    let path = args.pos(1).ok_or("optimize: missing FILE")?;
    let inst = load_packing(path)?;
    let eps: f64 = args.flag("eps", 0.1)?;
    let warm = match args.str_flag("warm", "on").as_str() {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown --warm value `{other}` (on|off)")),
    };
    let mut approx = ApproxOptions::practical(eps);
    approx.warm_start = warm;

    let solver =
        Solver::builder(&inst).options(approx.decision).build().map_err(|e| e.to_string())?;
    let mut session = solver.session();
    let r = session.optimize(&approx).map_err(|e| e.to_string())?;

    if args.bool_flag("json") {
        return Ok(format!(
            "{{\"command\":\"optimize\",{}}}\n",
            optimize_payload(&json_str(path), &inst, &r, true),
        ));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "packing OPT ∈ [{:.6}, {:.6}]   ratio {:.4}   ({} decision calls, {} total iterations, {} engine evals, converged: {})\n",
        r.value_lower,
        r.value_upper,
        r.value_upper / r.value_lower,
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.converged
    ));
    if let Some(d) = &r.best_dual {
        let c = verify_dual(&inst, d, 1e-8);
        out.push_str(&format!(
            "best dual: value {:.6}, verified feasible: {}\n",
            d.value, c.feasible
        ));
    }
    Ok(out)
}

/// `psdp mixed` — solve a mixed packing–covering instance: bisect the
/// largest coverage threshold and print the certified bracket, re-verifying
/// every certificate through `psdp_core::verify`.
///
/// # Errors
/// IO/parse/solver errors as printable messages.
pub fn mixed(args: &Args) -> Result<String, String> {
    args.ensure_known(&["eps", "engine", "seed", "warm", "json"])?;
    let path = args.pos(1).ok_or("mixed: missing FILE")?;
    let Instance::Mixed(inst) = load(path, Family::Mixed)? else {
        return Err(format!("{path}: not a mixed instance"));
    };
    let eps: f64 = args.flag("eps", 0.1)?;
    let seed: u64 = args.flag("seed", 0)?;
    let warm = match args.str_flag("warm", "on").as_str() {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown --warm value `{other}` (on|off)")),
    };
    let mut approx = MixedApproxOptions::practical(eps);
    approx.warm_start = warm;
    approx.decision = approx
        .decision
        .with_engine(engine_of(&args.str_flag("engine", "exact"), eps)?)
        .with_seed(seed);

    let solver =
        MixedSolver::builder(&inst).options(approx.decision).build().map_err(|e| e.to_string())?;
    let r = solver.session().optimize(&approx).map_err(|e| e.to_string())?;

    if args.bool_flag("json") {
        // `mixed_payload` performs the certificate re-verification itself.
        return Ok(format!(
            "{{\"command\":\"mixed\",{}}}\n",
            mixed_payload(&json_str(path), &inst, &r, true),
        ));
    }

    let point_cert = r
        .best_point
        .as_ref()
        .map(|p| (p, verify_mixed_feasible(&inst, p, r.threshold_lower * (1.0 - 1e-9), 1e-7)));
    let witness_cert =
        r.infeasibility_witness.as_ref().map(|c| (c, verify_mixed_infeasible(&inst, c, 1e-7)));

    let mut out = String::new();
    out.push_str(&format!(
        "coverage threshold σ* ∈ [{:.6}, {:.6}]   ratio {:.4}   ({} decision calls, {} total iterations, {} engine evals, converged: {})\n",
        r.threshold_lower,
        r.threshold_upper,
        if r.threshold_lower > 0.0 { r.threshold_upper / r.threshold_lower } else { f64::INFINITY },
        r.decision_calls,
        r.total_iterations,
        r.total_engine_evals,
        r.converged
    ));
    if let Some((p, c)) = &point_cert {
        out.push_str(&format!(
            "best point: pack λmax {:.6}, cover λmin {:.6}, verified feasible: {}\n",
            p.pack_lambda_max, p.cover_lambda_min, c.feasible
        ));
    }
    if let Some((w, c)) = &witness_cert {
        out.push_str(&format!(
            "infeasibility witness at σ = {:.6}: margin {:.4}, refutes σ* > {:.6}, verified: {}\n",
            w.sigma, c.margin, c.refuted_threshold, c.valid
        ));
    }
    Ok(out)
}

/// `psdp convert` — lossless text↔binary instance conversion. The input
/// family and encoding are sniffed ([`sniff`]); `--to` picks the output
/// encoding. Both encodings are canonical, so convert∘convert is a byte
/// fixpoint in either direction.
///
/// # Errors
/// IO/parse/flag errors as printable messages.
pub fn convert(args: &Args) -> Result<String, String> {
    args.ensure_known(&["to", "out"])?;
    let path = args.pos(1).ok_or("convert: missing FILE")?;
    let out = args.str_flag("out", "");
    if out.is_empty() {
        return Err("convert: missing --out FILE".to_string());
    }
    let to = args.str_flag("to", "bin");
    let encoding = match to.as_str() {
        "bin" => Encoding::Binary,
        "text" => Encoding::Text,
        _ => return Err(format!("unknown --to value `{to}` (bin|text)")),
    };
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (family, from) = sniff(&bytes);
    let (inst, _) = Instance::decode(family, from, &bytes).map_err(|e| e.to_string())?;
    std::fs::write(&out, inst.encode(encoding)).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(match &inst {
        Instance::Packing(p) => format!(
            "wrote {out} ({to}, packing, m={}, n={}, nnz={})\n",
            p.dim(),
            p.n(),
            p.total_nnz()
        ),
        Instance::Mixed(m) => format!(
            "wrote {out} ({to}, mixed, pack {0}x{0}, cover {1}x{1}, n={2}, nnz={3})\n",
            m.pack_dim(),
            m.cover_dim(),
            m.n(),
            m.total_nnz()
        ),
    })
}

/// `psdp audit` — run the workspace determinism & robustness lint
/// (crates/analyze, DESIGN.md §11). Clean runs return the summary line;
/// findings (or, under `--deny-warnings`, warnings) come back as `Err` so
/// the process exits non-zero and CI fails.
///
/// # Errors
/// The rendered report when the audit is not clean, or a config/walk error.
pub fn audit(args: &Args) -> Result<String, String> {
    args.ensure_known(&["root", "config", "json", "deny-warnings"])?;
    let root = std::path::PathBuf::from(args.str_flag("root", "."));
    let opts = psdp_analyze::Options {
        config_path: args.opt_flag("config").map(std::path::PathBuf::from),
    };
    let report = psdp_analyze::run_audit(&root, &opts)?;
    let deny = args.bool_flag("deny-warnings");
    let rendered = if args.bool_flag("json") { report.json() } else { report.human() };
    if report.is_clean(deny) {
        Ok(rendered)
    } else {
        Err(rendered)
    }
}

/// Dispatch a full command line (excluding program name).
///
/// # Errors
/// Any subcommand failure, as a printable message.
pub fn dispatch(raw: &[String]) -> Result<String, String> {
    // `--help` is value-less, so intercept it before the `--key value`
    // parser (which would otherwise demand a value for it).
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    let args = Args::parse(raw)?;
    match args.pos(0) {
        Some("generate") => generate(&args),
        Some("info") => info(&args),
        Some("solve") => solve(&args),
        Some("optimize") => optimize(&args),
        Some("mixed") => mixed(&args),
        Some("convert") => convert(&args),
        Some("serve") => crate::serve::serve(&args),
        Some("audit") => audit(&args),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => Ok(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_core::{read_instance, read_mixed_instance};

    fn run(v: &[&str]) -> Result<String, String> {
        dispatch(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn usage_on_no_args() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_flag_prints_usage() {
        for v in [&["--help"][..], &["-h"], &["solve", "--help"]] {
            let out = run(v).unwrap();
            assert!(out.contains("USAGE"), "{out}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn generate_to_stdout_parses_back() {
        let text = run(&["generate", "--family", "lp", "--dim", "4", "--n", "3"]).unwrap();
        let inst = read_instance(&text).unwrap();
        assert_eq!(inst.dim(), 4);
        assert_eq!(inst.n(), 3);
    }

    #[test]
    fn full_file_lifecycle() {
        let dir = std::env::temp_dir().join("psdp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.psdp");
        let p = path.to_str().unwrap();

        let msg =
            run(&["generate", "--family", "random", "--dim", "6", "--n", "4", "--out", p]).unwrap();
        assert!(msg.contains("wrote"));

        let info_out = run(&["info", p]).unwrap();
        assert!(info_out.contains("constraints  4"), "{info_out}");

        let solve_out = run(&["solve", p, "--eps", "0.2"]).unwrap();
        assert!(
            solve_out.contains("verified feasible: true") || solve_out.contains("verified: true"),
            "{solve_out}"
        );

        let opt_out = run(&["optimize", p, "--eps", "0.15"]).unwrap();
        assert!(opt_out.contains("converged: true"), "{opt_out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn convert_roundtrips_both_families_and_solves_binary() {
        let dir = std::env::temp_dir().join("psdp-cli-convert");
        std::fs::create_dir_all(&dir).unwrap();
        let text_p = dir.join("inst.psdp");
        let bin_p = dir.join("inst.psdpb");
        let back_p = dir.join("back.psdp");
        let (t, b, k) =
            (text_p.to_str().unwrap(), bin_p.to_str().unwrap(), back_p.to_str().unwrap());
        run(&["generate", "--family", "lp", "--dim", "6", "--n", "5", "--out", t]).unwrap();

        // text → bin → text is a byte fixpoint (both encodings canonical).
        let msg = run(&["convert", t, "--to", "bin", "--out", b]).unwrap();
        assert!(msg.contains("bin, packing"), "{msg}");
        let msg = run(&["convert", b, "--to", "text", "--out", k]).unwrap();
        assert!(msg.contains("text, packing"), "{msg}");
        assert_eq!(std::fs::read(&text_p).unwrap(), std::fs::read(&back_p).unwrap());
        // bin → bin re-encode is also a fixpoint.
        let bin_bytes = std::fs::read(&bin_p).unwrap();
        run(&["convert", b, "--to", "bin", "--out", b]).unwrap();
        assert_eq!(bin_bytes, std::fs::read(&bin_p).unwrap());

        // Binary files solve identically to their text source (sniffed by
        // magic).
        let from_text = run(&["solve", t, "--eps", "0.2", "--json"]).unwrap();
        let from_bin = run(&["solve", b, "--eps", "0.2", "--json"]).unwrap();
        // `wall_ms` is real wall clock in one-shot mode; everything before
        // it (the whole certificate and stats payload) must match.
        let strip = |s: &str| {
            let s = s.replace(&json_str(t), "F").replace(&json_str(b), "F");
            s.split("\"wall_ms\":").next().unwrap().to_string()
        };
        assert_eq!(strip(&from_text), strip(&from_bin));
        // The encoding is the bytes' own: there is no `--format` to force it.
        for cmd in [&["solve", b][..], &["serve"]] {
            let err = run(&[cmd, &["--format", "bin"]].concat()).unwrap_err();
            assert!(err.contains("unknown flag --format"), "{err}");
        }

        // info/optimize sniff binary files too.
        assert!(run(&["info", b]).unwrap().contains("constraints  5"));
        assert!(run(&["optimize", b, "--eps", "0.15"]).unwrap().contains("converged: true"));

        // Mixed family: same lossless loop through the mixed encoders.
        let mt = dir.join("mixed.psdp");
        let mb = dir.join("mixed.psdpb");
        let mk = dir.join("mixed-back.psdp");
        let (mt_s, mb_s, mk_s) = (mt.to_str().unwrap(), mb.to_str().unwrap(), mk.to_str().unwrap());
        run(&["generate", "--family", "mixed-lp", "--dim", "6", "--n", "5", "--out", mt_s])
            .unwrap();
        let msg = run(&["convert", mt_s, "--to", "bin", "--out", mb_s]).unwrap();
        assert!(msg.contains("bin, mixed"), "{msg}");
        run(&["convert", mb_s, "--to", "text", "--out", mk_s]).unwrap();
        assert_eq!(std::fs::read(&mt).unwrap(), std::fs::read(&mk).unwrap());
        assert!(run(&["mixed", mb_s, "--eps", "0.2"]).unwrap().contains("converged: true"));

        // Flag validation.
        assert!(run(&["convert", t, "--to", "braille", "--out", b]).is_err());
        assert!(run(&["convert", t, "--to", "bin"]).is_err());
        for f in [text_p, bin_p, back_p, mt, mb, mk] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn convert_reads_a_commented_mixed_text_file() {
        let dir = std::env::temp_dir().join("psdp-cli-convert-commented");
        std::fs::create_dir_all(&dir).unwrap();
        let (src, bin, back) =
            (dir.join("commented.psdp"), dir.join("commented.psdpb"), dir.join("back.psdp"));
        let (s, b, k) = (src.to_str().unwrap(), bin.to_str().unwrap(), back.to_str().unwrap());
        let canonical = run(&[
            "generate",
            "--family",
            "mixed-graph",
            "--dim",
            "6",
            "--p",
            "0.6",
            "--seed",
            "4",
        ])
        .unwrap();
        std::fs::write(&src, format!("# hand-annotated\n\n{canonical}")).unwrap();
        // The sniff skips the comment and the blank line as the reader does,
        // so the file converts as mixed, and back to the canonical text.
        let msg = run(&["convert", s, "--to", "bin", "--out", b]).unwrap();
        assert!(msg.contains("bin, mixed"), "{msg}");
        run(&["convert", b, "--to", "text", "--out", k]).unwrap();
        assert_eq!(std::fs::read_to_string(&back).unwrap(), canonical);
        for f in [src, bin, back] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn packing_commands_point_mixed_files_at_psdp_mixed() {
        let dir = std::env::temp_dir().join("psdp-cli-cross-mixed");
        std::fs::create_dir_all(&dir).unwrap();
        let (text, bin) = (dir.join("mixed.psdp"), dir.join("mixed.psdpb"));
        let (t, b) = (text.to_str().unwrap(), bin.to_str().unwrap());
        let canonical =
            run(&["generate", "--family", "mixed-lp", "--dim", "5", "--n", "4"]).unwrap();
        // A leading comment does not hide the family from the sniff.
        std::fs::write(&text, format!("# annotated\n{canonical}")).unwrap();
        run(&["convert", t, "--to", "bin", "--out", b]).unwrap();
        for p in [t, b] {
            for cmd in ["info", "solve", "optimize"] {
                let err = run(&[cmd, p]).unwrap_err();
                assert_eq!(err, format!("{p}: mixed instance: use `psdp mixed`"), "{cmd}");
            }
        }
        for f in [text, bin] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn mixed_command_points_packing_files_at_psdp_optimize() {
        let dir = std::env::temp_dir().join("psdp-cli-cross-packing");
        std::fs::create_dir_all(&dir).unwrap();
        let (text, bin, junk) = (dir.join("p.psdp"), dir.join("p.psdpb"), dir.join("junk.psdp"));
        let (t, b, j) = (text.to_str().unwrap(), bin.to_str().unwrap(), junk.to_str().unwrap());
        run(&["generate", "--family", "lp", "--dim", "5", "--n", "4", "--out", t]).unwrap();
        run(&["convert", t, "--to", "bin", "--out", b]).unwrap();
        for p in [t, b] {
            let err = run(&["mixed", p]).unwrap_err();
            assert_eq!(err, format!("{p}: packing instance: use `psdp optimize`"));
        }
        // Bytes that name no family keep the reader's own error.
        std::fs::write(&junk, "not an instance\n").unwrap();
        let err = run(&["mixed", j]).unwrap_err();
        assert!(err.contains("expected header `psdp mixed 1`"), "{err}");
        for f in [text, bin, junk] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn stars_family_and_auto_engine() {
        let dir = std::env::temp_dir().join("psdp-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stars.psdp");
        let p = path.to_str().unwrap();
        let msg = run(&[
            "generate", "--family", "stars", "--dim", "10", "--p", "0.4", "--seed", "2", "--out", p,
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        // Small dim → auto resolves to exact; the resolved name is reported.
        let out = run(&["solve", p, "--eps", "0.2", "--engine", "auto"]).unwrap();
        assert!(out.contains("engine exact"), "{out}");
        assert!(out.contains("verified feasible: true") || out.contains("verified: true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_output_solve_and_optimize() {
        let dir = std::env::temp_dir().join("psdp-cli-json");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.psdp");
        let p = path.to_str().unwrap();
        run(&["generate", "--family", "lp", "--dim", "5", "--n", "4", "--out", p]).unwrap();

        let out = run(&["solve", p, "--eps", "0.2", "--json"]).unwrap();
        assert!(out.starts_with("{\"command\":\"solve\""), "{out}");
        assert!(out.contains("\"outcome\":"), "{out}");
        assert!(out.contains("\"certificate\":"), "{out}");
        assert!(out.contains("\"engine_evals\":"), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");

        let out = run(&["optimize", p, "--eps", "0.15", "--json"]).unwrap();
        assert!(out.starts_with("{\"command\":\"optimize\""), "{out}");
        assert!(out.contains("\"brackets\":["), "{out}");
        assert!(out.contains("\"value_lower\":"), "{out}");
        assert!(out.contains("\"converged\":true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn optimize_warm_toggle_same_bracket() {
        let dir = std::env::temp_dir().join("psdp-cli-warm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.psdp");
        let p = path.to_str().unwrap();
        run(&["generate", "--family", "lp", "--dim", "5", "--n", "4", "--out", p]).unwrap();
        // Warm starts keep the certified bracket: identical printed brackets.
        let warm = run(&["optimize", p, "--eps", "0.15", "--warm", "on"]).unwrap();
        let cold = run(&["optimize", p, "--eps", "0.15", "--warm", "off"]).unwrap();
        let line = |s: &str| s.lines().next().unwrap().split("   ").next().unwrap().to_string();
        assert_eq!(line(&warm), line(&cold), "warm: {warm}\ncold: {cold}");
        assert!(run(&["optimize", p, "--warm", "sideways"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_graph_end_to_end_with_json() {
        let dir = std::env::temp_dir().join("psdp-cli-mixed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.psdp");
        let p = path.to_str().unwrap();
        // Sparse graph-based mixed instance (edge Laplacians + ridge).
        let msg = run(&[
            "generate",
            "--family",
            "mixed-graph",
            "--dim",
            "8",
            "--p",
            "0.6",
            "--seed",
            "3",
            "--ridge",
            "0.5",
            "--out",
            p,
        ])
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");

        let out = run(&["mixed", p, "--eps", "0.2"]).unwrap();
        assert!(out.contains("coverage threshold"), "{out}");
        assert!(out.contains("verified feasible: true"), "{out}");

        let out = run(&["mixed", p, "--eps", "0.2", "--json"]).unwrap();
        assert!(out.starts_with("{\"command\":\"mixed\""), "{out}");
        assert!(out.contains("\"threshold_lower\":"), "{out}");
        assert!(out.contains("\"best_point\":{"), "{out}");
        assert!(out.contains("\"verified\":true"), "{out}");
        assert!(out.contains("\"brackets\":["), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mixed_lp_generate_roundtrip_and_solve() {
        let text = run(&["generate", "--family", "mixed-lp", "--dim", "4", "--n", "3"]).unwrap();
        let inst = read_mixed_instance(&text).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.pack_dim(), 4);

        let dir = std::env::temp_dir().join("psdp-cli-mixed-lp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.psdp");
        let p = path.to_str().unwrap();
        std::fs::write(p, &text).unwrap();
        let out = run(&["mixed", p, "--eps", "0.2", "--warm", "off"]).unwrap();
        assert!(out.contains("coverage threshold"), "{out}");
        assert!(run(&["mixed", p, "--warm", "sideways"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn figure1_generate_and_solve() {
        let text = run(&["generate", "--family", "figure1"]).unwrap();
        let inst = read_instance(&text).unwrap();
        assert_eq!(inst.n(), 3);
        assert_eq!(inst.dim(), 2);
    }

    #[test]
    fn bad_engine_name() {
        let dir = std::env::temp_dir().join("psdp-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.psdp");
        let p = path.to_str().unwrap();
        run(&["generate", "--family", "lp", "--dim", "3", "--n", "2", "--out", p]).unwrap();
        let err = run(&["solve", p, "--engine", "quantum"]).unwrap_err();
        assert!(err.contains("unknown engine"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn expv_engine_name_parses_and_solves() {
        assert!(matches!(engine_of("expv", 0.2), Ok(EngineKind::Expv { .. })));
        assert!(matches!(engine_of("lanczos", 0.2), Ok(EngineKind::Expv { .. })));
        let dir = std::env::temp_dir().join("psdp-cli-test-expv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.psdp");
        let p = path.to_str().unwrap();
        run(&["generate", "--family", "lp", "--dim", "6", "--n", "4", "--out", p]).unwrap();
        let out = run(&["solve", p, "--engine", "expv", "--json"]).unwrap();
        assert!(out.contains("\"engine\":\"expv\""), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typo_flag_rejected() {
        let err = run(&["generate", "--famly", "lp"]).unwrap_err();
        assert!(err.contains("unknown flag"));
    }
}
