//! `psdp-perfbench` — the repository benchmark.
//!
//! ```text
//! psdp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --psdp <path to release psdp> --out <dir>
//! ```
//!
//! Generates the workload's inputs from the seed (never timed), measures
//! for the given number of seconds, checks every output, and prints one
//! JSON result object as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` splits the time between an untraced
//! and a traced pass, reports the per-layer metrics and the tracing
//! overhead, and writes the spans to `<out>/<workload>-<seed>-trace-spans.jsonl`.
//! See README.md beside this crate for the workloads and metrics.

mod inputs;
mod report;
mod serve;
mod solve;
mod trace;

use report::{median, quantile, Report};
use solve::{Case, Plan};
use trace::Tracer;

/// End-to-end metrics (`--trace 0`), in the order they are printed.
const END_TO_END: &[&str] = &[
    "setup_s",
    "solve_s",
    "bracket_ratio",
    "peak_rss_mb",
    "rps",
    "p50_ms",
    "p99_ms",
    "cold_p50_ms",
];

/// Per-layer metrics (`--trace 1`). Every workload reports every one,
/// measured on that workload's own inputs (see README.md).
const PER_LAYER: &[&str] = &[
    "core.bin_io.read_ms",
    "core.solver.build_ms",
    "core.solver.optimize_ms",
    "core.solver.iter_ms",
    "core.solver.iter_p99_ms",
    "core.solver.iterations",
    "core.solver.engine_evals",
    "core.solver.replayed",
    "core.solver.decision_calls",
    "core.solver.psi_rebuilds",
    "core.solver.cost_work",
    "core.solver.cost_depth",
    "core.psi.apply_us",
    "core.psi.rebuild_ms",
    "expdot.engine.eval_ms",
    "linalg.eigen.ms",
    "core.verify.ms",
    "serve.json.parse_us",
    "serve.cache.params_key_us",
    "cli.jsonfmt.render_us",
    "serve.scheduler.run_batch_ms",
    "serve.scheduler.memo_hits",
    "serve.scheduler.memo_share",
    "serve.scheduler.prep_builds",
    "serve.scheduler.prep_reuses",
    "serve.scheduler.engine_evals",
    "serve.service.run_stream_ms",
    "serve.service.queue_wait_p99_ms",
    "serve.service.service_p99_ms",
    "serve.service.queue_high_water",
    "serve.service.overloaded",
    "serve.transport.bytes_in",
    "serve.transport.bytes_out",
    "bench.outside_core_share",
    "bench.trace.overhead_pct",
];

/// Command-line settings of one run.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The release `psdp` binary the serve workloads drive.
    pub psdp: String,
    /// Directory for sockets, spans and the detail record.
    pub out: String,
}

fn parse_args() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        psdp: get("--psdp")?,
        out: get("--out")?,
    })
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A solver workload: setup samples, then solves until the time is spent.
fn run_solver(
    opts: &Opts,
    case: &Case,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    report.env("eps", case.eps());
    if !opts.trace {
        let plan = Plan { seconds: opts.seconds, min_solves: 3, traced: false, strict: true };
        let run = solve::run_case(case, plan, report, tracer)?;
        report.attempted += run.attempted;
        report.failed += run.failed;
        let n = run.solve_s.len();
        report.put("setup_s", median(&run.setup_s), "s", run.setup_s.len() * solve::SETUP_REPS);
        report.put("solve_s", median(&run.solve_s), "s", n);
        report.put("bracket_ratio", run.last.upper / run.last.lower, "ratio", n);
        report.put("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
        report.put("rps", n as f64 / run.solve_s.iter().sum::<f64>(), "1/s", n);
        report.put("p50_ms", median(&run.solve_s) * 1e3, "ms", n);
        report.put("p99_ms", quantile(&run.solve_s, 0.99) * 1e3, "ms", n);
        report.put("cold_p50_ms", median(&run.cold_s) * 1e3, "ms", run.cold_s.len());
        return Ok(());
    }
    let plan = Plan { seconds: opts.seconds, min_solves: 4, traced: true, strict: true };
    let run = solve::run_case(case, plan, report, tracer)?;
    report.attempted += run.attempted;
    report.failed += run.failed;
    let probes = solve::probes(case, &run.last, 64, tracer)?;
    solve::put_core_layers(report, &[(&run, probes)]);
    let untraced = median(&run.solve_s);
    let traced = median(&run.traced_solve_s);
    report.put(
        "bench.trace.overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
        run.attempted as usize,
    );
    serve::solver_serve_layers(case, report, tracer)?;
    // A cold request's time outside `optimize`: read, prepare, verify.
    let outside = 1.0 - median(&run.optimize_ms) / 1e3 / median(&run.cold_s);
    report.put("bench.outside_core_share", outside, "share", run.cold_s.len());
    Ok(())
}

fn run(opts: &Opts) -> Result<(Report, Tracer), String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(opts.trace);
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    report.env("workload", &opts.workload);
    report.env("seed", opts.seed);
    report.env("seconds", opts.seconds);
    report.env("trace", opts.trace);
    report.env("rayon_num_threads", threads);
    report
        .env("nproc", std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get));
    report.env("commit", std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()));
    match opts.workload.as_str() {
        "serve-hot" => serve::hot(opts, &mut report, &mut tracer)?,
        "serve-socket" => serve::socket(opts, &mut report, &mut tracer)?,
        w => {
            let case = inputs::solver_case(w, opts.seed)
                .ok_or_else(|| format!("unknown workload `{w}`"))?;
            run_solver(opts, &case, &mut report, &mut tracer)?;
        }
    }
    Ok((report, tracer))
}

/// Absolute forms of the paths in `opts`, creating the output directory.
fn absolute_paths(mut opts: Opts) -> Result<Opts, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("creating {}: {e}", opts.out))?;
    let abs = |p: &str| {
        std::fs::canonicalize(p)
            .map(|p| p.to_string_lossy().into_owned())
            .map_err(|e| format!("{p}: {e}"))
    };
    opts.out = abs(&opts.out)?;
    opts.psdp = abs(&opts.psdp)?;
    Ok(opts)
}

fn main() {
    let opts = match parse_args().and_then(absolute_paths) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (report, tracer) = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let tag =
        format!("{}-{}-{}", opts.workload, opts.seed, if opts.trace { "trace" } else { "e2e" });
    let dir = std::path::Path::new(&opts.out);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(dir.join(format!("{tag}.json")), report.detail_json(&opts.workload))
        })
        .and_then(|()| {
            if opts.trace {
                std::fs::write(dir.join(format!("{tag}-spans.jsonl")), tracer.jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results to {}: {e}", opts.out);
    }
    eprintln!(
        "perfbench: {} seed {} ({} spans)\n{}",
        opts.workload,
        opts.seed,
        tracer.len(),
        report.table()
    );
    println!("{}", report.detail_json(&opts.workload));
    println!("{}", report.result_json(names));
}
