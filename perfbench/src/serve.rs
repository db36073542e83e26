//! Serve workloads (`serve-hot`, `serve-socket`) and the serve-layer
//! probes every workload runs in its traced pass.
//!
//! Both workloads drive the release `psdp` binary as a child process:
//! `serve-hot` pipes the E15 full-protocol stream into one-shot
//! `psdp serve`; `serve-socket` runs `psdp serve --listen --bind unix:…`
//! with two open-loop clients. The serve-layer probes call the same layers
//! in-process through their public API (`psdp_serve::json::parse`,
//! `params_key`, `Scheduler::run_batch`, `Service::run_stream`, and the
//! `psdp_cli::jsonfmt` renderers).

use crate::inputs::{cold_batch, hot_batch, warm_batch, SERVE_EPS};
use crate::report::{median, ms, quantile, Report};
use crate::solve::{self, Case, Plan, Probes};
use crate::trace::Tracer;
use crate::Opts;
use psdp_cli::jsonfmt::{mixed_payload, optimize_payload, solve_payload};
use psdp_core::{
    mixed_content_hash, packing_content_hash, ApproxOptions, DecisionOptions, MixedApproxOptions,
};
use psdp_serve::cache::params_key;
use psdp_serve::json::{parse, JsonValue};
use psdp_serve::{
    InstancePayload, Scheduler, SchedulerOptions, ServeRequest, ServeResult, Service,
    ServiceOptions, ServiceReport, StreamItem, StreamOutcome,
};
use psdp_workloads::{stream_jsonl, KindedRequest, StreamBatch, StreamKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in one `serve-hot` pass.
const HOT_REQUESTS: usize = 20_000;
/// `serve-socket` hot client rate, requests per second. A cold request
/// stalls the server's sequencer for its whole solve, and hot responses
/// held behind it count against the per-client in-flight cap (256): at
/// this rate a 0.25 s stall holds a quarter of the cap, leaving room for
/// a machine running at half speed.
const HOT_RATE: f64 = 250.0;
/// `serve-socket` cold client interval.
const COLD_EVERY: Duration = Duration::from_millis(1000);
/// A child that has not finished this long after its input ended is
/// killed and the run fails.
const CHILD_GRACE: Duration = Duration::from_secs(60);
/// The open-loop generator is flagged invalid when its p99 lateness
/// exceeds this. On two cores the client threads share the CPU with the
/// server's cold solves, which delays them by a few ms.
const MAX_GEN_LAG_MS: f64 = 20.0;
/// Lines sampled for the per-request parse / key / render probes.
const PROBE_SAMPLE: usize = 4000;

/// The requests `psdp serve` builds from `stream_jsonl(batch)`, built
/// directly (same options and content hashes as its JSONL parser).
fn requests_of(batch: &StreamBatch) -> Vec<ServeRequest> {
    let pack: Vec<_> =
        batch.packing.iter().map(|i| (Arc::new(i.clone()), packing_content_hash(i))).collect();
    let mixed: Vec<_> =
        batch.mixed.iter().map(|i| (Arc::new(i.clone()), mixed_content_hash(i))).collect();
    let eps = batch.eps;
    batch
        .requests
        .iter()
        .map(|r| match r.kind {
            StreamKind::Solve => {
                let (inst, h) = &pack[r.instance];
                let opts = DecisionOptions::practical(eps);
                ServeRequest::decision_hashed(r.id.clone(), Arc::clone(inst), *h, r.threshold, opts)
            }
            StreamKind::Optimize => {
                let (inst, h) = &pack[r.instance];
                let opts = ApproxOptions::practical(eps);
                ServeRequest::optimize_hashed(r.id.clone(), Arc::clone(inst), *h, opts)
            }
            StreamKind::Mixed => {
                let (inst, h) = &mixed[r.instance];
                let opts = MixedApproxOptions::practical(eps);
                ServeRequest::mixed_hashed(r.id.clone(), Arc::clone(inst), *h, opts)
            }
        })
        .collect()
}

/// Peak resident memory of a child, polled from `/proc/<pid>/status`
/// (`VmHWM` only grows, so the last reading before exit is the peak).
struct RssMonitor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssMonitor {
    fn start(pid: u32) -> RssMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let path = format!("/proc/{pid}/status");
            let mut peak_kb = 0.0_f64;
            while !flag.load(Ordering::SeqCst) {
                if let Some(kb) = std::fs::read_to_string(&path).ok().and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("VmHWM:"))
                        .and_then(|l| l.split_whitespace().nth(1))
                        .and_then(|v| v.parse::<f64>().ok())
                }) {
                    peak_kb = peak_kb.max(kb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak_kb / 1024.0
        });
        RssMonitor { stop, handle }
    }

    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or(f64::NAN)
    }
}

/// Wait for a child to exit, killing it after the deadline.
fn wait_child(child: &mut Child, deadline: Instant) -> Result<(), String> {
    loop {
        match child.try_wait().map_err(|e| format!("waiting for psdp: {e}"))? {
            Some(status) if status.success() => return Ok(()),
            Some(status) => return Err(format!("psdp exited with {status}")),
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("psdp did not finish in time; killed".to_string());
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Checks over one client's response lines.
#[derive(Default)]
struct Checked {
    errors: u64,
    overloaded: u64,
    missing: u64,
    bad_certs: u64,
    /// Certified brackets that did not close to `1 + ε`.
    unconverged: u64,
    max_ratio: f64,
    /// FNV-1a over the non-overloaded response lines, in order.
    digest: u64,
    /// Whether each response was a memo hit.
    memoized: Vec<bool>,
}

impl Checked {
    fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.missing + self.bad_certs
    }
}

/// Check one client's responses: exactly one per request, ids in
/// submission order, no error lines, and both ends of every
/// optimize/mixed bracket verified.
fn check_lines(report: &mut Report, who: &str, ids: &[String], lines: &[String]) -> Checked {
    let mut c = Checked { digest: 0xcbf2_9ce4_8422_2325, ..Checked::default() };
    c.missing = ids.len().saturating_sub(lines.len()) as u64;
    report.check(lines.len() == ids.len(), || {
        format!("{who}: {} responses for {} requests", lines.len(), ids.len())
    });
    for (line, id) in lines.iter().zip(ids) {
        let head = format!("{{\"id\":\"{id}\",");
        if !line.starts_with(&head) {
            c.errors += 1;
            report.problem(format!("{who}: response out of order, expected id {id}"));
            continue;
        }
        let memo = line.contains("\"memoized\":true");
        c.memoized.push(memo);
        if line.contains("\"overloaded\":true") {
            c.overloaded += 1;
            continue;
        }
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            c.digest = (c.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        if line[head.len()..].starts_with("\"error\"") {
            c.errors += 1;
            report.problem(format!("{who}: error response: {line}"));
            continue;
        }
        let optimize = line[head.len()..].starts_with("\"command\":\"optimize\"");
        let mixed = line[head.len()..].starts_with("\"command\":\"mixed\"");
        if optimize || mixed {
            match bracket_of(line, mixed) {
                Some((ratio, converged)) => {
                    c.max_ratio = c.max_ratio.max(ratio);
                    c.unconverged += u64::from(!converged);
                }
                None => {
                    c.bad_certs += 1;
                    report.problem(format!("{who}: uncertified bracket in {id}"));
                }
            }
        }
    }
    if c.unconverged > 0 {
        report.env(&format!("unconverged.{who}"), c.unconverged);
    }
    if c.failed() > 0 {
        report.env(
            &format!("failures.{who}"),
            format!(
                "errors {} overloaded {} missing {} uncertified {}",
                c.errors, c.overloaded, c.missing, c.bad_certs
            ),
        );
    }
    c
}

/// The bracket ratio of an optimize/mixed response and whether it closed
/// to `1 + ε`, or `None` when an end failed verification. (Some pooled
/// mixed instances stop at the decision-call cap with a wider bracket
/// whose ends still verify; that is recorded, not failed.)
fn bracket_of(line: &str, mixed: bool) -> Option<(f64, bool)> {
    let v = parse(line).ok()?;
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64);
    let flag =
        |o: Option<&JsonValue>, k: &str| o.and_then(|o| o.get(k)).and_then(JsonValue::as_bool);
    let (lo, hi, ends_ok) = if mixed {
        let point = flag(v.get("best_point"), "verified") == Some(true);
        let witness = match v.get("infeasibility") {
            Some(w) if !w.is_null() => flag(Some(w), "verified") == Some(true),
            _ => true,
        };
        (num("threshold_lower")?, num("threshold_upper")?, point && witness)
    } else {
        (
            num("value_lower")?,
            num("value_upper")?,
            flag(v.get("best_dual"), "feasible") == Some(true),
        )
    };
    let converged = v.get("converged").and_then(JsonValue::as_bool) == Some(true)
        && hi / lo <= (1.0 + SERVE_EPS) * (1.0 + 1e-9);
    (ends_ok && lo > 0.0 && lo <= hi).then_some((hi / lo, converged))
}

/// Ids of a batch, in order.
fn ids_of(batch: &StreamBatch) -> Vec<String> {
    batch.requests.iter().map(|r| r.id.clone()).collect()
}

/// One one-shot `psdp serve` pass.
struct OneShot {
    spawned: Instant,
    /// When the child had taken input off the pipe: it is reading.
    reading: Instant,
    /// Per request, when the write holding its line returned.
    sent: Vec<Instant>,
    /// Per response, when its line arrived.
    got: Vec<Instant>,
    lines: Vec<String>,
    bytes_out: usize,
    peak_rss_mb: f64,
}

impl OneShot {
    /// Spawn until the last response, seconds.
    fn wall(&self) -> f64 {
        self.got.last().map_or(f64::NAN, |t| (*t - self.spawned).as_secs_f64())
    }

    /// Per-request latency, ms, from the write of its line to its response.
    fn latency_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.sent.iter().zip(&self.got).map(|(s, g)| ms(g.saturating_duration_since(*s)))
    }
}

/// Bytes written before the child must have started reading: one more
/// page than the default 64 KiB pipe buffer holds.
const FIRST_CHUNK: usize = 64 * 1024 + 4096;

fn one_shot_pass(psdp: &str, input: &[u8], line_ends: &[usize]) -> Result<OneShot, String> {
    let spawned = Instant::now();
    let mut child = Command::new(psdp)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {psdp}: {e}"))?;
    let rss = RssMonitor::start(child.id());
    let mut stdin = child.stdin.take().ok_or("no stdin pipe")?;
    let stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let mut stderr = child.stderr.take().ok_or("no stderr pipe")?;
    let (writes, lines, waited) = std::thread::scope(|s| {
        let writer = s.spawn(move || -> Vec<(usize, Instant)> {
            // (end offset, time the write returned) per chunk.
            let mut done = Vec::new();
            let mut pos = 0usize;
            while pos < input.len() {
                let end = if pos == 0 { FIRST_CHUNK } else { pos + (1 << 16) }.min(input.len());
                if stdin.write_all(&input[pos..end]).is_err() {
                    break;
                }
                done.push((end, Instant::now()));
                pos = end;
            }
            done
        });
        let reader = s.spawn(move || -> Vec<(String, Instant)> {
            let mut out = Vec::new();
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => out.push((l, Instant::now())),
                    Err(_) => break,
                }
            }
            out
        });
        let drain = s.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
        });
        let waited = wait_child(&mut child, Instant::now() + CHILD_GRACE * 3);
        let writes = writer.join().unwrap_or_default();
        let lines = reader.join().unwrap_or_default();
        let _ = drain.join();
        (writes, lines, waited)
    });
    let peak_rss_mb = rss.finish();
    waited?;
    let reading = writes.first().map_or(spawned, |&(_, t)| t);
    let mut chunk = writes.iter().peekable();
    let sent = line_ends
        .iter()
        .map_while(|&end| {
            while chunk.peek().is_some_and(|&&(e, _)| e < end) {
                chunk.next();
            }
            chunk.peek().map(|&&(_, t)| t)
        })
        .collect();
    let bytes_out = lines.iter().map(|(l, _)| l.len() + 1).sum();
    let (lines, got) = lines.into_iter().unzip();
    Ok(OneShot { spawned, reading, sent, got, lines, bytes_out, peak_rss_mb })
}

/// Offsets just past each line's newline.
fn line_ends(text: &str) -> Vec<usize> {
    text.match_indices('\n').map(|(i, _)| i + 1).collect()
}

/// `serve-hot`: repeated one-shot passes of the same stream. In the
/// traced run every other pass records its spans.
pub fn hot(opts: &Opts, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let batch = hot_batch(HOT_REQUESTS, opts.seed);
    let input = stream_jsonl(&batch);
    let ends = line_ends(&input);
    let ids = ids_of(&batch);
    report.env("shards", 1);
    report.env("requests_per_pass", ids.len());
    let (mut setups, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat, mut cold, mut peak_rss_mb, mut bytes_out) = (Vec::new(), Vec::new(), 0.0, 0);
    let mut digest: Option<u64> = None;
    let started = Instant::now();
    // Stop before a pass that would overrun the measured time.
    let (mut passes, mut last) = (0usize, 0.0_f64);
    while passes < 3 || started.elapsed().as_secs_f64() + last <= opts.seconds {
        let traced = opts.trace && passes % 2 == 1;
        let pass = one_shot_pass(&opts.psdp, input.as_bytes(), &ends)?;
        last = pass.wall();
        passes += 1;
        let c = check_lines(report, "serve-hot", &ids, &pass.lines);
        report.attempted += ids.len() as u64;
        report.failed += c.failed();
        match digest {
            None => {
                digest = Some(c.digest);
                report.env("response_digest", format!("{:016x}", c.digest));
                report.put("bracket_ratio", c.max_ratio, "ratio", ids.len());
            }
            Some(d) => {
                report.check(d == c.digest, || {
                    "serve-hot: response bytes differ between passes".into()
                });
            }
        }
        bytes_out = pass.bytes_out;
        if traced {
            traced_walls.push(pass.wall());
            let end = pass.got.last().copied().unwrap_or(pass.reading);
            let root = tracer.record("serve-hot.pass", pass.spawned, end, None, None);
            tracer.record("serve-hot.setup", pass.spawned, pass.reading, root, None);
            for (i, (s, g)) in pass.sent.iter().zip(&pass.got).enumerate() {
                tracer.record("serve-hot.request", *s, *g, root, Some(i as u64));
            }
            continue;
        }
        setups.push((pass.reading - pass.spawned).as_secs_f64());
        walls.push(pass.wall());
        peak_rss_mb = f64::max(peak_rss_mb, pass.peak_rss_mb);
        lat.extend(pass.latency_ms());
        cold.extend(pass.latency_ms().zip(&c.memoized).filter(|(_, &m)| !m).map(|(l, _)| l));
    }
    let n = walls.len();
    if !opts.trace {
        report.put("setup_s", median(&setups), "s", n);
        report.put("solve_s", median(&walls), "s", n);
        report.put("peak_rss_mb", peak_rss_mb, "MiB", n);
        report.put("rps", ids.len() as f64 / median(&walls), "1/s", n * ids.len());
        report.put("p50_ms", median(&lat), "ms", lat.len());
        report.put("p99_ms", quantile(&lat, 0.99), "ms", lat.len());
        report.put("cold_p50_ms", median(&cold), "ms", cold.len());
        return Ok(());
    }
    let overhead = (median(&traced_walls) / median(&walls) - 1.0) * 100.0;
    report.put("bench.trace.overhead_pct", overhead, "%", passes);
    let requests = requests_of(&batch);
    let lines: Vec<&str> = input.lines().collect();
    let layers = serve_layers(&[], &requests, &lines, None, report, tracer)?;
    report.put("serve.transport.bytes_in", input.len() as f64 / ids.len() as f64, "B", ids.len());
    report.put("serve.transport.bytes_out", bytes_out as f64 / ids.len() as f64, "B", ids.len());
    report.put("bench.outside_core_share", 1.0 - layers.run_batch_s / median(&walls), "share", n);
    pool_core_layers(&batch, report, tracer)
}

/// What the in-process serve-layer probes measured.
struct ServeLayers {
    /// Mean rendered response body, bytes (with its newline).
    render_bytes: f64,
    /// Wall time of `Scheduler::run_batch`, seconds.
    run_batch_s: f64,
    /// Share of the measured `run_stream` wall time in which no request
    /// was executing.
    stream_idle_share: f64,
}

/// Render one response with the `psdp serve` payload schema.
fn render(req: &ServeRequest, res: &ServeResult) -> String {
    match (res, &req.payload) {
        (ServeResult::Decision(d), InstancePayload::Packing(inst)) => {
            solve_payload("null", inst, d, false)
        }
        (ServeResult::Optimize(r), InstancePayload::Packing(inst)) => {
            optimize_payload("null", inst, r, false)
        }
        (ServeResult::Mixed(r), InstancePayload::Mixed(inst)) => {
            mixed_payload("null", inst, r, false)
        }
        _ => String::new(),
    }
}

/// Per-call median, µs, of `f` over `items`.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut xs = Vec::with_capacity(items.len());
    for it in items {
        let t = Instant::now();
        f(it);
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&xs)
}

/// The serve layers called in-process on a workload's requests: JSON
/// parse, memo key, `Scheduler::run_batch` (over `warm` then `requests`)
/// with its reuse counters, the response renderer, and
/// `Service::run_stream` over `requests` after an unmeasured pass over
/// `warm` (paced by `due`, offsets from the start, when given).
fn serve_layers(
    warm: &[ServeRequest],
    requests: &[ServeRequest],
    lines: &[&str],
    due: Option<&[Duration]>,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<ServeLayers, String> {
    let sample = &lines[..lines.len().min(PROBE_SAMPLE)];
    let parse_us = per_item_us(sample, |l| {
        let _ = std::hint::black_box(parse(l));
    });
    let req_sample = &requests[..requests.len().min(PROBE_SAMPLE)];
    let key_us = per_item_us(req_sample, |r| {
        let _ = std::hint::black_box(params_key(&r.kind));
    });
    report.put("serve.json.parse_us", parse_us, "us", sample.len());
    report.put("serve.cache.params_key_us", key_us, "us", req_sample.len());

    let batch: Vec<ServeRequest> = warm.iter().chain(requests).cloned().collect();
    let mut sched = Scheduler::new(SchedulerOptions::default());
    let (out, batch_took, _) =
        tracer.time("serve.scheduler.run_batch", None, || sched.run_batch(&batch));
    let out = out.map_err(|e| e.to_string())?;
    let r = &out.report;
    report.put("serve.scheduler.run_batch_ms", ms(batch_took), "ms", batch.len());
    report.put("serve.scheduler.memo_hits", r.tiers.memo_hits as f64, "count", r.requests);
    report.put(
        "serve.scheduler.memo_share",
        r.tiers.memo_hits as f64 / r.requests as f64,
        "share",
        r.requests,
    );
    report.put("serve.scheduler.prep_builds", r.prep_builds as f64, "count", r.requests);
    report.put("serve.scheduler.prep_reuses", r.tiers.prep_reuses as f64, "count", r.requests);
    report.put("serve.scheduler.engine_evals", r.engine_evals as f64, "count", r.requests);
    report.check(r.errors == 0, || format!("in-process run_batch: {} error responses", r.errors));

    let pairs: Vec<(&ServeRequest, &ServeResult)> = batch
        .iter()
        .zip(&out.responses)
        .filter_map(|(q, resp)| resp.result.as_ref().ok().map(|res| (q, res)))
        .take(PROBE_SAMPLE)
        .collect();
    let mut rendered = 0usize;
    let render_us = per_item_us(&pairs, |(q, res)| {
        rendered += std::hint::black_box(render(q, res)).len() + 1;
    });
    report.put("cli.jsonfmt.render_us", render_us, "us", pairs.len());

    let shards = nproc();
    let mut service = Service::new(ServiceOptions { shards, ..ServiceOptions::default() });
    // The warm pass fills the cache, as the socket session's does, before
    // the measured stream starts.
    let warm_items = warm.iter().map(|q| StreamItem::Execute { request: q.clone(), ctx: () });
    service.run_stream(warm_items, |(), _: StreamOutcome| {});
    let start = Instant::now();
    let mut k = 0usize;
    let items = std::iter::from_fn(|| {
        let req = requests.get(k)?;
        if let Some(d) = due.and_then(|d| d.get(k)) {
            let at = start + *d;
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        k += 1;
        Some(StreamItem::Execute { request: req.clone(), ctx: () })
    });
    let (rep, took, _): (ServiceReport, _, _) =
        tracer.time("serve.service.run_stream", None, || {
            service.run_stream(items, |(), _: StreamOutcome| {})
        });
    let q99 = |h: &psdp_serve::LatencyHistogram| h.quantile(0.99).map_or(0.0, ms);
    report.put("serve.service.run_stream_ms", ms(took), "ms", rep.requests);
    report.put(
        "serve.service.queue_wait_p99_ms",
        q99(&rep.queue_hist),
        "ms",
        rep.queue_hist.count() as usize,
    );
    report.put(
        "serve.service.service_p99_ms",
        q99(&rep.service_hist),
        "ms",
        rep.service_hist.count() as usize,
    );
    let high = rep.queue_high_water.iter().copied().max().unwrap_or(0);
    report.put("serve.service.queue_high_water", high as f64, "count", rep.requests);
    report.put("serve.service.overloaded", rep.overloaded as f64, "count", rep.requests);
    Ok(ServeLayers {
        render_bytes: rendered as f64 / pairs.len().max(1) as f64,
        run_batch_s: batch_took.as_secs_f64(),
        stream_idle_share: 1.0 - rep.service_hist.sum().as_secs_f64() / took.as_secs_f64(),
    })
}

/// Worker threads to size shards by (`nproc`).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Core layers on a serve workload's distinct instances: each pooled
/// packing instance and each mixed instance solved once, as a cache miss
/// makes the server do, with the layer probes on its result.
fn pool_core_layers(
    batch: &StreamBatch,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // Traced solves alternate with untraced ones: two solves give one of
    // each.
    let plan = Plan { seconds: 0.0, min_solves: 2, traced: true, strict: false };
    let cases: Vec<Case> = batch
        .packing
        .iter()
        .map(|i| Case::Packing(i.clone(), ApproxOptions::practical(batch.eps)))
        .chain(
            batch
                .mixed
                .iter()
                .map(|i| Case::Mixed(i.clone(), MixedApproxOptions::practical(batch.eps))),
        )
        .collect();
    let mut runs = Vec::new();
    for case in &cases {
        let run = solve::run_case(case, plan, report, tracer)?;
        let probes = solve::probes(case, &run.last, 16, tracer)?;
        runs.push((run, probes));
    }
    let refs: Vec<(&solve::CaseRun, Probes)> = runs.iter().map(|(r, p)| (r, *p)).collect();
    solve::put_core_layers(report, &refs);
    Ok(())
}

/// Serve layers on a solver workload's instance: its request line parsed,
/// keyed and rendered, and the request (plus one identical repeat, a memo
/// hit) through `Scheduler::run_batch` and `Service::run_stream`.
pub fn solver_serve_layers(
    case: &Case,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let ids = ["q0", "q1"];
    let mut batch = StreamBatch {
        packing: Vec::new(),
        mixed: Vec::new(),
        requests: Vec::new(),
        eps: case.eps(),
    };
    // The requests carry the workload's own options (the JSON line, which
    // is only parsed, carries the serve protocol's defaults).
    let (requests, kind): (Vec<ServeRequest>, _) = match case {
        Case::Packing(inst, approx) => {
            batch.packing.push(inst.clone());
            let a = Arc::new(inst.clone());
            let reqs = ids.iter().map(|id| ServeRequest::optimize(*id, Arc::clone(&a), *approx));
            (reqs.collect(), StreamKind::Optimize)
        }
        Case::Mixed(inst, approx) => {
            batch.mixed.push(inst.clone());
            let a = Arc::new(inst.clone());
            let reqs = ids.iter().map(|id| ServeRequest::mixed(*id, Arc::clone(&a), *approx));
            (reqs.collect(), StreamKind::Mixed)
        }
    };
    batch.requests = ids
        .iter()
        .map(|id| KindedRequest { id: id.to_string(), kind, instance: 0, threshold: 0.0 })
        .collect();
    let text = stream_jsonl(&batch);
    let lines: Vec<&str> = text.lines().collect();
    let layers = serve_layers(&[], &requests, &lines, None, report, tracer)?;
    // No transport runs here: the request line and the rendered body.
    report.put("serve.transport.bytes_in", text.len() as f64 / 2.0, "B", 2);
    report.put("serve.transport.bytes_out", layers.render_bytes, "B", 2);
    Ok(())
}

/// One client's timeline on the socket.
#[derive(Default)]
struct ClientLog {
    /// When each request was due.
    due: Vec<Instant>,
    /// When each request was actually written.
    sent: Vec<Instant>,
    /// Response lines and their arrival times.
    got: Vec<(String, Instant)>,
    bytes_in: usize,
    bytes_out: usize,
}

/// Write `lines` at their due times (open loop), then close the write
/// half.
fn paced_writer(mut w: UnixStream, lines: &[&str], due: &[Instant]) -> (Vec<Instant>, usize) {
    let mut sent = Vec::with_capacity(lines.len());
    let mut bytes = 0usize;
    for (line, &at) in lines.iter().zip(due) {
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if w.write_all(&buf).is_err() {
            break;
        }
        sent.push(Instant::now());
        bytes += buf.len();
    }
    let _ = w.shutdown(std::net::Shutdown::Write);
    (sent, bytes)
}

/// Read response lines until EOF (or the read timeout).
fn line_reader(r: UnixStream) -> (Vec<(String, Instant)>, usize) {
    let mut out = Vec::new();
    let mut bytes = 0usize;
    for line in BufReader::new(r).lines() {
        match line {
            Ok(l) => {
                bytes += l.len() + 1;
                out.push((l, Instant::now()));
            }
            Err(_) => break,
        }
    }
    (out, bytes)
}

/// A `psdp serve --listen --bind unix:…` child and its two connections.
struct Listen {
    child: Child,
    rss: RssMonitor,
    stderr: std::thread::JoinHandle<String>,
    spawned: Instant,
    hot: UnixStream,
    cold: UnixStream,
}

fn spawn_listen(psdp: &str, sock: &str) -> Result<Listen, String> {
    let _ = std::fs::remove_file(sock);
    let spawned = Instant::now();
    let shards = nproc().to_string();
    let mut child = Command::new(psdp)
        .args([
            "serve",
            "--listen",
            "--bind",
            &format!("unix:{sock}"),
            "--shards",
            &shards,
            "--max-clients",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {psdp}: {e}"))?;
    let rss = RssMonitor::start(child.id());
    let mut err = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
    let mut first = String::new();
    let _ = err.read_line(&mut first);
    if !first.starts_with("listening on") {
        let _ = child.kill();
        let _ = child.wait();
        rss.finish();
        return Err(format!("psdp serve --listen did not start: {first}"));
    }
    let stderr = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = err.read_to_string(&mut rest);
        rest
    });
    let connect = || -> Result<UnixStream, String> {
        let s = UnixStream::connect(sock).map_err(|e| format!("connecting to {sock}: {e}"))?;
        s.set_read_timeout(Some(CHILD_GRACE)).map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(CHILD_GRACE)).map_err(|e| e.to_string())?;
        Ok(s)
    };
    let hot = connect()?;
    let cold = connect()?;
    Ok(Listen { child, rss, stderr, spawned, hot, cold })
}

impl Listen {
    /// Send the warm requests on the hot connection and read their
    /// responses; returns them and the time from spawn until the last.
    fn warm(&mut self, warm_text: &str, count: usize) -> Result<(Vec<String>, Duration), String> {
        self.hot.write_all(warm_text.as_bytes()).map_err(|e| format!("warm write: {e}"))?;
        let mut r = BufReader::new(self.hot.try_clone().map_err(|e| e.to_string())?);
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            match r.read_line(&mut l) {
                Ok(n) if n > 0 => lines.push(l.trim_end().to_string()),
                _ => return Err("warm phase: connection closed early".to_string()),
            }
        }
        if !r.buffer().is_empty() {
            return Err("warm phase: unexpected extra response".to_string());
        }
        Ok((lines, self.spawned.elapsed()))
    }

    /// Close both connections and wait for the server to exit; returns
    /// its stderr report and peak RSS.
    fn finish(mut self) -> Result<(String, f64), String> {
        let _ = self.hot.shutdown(std::net::Shutdown::Both);
        let _ = self.cold.shutdown(std::net::Shutdown::Both);
        let waited = wait_child(&mut self.child, Instant::now() + CHILD_GRACE);
        let peak = self.rss.finish();
        let text = self.stderr.join().unwrap_or_default();
        waited.map(|()| (text, peak))
    }
}

/// One measured socket session.
struct Session {
    setup: Duration,
    hot: ClientLog,
    cold: ClientLog,
    peak_rss_mb: f64,
    warm_lines: Vec<String>,
}

/// The socket workload's inputs.
struct SocketInputs {
    warm: StreamBatch,
    hot: StreamBatch,
    cold: StreamBatch,
}

fn socket_inputs(seed: u64, seconds: f64) -> SocketInputs {
    let hot_n = ((seconds * HOT_RATE) as usize).max(1);
    let cold_n = ((seconds / COLD_EVERY.as_secs_f64()) as usize).max(1);
    // The warm set is every distinct request of the hot stream, so every
    // measured hot request is a memo hit.
    let hot = hot_batch(hot_n, seed);
    SocketInputs { warm: warm_batch(&hot), hot, cold: cold_batch(cold_n, seed) }
}

fn socket_session(
    opts: &Opts,
    sock: &str,
    inp: &SocketInputs,
    measure: bool,
) -> Result<Session, String> {
    let mut srv = spawn_listen(&opts.psdp, sock)?;
    let warm_text = stream_jsonl(&inp.warm);
    let (warm_lines, setup) = match srv.warm(&warm_text, inp.warm.requests.len()) {
        Ok(w) => w,
        Err(e) => {
            let _ = srv.finish();
            return Err(e);
        }
    };
    let (mut hot, mut cold) = (ClientLog::default(), ClientLog::default());
    if measure {
        let hot_text = stream_jsonl(&inp.hot);
        let cold_text = stream_jsonl(&inp.cold);
        let hot_lines: Vec<&str> = hot_text.lines().collect();
        let cold_lines: Vec<&str> = cold_text.lines().collect();
        let t0 = Instant::now() + Duration::from_millis(20);
        hot.due = (0..hot_lines.len())
            .map(|i| t0 + Duration::from_secs_f64(i as f64 / HOT_RATE))
            .collect();
        cold.due = (0..cold_lines.len()).map(|k| t0 + COLD_EVERY.mul_f64(k as f64 + 0.5)).collect();
        let clone = |s: &UnixStream| s.try_clone().map_err(|e| e.to_string());
        let (hw, hr, cw, cr) =
            (clone(&srv.hot)?, clone(&srv.hot)?, clone(&srv.cold)?, clone(&srv.cold)?);
        std::thread::scope(|s| {
            let hot_w = s.spawn(|| paced_writer(hw, &hot_lines, &hot.due));
            let cold_w = s.spawn(|| paced_writer(cw, &cold_lines, &cold.due));
            let hot_r = s.spawn(|| line_reader(hr));
            let cold_r = s.spawn(|| line_reader(cr));
            (hot.sent, hot.bytes_in) = hot_w.join().unwrap_or_default();
            (cold.sent, cold.bytes_in) = cold_w.join().unwrap_or_default();
            (hot.got, hot.bytes_out) = hot_r.join().unwrap_or_default();
            (cold.got, cold.bytes_out) = cold_r.join().unwrap_or_default();
        });
    }
    let (summary, peak_rss_mb) = srv.finish()?;
    if measure {
        eprint!("psdp serve --listen report:\n{summary}");
    }
    Ok(Session { setup, hot, cold, peak_rss_mb, warm_lines })
}

/// Latencies (ms) from each request's due time to its response.
fn latencies(log: &ClientLog) -> Vec<f64> {
    log.due.iter().zip(&log.got).map(|(d, (_, t))| ms(t.saturating_duration_since(*d))).collect()
}

/// `serve-socket`: a `psdp serve --listen` server with a hot open-loop
/// client and a cold client.
pub fn socket(opts: &Opts, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    // Unix socket paths must be short: bind and connect relative to the
    // output directory (both paths in `opts` are absolute).
    std::env::set_current_dir(&opts.out).map_err(|e| format!("entering {}: {e}", opts.out))?;
    let sock = format!("s{}.sock", std::process::id());
    let phase = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let inp = socket_inputs(opts.seed, phase);
    report.env("shards", nproc());
    report.env("hot_rate_per_s", HOT_RATE);
    report.env("cold_every_ms", COLD_EVERY.as_millis());
    // Extra set-ups (warm pass only) so `setup_s` is a median.
    let mut setups = Vec::new();
    let mut warm_digest = None;
    let extra = if opts.trace { 0 } else { 2 };
    let mut sessions = Vec::new();
    for k in 0..extra + if opts.trace { 2 } else { 1 } {
        let s = socket_session(opts, &sock, &inp, k >= extra)?;
        let c = check_lines(report, "serve-socket warm", &ids_of(&inp.warm), &s.warm_lines);
        report.attempted += s.warm_lines.len() as u64;
        report.failed += c.failed();
        match warm_digest {
            None => warm_digest = Some(c.digest),
            Some(d) => {
                report.check(d == c.digest, || {
                    "serve-socket: warm responses differ between servers".into()
                });
            }
        }
        setups.push(s.setup.as_secs_f64());
        if k >= extra {
            sessions.push(s);
        }
    }
    let _ = std::fs::remove_file(&sock);
    let (hot_ids, cold_ids) = (ids_of(&inp.hot), ids_of(&inp.cold));
    let mut max_ratio = 0.0_f64;
    let mut lags = Vec::new();
    for s in &sessions {
        let hot_lines: Vec<String> = s.hot.got.iter().map(|(l, _)| l.clone()).collect();
        let cold_lines: Vec<String> = s.cold.got.iter().map(|(l, _)| l.clone()).collect();
        let h = check_lines(report, "serve-socket hot", &hot_ids, &hot_lines);
        let c = check_lines(report, "serve-socket cold", &cold_ids, &cold_lines);
        report.attempted += (hot_ids.len() + cold_ids.len()) as u64;
        report.failed += h.failed() + c.failed();
        report.env("response_digest", format!("{:016x}:{:016x}", h.digest, c.digest));
        max_ratio = max_ratio.max(h.max_ratio).max(c.max_ratio);
        for log in [&s.hot, &s.cold] {
            lags.extend(
                log.due.iter().zip(&log.sent).map(|(d, t)| ms(t.saturating_duration_since(*d))),
            );
        }
    }
    let lag_p99 = quantile(&lags, 0.99);
    report.env("bench.gen.lag_p99_ms", lag_p99);
    report.env("valid", lag_p99 <= MAX_GEN_LAG_MS);
    if lag_p99 > MAX_GEN_LAG_MS {
        eprintln!("perfbench: INVALID run: open-loop generator p99 lag {lag_p99:.2} ms > {MAX_GEN_LAG_MS} ms");
    }
    let s = &sessions[0];
    let hot_lat = latencies(&s.hot);
    let cold_lat = latencies(&s.cold);
    if !opts.trace {
        let session_s = s
            .hot
            .got
            .last()
            .map_or(f64::NAN, |(_, t)| t.saturating_duration_since(s.hot.due[0]).as_secs_f64());
        report.put("setup_s", median(&setups), "s", setups.len());
        report.put("solve_s", median(&cold_lat) / 1e3, "s", cold_lat.len());
        report.put("bracket_ratio", max_ratio, "ratio", hot_ids.len() + cold_ids.len());
        report.put("peak_rss_mb", s.peak_rss_mb, "MiB", 1);
        report.put(
            "rps",
            (s.hot.got.len() + s.cold.got.len()) as f64 / session_s,
            "1/s",
            s.hot.got.len(),
        );
        report.put("p50_ms", median(&hot_lat), "ms", hot_lat.len());
        report.put("p99_ms", quantile(&hot_lat, 0.99), "ms", hot_lat.len());
        report.put("cold_p50_ms", median(&cold_lat), "ms", cold_lat.len());
        return Ok(());
    }
    // Traced session: one span per request, due → response.
    let t = &sessions[1];
    let end = t.hot.got.last().map_or(t.hot.due[0], |(_, g)| *g);
    let root = tracer.record("serve-socket.session", t.hot.due[0], end, None, None);
    for (name, log) in [("serve-socket.hot", &t.hot), ("serve-socket.cold", &t.cold)] {
        for (i, (d, (_, got))) in log.due.iter().zip(&log.got).enumerate() {
            tracer.record(name, *d, *got, root, Some(i as u64));
        }
    }
    let traced_p50 = median(&latencies(&t.hot));
    report.put(
        "bench.trace.overhead_pct",
        (traced_p50 / median(&hot_lat) - 1.0) * 100.0,
        "%",
        hot_lat.len(),
    );
    // In-process layers on the same requests, paced like the session.
    let mut merged: Vec<(Duration, ServeRequest, String)> = Vec::new();
    let hot_text = stream_jsonl(&inp.hot);
    let t0 = s.hot.due[0];
    for ((q, l), d) in requests_of(&inp.hot).into_iter().zip(hot_text.lines()).zip(&s.hot.due) {
        merged.push((*d - t0, q, l.to_string()));
    }
    let cold_text = stream_jsonl(&inp.cold);
    for ((q, l), d) in requests_of(&inp.cold).into_iter().zip(cold_text.lines()).zip(&s.cold.due) {
        merged.push((d.saturating_duration_since(t0), q, l.to_string()));
    }
    merged.sort_by_key(|(d, _, _)| *d);
    let due: Vec<Duration> = merged.iter().map(|(d, _, _)| *d).collect();
    let lines: Vec<&str> = merged.iter().map(|(_, _, l)| l.as_str()).collect();
    let requests: Vec<ServeRequest> = merged.iter().map(|(_, q, _)| q.clone()).collect();
    let warm = requests_of(&inp.warm);
    let layers = serve_layers(&warm, &requests, &lines, Some(&due), report, tracer)?;
    let n = s.hot.got.len().max(1) as f64;
    report.put("serve.transport.bytes_in", s.hot.bytes_in as f64 / n, "B", s.hot.got.len());
    report.put("serve.transport.bytes_out", s.hot.bytes_out as f64 / n, "B", s.hot.got.len());
    report.put("bench.outside_core_share", layers.stream_idle_share, "share", requests.len());
    pool_core_layers(&inp.hot, report, tracer)
}
