//! The `psdp serve` subcommand: a JSONL front door over the
//! `psdp-serve` scheduler and streaming service.
//!
//! One JSON request per line; one JSON response per line, in
//! submission order, reusing the `--json` schemas of `solve` / `optimize`
//! / `mixed` with two additions: the request's `id` and a `serve` object
//! carrying deterministic reuse telemetry. Response bytes are a pure
//! function of the request stream (`wall_ms` is emitted as `null`;
//! wall-clock telemetry goes to the stderr batch report instead), which is
//! what lets `tests/determinism.rs` compare serve output bitwise across
//! thread counts and submission orders.
//!
//! Malformed lines never abort the batch: each produces an error response
//! line in place (`{"id":…,"error":…}`, with `"id":null` when the line was
//! too broken to name itself). Lines are bounded (`--max-line-bytes`,
//! default 4 MiB): an oversized line becomes a typed in-place error, never
//! unbounded `String` growth.
//!
//! Instances arrive as canonical text or as `psdp-bin-1` binary
//! (`file` paths are sniffed by magic). In every mode a request may also
//! be a **binary frame**: a `0x00` marker byte (JSON never starts
//! with NUL), a `u32` LE payload length, then the payload — itself a
//! `u32` LE JSON-header length, the JSON header (same schema as a text
//! request, minus `file`/`instance`), and the instance as `psdp-bin-1`
//! bytes. Frames over `--max-line-bytes` are consumed to their declared
//! length and dropped (typed in-place error, stream resyncs at the next
//! request); a repeated frame body skips decoding entirely via a raw-byte
//! fingerprint cache, and the serve-cache fingerprint comes from the
//! binary header's content hash — byte-identical responses to the
//! equivalent text submission.
//!
//! All three front ends — one-shot, `--listen` over stdin, and one socket
//! connection — read through one `RequestReader` and render through one
//! `render_outcome`, so the same bytes in give the same bytes out. The
//! one-shot front end streams: it reads requests off stdin into one
//! scheduler batch and writes the responses to a buffered stdout, holding
//! the parsed batch but never the input or output text.
//!
//! `--listen` switches from the one-shot batch scheduler to the
//! persistent streaming service ([`psdp_serve::service`]): requests are
//! dispatched to shard workers as lines arrive and responses stream out
//! in submission order; a full shard queue answers with a typed
//! `overloaded` error line. `--snapshot <path>` warm-loads the prepared
//! cache at startup (corrupted snapshot → clean cold start) and saves it
//! back on shutdown.

use crate::args::Args;
use crate::commands::{format_of, Format};
use crate::jsonfmt::{json_str, mixed_fields, optimize_fields, solve_fields};
use psdp_core::{
    fnv1a, is_binary_instance, ApproxOptions, ConstantsMode, DecisionOptions, MixedApproxOptions,
};
use psdp_serve::json::{parse, JsonValue};
use psdp_serve::{
    BatchReport, FairMux, Family, InstancePayload, MemoKey, RequestKind, Scheduler,
    SchedulerOptions, ServeRequest, ServeResponse, ServeResult, ServeStats, Service,
    ServiceOptions, ServiceReport, StreamItem, StreamOutcome,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Default per-line byte bound for the request reader.
const DEFAULT_MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// First byte of a binary frame. JSON text never starts with NUL, so one
/// peeked byte disambiguates frames from JSONL lines.
const FRAME_MARKER: u8 = 0x00;

/// Parsed-instance cache: (family, source key) → (instance, parse-once
/// content hash). Carrying the hash means repeat sources never re-read,
/// re-parse, or re-hash, and requests are built with their fingerprint
/// attached. A source used by both families parses once per family.
type Sources = BTreeMap<(Family, String), (InstancePayload, u64)>;

/// Outcome of one `psdp serve` run: the stdout JSONL stream and the human
/// batch report for stderr.
pub struct ServeRun {
    /// One JSON response line per request, submission order.
    pub stdout: String,
    /// Human-readable batch report.
    pub summary: String,
}

/// A parsed request with its JSON `file` field (`"path"`, or `null` for
/// inline and framed instances), or the best-effort id and message of
/// its in-place error line.
type Parsed = Result<(ServeRequest, String), (Option<String>, String)>;

/// `psdp serve` — read requests from stdin (or, with `--bind`, from
/// socket clients), stream the responses to stdout, and print the
/// report to stderr. Returns nothing left to print.
///
/// # Errors
/// Flag errors and stream failures as printable messages (per-request
/// failures become response lines instead).
pub fn serve(args: &Args) -> Result<String, String> {
    let listen = args.bool_flag("listen");
    let summary = match args.opt_flag("bind") {
        Some(spec) if listen => {
            let addr = psdp_serve::BindAddr::parse(spec)?;
            let listener = psdp_serve::Listener::bind(&addr)?;
            // Report the bound address before serving: a `tcp:…:0`
            // caller learns the OS-assigned port from this line.
            eprintln!("listening on {}", listener.local_addr_string());
            serve_listen_socket_on(args, listener)?
        }
        // `--listen` flushes every line itself, so bare stdout is right.
        _ if listen => serve_listen_on(args, &mut std::io::stdin().lock(), &mut std::io::stdout())?,
        // One-shot writes a whole batch at once: a block buffer turns
        // one write per line into one per buffer.
        _ => {
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            serve_on(args, &mut std::io::stdin().lock(), &mut out)?
        }
    };
    eprint!("{summary}");
    Ok(String::new())
}

/// The testable core of one-shot [`serve`]: [`serve_on`] over an input
/// string, capturing the response stream.
///
/// # Errors
/// Same contract as [`serve_on`].
pub fn serve_on_input(args: &Args, input: &str) -> Result<ServeRun, String> {
    run_on_bytes(input.as_bytes(), |r, w| serve_on(args, r, w))
}

/// The testable core of `--listen`: [`serve_listen_on`] over an input
/// string, capturing the response stream.
///
/// # Errors
/// Same contract as [`serve_listen_on`].
pub fn serve_listen_on_input(args: &Args, input: &str) -> Result<ServeRun, String> {
    run_on_bytes(input.as_bytes(), |r, w| serve_listen_on(args, r, w))
}

/// Run one reader/writer front end over an in-memory byte stream.
fn run_on_bytes(
    mut input: &[u8],
    front_end: impl FnOnce(&mut &[u8], &mut Vec<u8>) -> Result<String, String>,
) -> Result<ServeRun, String> {
    let mut out: Vec<u8> = Vec::new();
    let summary = front_end(&mut input, &mut out)?;
    Ok(ServeRun { stdout: utf8_lossy(out), summary })
}

/// Bytes as UTF-8, copying only when invalid sequences must be replaced.
fn utf8_lossy(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `psdp serve` flags without `--listen`.
const ONE_SHOT_FLAGS: &[&str] = &["max-in-flight", "cache", "max-line-bytes", "format"];

/// `psdp serve --listen` flags. Socket-only flags (`--bind`,
/// `--max-clients`, `--client-inflight`) are accepted here too — the
/// dispatcher routes `--bind` before either front end parses.
const LISTEN_FLAGS: &[&str] = &[
    "listen",
    "cache",
    "shards",
    "queue-cap",
    "snapshot",
    "snapshot-keep",
    "max-line-bytes",
    "format",
    "shed-target-p99-ms",
    "bind",
    "max-clients",
    "client-inflight",
];

/// The `psdp serve` flag set of every front end. Each mode accepts only
/// its own flag list; a flag outside it keeps its default.
struct ServeConfig {
    max_line_bytes: usize,
    fmt: Format,
    cache_enabled: bool,
    /// One-shot scheduler workers (`0` = the pool width).
    max_in_flight: usize,
    shards: usize,
    queue_cap: usize,
    snapshot_path: Option<String>,
    snapshot_keep: usize,
    shed_target_p99: Option<std::time::Duration>,
    /// Per-client in-flight response cap (socket mode only): a client
    /// with this many unwritten responses has further requests answered
    /// with the typed `overloaded` line instead of buffering.
    client_inflight: usize,
    /// Stop accepting after this many connections (socket mode only;
    /// `0` = accept forever). Lets tests and CI drive a bounded session.
    max_clients: u64,
}

/// Parse the serve flags, rejecting any outside `known`.
fn serve_config(args: &Args, known: &[&str]) -> Result<ServeConfig, String> {
    args.ensure_known(known)?;
    let shed_ms: f64 = args.flag("shed-target-p99-ms", 0.0)?;
    if shed_ms < 0.0 || !shed_ms.is_finite() {
        return Err(format!(
            "--shed-target-p99-ms must be a finite non-negative number, got {shed_ms}"
        ));
    }
    Ok(ServeConfig {
        max_line_bytes: args.flag("max-line-bytes", DEFAULT_MAX_LINE_BYTES)?,
        fmt: format_of(&args.str_flag("format", "auto"))?,
        cache_enabled: match args.str_flag("cache", "on").as_str() {
            "on" => true,
            "off" => false,
            other => return Err(format!("unknown --cache value `{other}` (on|off)")),
        },
        max_in_flight: args.flag("max-in-flight", 0)?,
        shards: args.flag("shards", 4)?,
        queue_cap: args.flag("queue-cap", 1024)?,
        snapshot_path: args.opt_flag("snapshot").map(str::to_string),
        snapshot_keep: args.flag::<usize>("snapshot-keep", 1)?.max(1),
        shed_target_p99: (shed_ms > 0.0).then(|| std::time::Duration::from_secs_f64(shed_ms / 1e3)),
        client_inflight: args.flag::<usize>("client-inflight", 256)?.max(1),
        max_clients: args.flag("max-clients", 0)?,
    })
}

impl ServeConfig {
    fn service(&self) -> Service {
        Service::new(ServiceOptions {
            shards: self.shards,
            queue_capacity: self.queue_cap,
            cache_enabled: self.cache_enabled,
            shed_target_p99: self.shed_target_p99,
            ..ServiceOptions::default()
        })
    }

    /// Warm-load the newest verifiable snapshot generation: the live
    /// path first, then rotated generations (`<path>.1`, …) so a torn or
    /// corrupted live file degrades to the previous generation instead
    /// of a silent cold start.
    fn load_snapshot_notes(&self, service: &mut Service) -> String {
        let Some(path) = &self.snapshot_path else {
            return String::new();
        };
        let mut first_load_err: Option<String> = None;
        let mut any_readable = false;
        for gen_path in psdp_serve::snapshot::generation_paths(path, self.snapshot_keep) {
            let Ok(text) = std::fs::read_to_string(&gen_path) else { continue };
            any_readable = true;
            match service.load_snapshot(&text) {
                Ok(n) => {
                    return format!("snapshot: warm-loaded {n} fingerprints from {gen_path}\n");
                }
                Err(e) => {
                    first_load_err.get_or_insert_with(|| e.to_string());
                }
            }
        }
        match (any_readable, first_load_err) {
            (true, Some(e)) => format!("snapshot: {e}; starting cold\n"),
            _ => format!("snapshot: {path} not readable; starting cold\n"),
        }
    }

    /// Save the cache atomically (tmp + rename), rotating up to
    /// `--snapshot-keep` generations.
    fn save_snapshot_notes(&self, service: &Service) -> String {
        let Some(path) = &self.snapshot_path else {
            return String::new();
        };
        if !self.cache_enabled {
            return String::new();
        }
        match psdp_serve::snapshot::save_to_path(
            path,
            &service.snapshot_string(),
            self.snapshot_keep,
        ) {
            Ok(()) => format!(
                "snapshot: saved {} fingerprints to {path}\n",
                service.cached_fingerprints()
            ),
            Err(e) => format!("snapshot: save to {path} failed: {e}\n"),
        }
    }
}

/// One-shot `psdp serve` over a reader/writer pair (stdin and a buffered
/// stdout in production, buffers in tests): read every request into one
/// scheduler batch, then write one response line per request in
/// submission order and flush once. Returns the stderr batch report.
///
/// # Errors
/// Flag errors, stream read failures, and response write failures as
/// printable messages. Per-request failures become response lines.
pub fn serve_on(
    args: &Args,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> Result<String, String> {
    let cfg = serve_config(args, ONE_SHOT_FLAGS)?;
    let opts = SchedulerOptions {
        max_in_flight: cfg.max_in_flight,
        cache_enabled: cfg.cache_enabled,
        ..SchedulerOptions::default()
    };
    let requests = RequestReader::new(reader, cfg.fmt, cfg.max_line_bytes);
    Ok(summarize(&run_one_shot(requests, opts, writer)?))
}

/// Run every request `requests` yields through one scheduler batch and
/// render every line in input order, replaying the rendered fields of
/// stored memo results.
fn run_one_shot(
    mut requests: RequestReader<impl BufRead>,
    opts: SchedulerOptions,
    writer: &mut impl Write,
) -> Result<BatchReport, String> {
    // Per item: its context, and its outcome unless the batch answers it.
    let mut lines: Vec<(LineCtx, Option<StreamOutcome>)> = Vec::new();
    let mut batch: Vec<ServeRequest> = Vec::new();
    while let Some(item) = requests.next_item()? {
        lines.push(match item {
            StreamItem::Execute { request, ctx } => {
                batch.push(request);
                (ctx, None)
            }
            StreamItem::Reject { error, ctx } => (ctx, Some(StreamOutcome::Rejected { error })),
            StreamItem::Shed { id, ctx } => {
                (ctx, Some(StreamOutcome::Overloaded { id, shard: None }))
            }
        });
    }
    let output = Scheduler::new(opts).run_batch(&batch).map_err(|e| e.to_string())?;

    // Responses come back in batch order: input order without the
    // lines answered at admission.
    let mut responses = output.responses.into_iter().map(|r| StreamOutcome::Response(Box::new(r)));
    let mut replay = RenderReplay::default();
    for (ctx, outcome) in lines {
        // The batch answers every request it was given; if that invariant
        // ever breaks, emit an error line in place rather than panicking.
        let outcome = outcome.or_else(|| responses.next()).unwrap_or_else(|| {
            StreamOutcome::Rejected { error: "response missing for request (internal)".into() }
        });
        let line = render_outcome(&ctx, &outcome, Some(&mut replay));
        writer.write_all(line.as_bytes()).map_err(write_failed)?;
    }
    writer.flush().map_err(write_failed)?;
    Ok(output.report)
}

fn write_failed(e: std::io::Error) -> String {
    format!("writing response stream: {e}")
}

/// `psdp serve --listen` — the persistent streaming service over an
/// arbitrary reader/writer pair (stdin/stdout in production, buffers in
/// tests). Responses stream to `writer` in submission order as the
/// sequencer emits them; the returned string is the stderr summary.
///
/// # Errors
/// Flag errors, stream read failures, and response write failures as
/// printable messages. Per-request failures become response lines;
/// snapshot load/save problems degrade to notes in the summary (a
/// corrupted snapshot means a cold start, never a refusal to serve).
pub fn serve_listen_on(
    args: &Args,
    reader: &mut impl BufRead,
    writer: &mut (impl Write + Send),
) -> Result<String, String> {
    let cfg = serve_config(args, LISTEN_FLAGS)?;
    let mut service = cfg.service();
    let mut notes = cfg.load_snapshot_notes(&mut service);

    let mut requests = RequestReader::new(reader, cfg.fmt, cfg.max_line_bytes);
    let mut read_err: Option<String> = None;
    let items = std::iter::from_fn(|| {
        requests.next_item().unwrap_or_else(|e| {
            read_err = Some(e);
            None
        })
    });

    let mut write_err: Option<std::io::Error> = None;
    let report = service.run_stream(items, |ctx, outcome| {
        if write_err.is_some() {
            return;
        }
        let line = render_outcome(&ctx, &outcome, None);
        // Flush per line: a streaming client must see each response as it
        // is sequenced, not when a block buffer happens to fill.
        if let Err(e) = writer.write_all(line.as_bytes()).and_then(|()| writer.flush()) {
            write_err = Some(e);
        }
    });

    if let Some(e) = read_err {
        return Err(e);
    }
    if let Some(e) = write_err {
        return Err(write_failed(e));
    }
    notes.push_str(&cfg.save_snapshot_notes(&service));
    Ok(format!("{notes}{}", summarize_service(&report)))
}

/// Per-connection state the socket front end shares between the reader
/// thread, the admission loop, and the writer thread: the rendered-line
/// channel to the writer and the in-flight response counter the
/// per-client fairness cap reads.
struct ClientState {
    tx: std::sync::mpsc::Sender<String>,
    /// Shared with the writer thread directly (not through
    /// [`ClientState`]): the writer must never hold its own channel's
    /// `Sender`, or `recv` could not disconnect and the thread would
    /// never exit.
    inflight: Arc<std::sync::atomic::AtomicUsize>,
}

/// Caller context through the service pipeline in socket mode: the
/// rendering context plus the originating client.
type SocketCtx = (LineCtx, Arc<ClientState>);

/// `psdp serve --listen --bind …` over an already-bound [`psdp_serve::Listener`]:
/// one accept loop, a reader thread and a writer thread per connection,
/// all multiplexed into the one sharded [`psdp_serve::Service`] through a
/// round-robin [`psdp_serve::FairMux`]. Each client's responses stream back over its
/// own connection in that client's submission order — bitwise identical
/// to a stdin run of the same bytes (DESIGN.md §15,
/// `tests/determinism.rs`).
///
/// # Errors
/// Flag errors as printable messages. Connection-level failures (a
/// client hanging up mid-request, a dead reader) close that client only
/// and are noted in the returned summary, never an error.
pub fn serve_listen_socket_on(
    args: &Args,
    listener: psdp_serve::Listener,
) -> Result<String, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cfg = serve_config(args, LISTEN_FLAGS)?;
    let mut service = cfg.service();
    let mut notes = cfg.load_snapshot_notes(&mut service);
    let mux: FairMux<StreamItem<SocketCtx>> = FairMux::new(cfg.queue_cap.max(1));

    // Accept loop: registers each connection with the mux and spawns its
    // reader/writer pair. Owns the per-connection join handles, returned
    // on join so shutdown can wait for every thread.
    let accept = {
        let mux = mux.clone();
        let (fmt, max_line_bytes, max_clients) = (cfg.fmt, cfg.max_line_bytes, cfg.max_clients);
        std::thread::spawn(move || -> (String, Vec<std::thread::JoinHandle<()>>) {
            let mut handles = Vec::new();
            let mut accept_notes = String::new();
            let mut accepted: u64 = 0;
            while max_clients == 0 || accepted < max_clients {
                let conn = match listener.accept() {
                    Ok(c) => c,
                    Err(e) => {
                        accept_notes.push_str(&format!("accept failed: {e}\n"));
                        break;
                    }
                };
                let client_id = accepted;
                accepted += 1;
                mux.register(client_id);
                let (tx, rx) = std::sync::mpsc::channel::<String>();
                let inflight = Arc::new(AtomicUsize::new(0));
                let client = Arc::new(ClientState { tx, inflight: Arc::clone(&inflight) });
                let mut w = conn.writer;
                handles.push(std::thread::spawn(move || {
                    client_writer(&rx, &mut w, &inflight);
                }));
                let reader_mux = mux.clone();
                let reader = std::io::BufReader::new(conn.reader);
                let requests = RequestReader::new(reader, fmt, max_line_bytes);
                handles.push(std::thread::spawn(move || {
                    client_reader(requests, client_id, &reader_mux, &client);
                }));
            }
            mux.finish_accepting();
            (accept_notes, handles)
        })
    };

    // Admission: drain the fair mux on this thread. Every drained item
    // is counted against its client's in-flight cap; an Execute over the
    // cap becomes a caller shed, which the sequencer answers with the
    // typed `overloaded` line in submission order.
    let cap = cfg.client_inflight;
    let items = std::iter::from_fn(|| {
        mux.next().map(|item| {
            let client = match &item {
                StreamItem::Execute { ctx: (_, c), .. }
                | StreamItem::Reject { ctx: (_, c), .. }
                | StreamItem::Shed { ctx: (_, c), .. } => Arc::clone(c),
            };
            let inflight = client.inflight.fetch_add(1, Ordering::SeqCst).saturating_add(1);
            match item {
                StreamItem::Execute { request, ctx } if inflight > cap => {
                    StreamItem::Shed { id: request.id.clone(), ctx }
                }
                other => other,
            }
        })
    });
    let report = service.run_stream(items, |(ctx, client): SocketCtx, outcome| {
        // Hand the rendered line to the client's writer thread; a closed
        // channel means the writer is gone (client teardown), and the
        // response is dropped with it.
        let _ = client.tx.send(render_outcome(&ctx, &outcome, None));
    });

    // run_stream returned, so the mux reported end-of-stream: accepting
    // finished and every connection closed. Collect the threads.
    let (accept_notes, conn_handles) = accept
        .join()
        .unwrap_or_else(|_| ("accept thread panicked (internal)\n".to_string(), Vec::new()));
    mux.shutdown();
    for h in conn_handles {
        let _ = h.join();
    }
    notes.push_str(&accept_notes);
    notes.push_str(&cfg.save_snapshot_notes(&service));
    Ok(format!("{notes}{}", summarize_service(&report)))
}

/// Per-connection reader: push each item of this connection's request
/// stream into the fair mux. The connection has its own
/// [`RequestReader`] — exactly the state a stdin run of the same bytes
/// would hold, which is what keeps per-client responses bitwise identical
/// to stdin serving. EOF or a read error closes the client (its queued
/// items still drain).
fn client_reader(
    mut requests: RequestReader<impl BufRead>,
    client_id: u64,
    mux: &FairMux<StreamItem<SocketCtx>>,
    client: &Arc<ClientState>,
) {
    while let Ok(Some(item)) = requests.next_item() {
        if !mux.push(client_id, attach_client(item, client)) {
            break;
        }
    }
    mux.close_client(client_id);
}

/// Wrap a parsed stream item's context with its originating client.
fn attach_client(item: StreamItem<LineCtx>, client: &Arc<ClientState>) -> StreamItem<SocketCtx> {
    match item {
        StreamItem::Execute { request, ctx } => {
            StreamItem::Execute { request, ctx: (ctx, Arc::clone(client)) }
        }
        StreamItem::Reject { error, ctx } => {
            StreamItem::Reject { error, ctx: (ctx, Arc::clone(client)) }
        }
        StreamItem::Shed { id, ctx } => StreamItem::Shed { id, ctx: (ctx, Arc::clone(client)) },
    }
}

/// Per-connection writer: write each sequenced line and flush, then
/// release the client's in-flight slot. A write failure marks the client
/// dead but keeps draining — the counter and channel must never wedge
/// the sequencer on a hung-up client.
fn client_writer(
    rx: &std::sync::mpsc::Receiver<String>,
    w: &mut Box<dyn Write + Send>,
    inflight: &std::sync::atomic::AtomicUsize,
) {
    let mut dead = false;
    while let Ok(line) = rx.recv() {
        if !dead && w.write_all(line.as_bytes()).and_then(|()| w.flush()).is_err() {
            dead = true;
        }
        inflight.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Caller context carried with each request stream item: what its
/// outcome needs to render itself.
enum LineCtx {
    /// An admitted request: its instance and JSON `file` field.
    Request { payload: InstancePayload, file_json: String },
    /// An admission-stage error; the id (already JSON-rendered) keys the
    /// error line.
    Error { id_json: String },
}

/// The one request reader of every front end, over one request stream
/// (stdin, or one socket connection): bounded line and frame reads, the
/// parsed-source cache, and the duplicate-id set.
struct RequestReader<R> {
    reader: R,
    fmt: Format,
    max_line_bytes: usize,
    sources: Sources,
    seen_ids: BTreeSet<String>,
}

impl<R: BufRead> RequestReader<R> {
    fn new(reader: R, fmt: Format, max_line_bytes: usize) -> Self {
        RequestReader {
            reader,
            fmt,
            max_line_bytes,
            sources: Sources::new(),
            seen_ids: BTreeSet::new(),
        }
    }

    /// The next item in submission order, `None` at the end of the stream.
    /// Blank lines are skipped; every other line or frame yields one item,
    /// a failure as a reject that renders as an in-place error line.
    ///
    /// # Errors
    /// Stream read failures.
    fn next_item(&mut self) -> Result<Option<StreamItem<LineCtx>>, String> {
        let parsed = loop {
            match read_bounded_line(&mut self.reader, self.max_line_bytes)? {
                BoundedLine::Eof => return Ok(None),
                BoundedLine::Reject { id, msg } => return Ok(Some(reject_item(id, msg))),
                BoundedLine::Frame(bytes) => break parse_frame_request(&bytes, &mut self.sources),
                BoundedLine::Line(raw) if raw.trim().is_empty() => {}
                BoundedLine::Line(raw) => {
                    break parse_request_line(&raw, self.fmt, &mut self.sources)
                }
            }
        };
        let (request, file_json) = match parsed {
            Ok(p) => p,
            Err((id, msg)) => return Ok(Some(reject_item(id, msg))),
        };
        if !self.seen_ids.insert(request.id.clone()) {
            let msg = format!("duplicate request id `{}`", request.id);
            return Ok(Some(reject_item(Some(request.id), msg)));
        }
        let ctx = LineCtx::Request { payload: request.payload.clone(), file_json };
        Ok(Some(StreamItem::Execute { request, ctx }))
    }
}

/// An admission-stage reject keyed by the best-effort request id.
fn reject_item(id: Option<String>, msg: String) -> StreamItem<LineCtx> {
    let id_json = id.map_or_else(|| "null".to_string(), |s| json_str(&s));
    StreamItem::Reject { error: msg, ctx: LineCtx::Error { id_json } }
}

/// One item from the bounded request reader: a JSONL line, a
/// `0x00`-marked binary frame, or a line or frame dropped in place.
enum BoundedLine {
    /// End of the stream.
    Eof,
    /// A complete line within the byte bound (without its newline).
    Line(String),
    /// A complete binary frame payload within the byte bound.
    Frame(Vec<u8>),
    /// An oversized line or frame, or a frame cut off by EOF: its bytes
    /// were dropped, never buffered past the bound, and the stream
    /// resyncs at the next request. `id` is the best-effort leading
    /// `"id"` of an oversized line, so its error stays correlatable.
    Reject { id: Option<String>, msg: String },
}

/// Read one request item. A leading [`FRAME_MARKER`] byte switches to the
/// length-prefixed binary frame path; otherwise this reads one
/// newline-terminated line, never buffering more than `max_bytes` of it —
/// once a line exceeds the bound, the retained prefix is scanned for its
/// id and the remainder is consumed and dropped chunk-by-chunk until the
/// newline resyncs the stream.
fn read_bounded_line(r: &mut impl BufRead, max_bytes: usize) -> Result<BoundedLine, String> {
    let head = r.fill_buf().map_err(read_failed)?;
    if head.is_empty() {
        return Ok(BoundedLine::Eof);
    }
    if head.first() == Some(&FRAME_MARKER) {
        r.consume(1);
        return read_frame(r, max_bytes);
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized: Option<Option<String>> = None;
    let mut total = 0usize;
    loop {
        let chunk = r.fill_buf().map_err(read_failed)?;
        if chunk.is_empty() {
            break;
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        total += take;
        if oversized.is_none() {
            let room = max_bytes.saturating_sub(buf.len()).min(take);
            buf.extend_from_slice(chunk.get(..room).unwrap_or(&[]));
            if total > max_bytes {
                oversized = Some(scan_leading_id(&buf));
                buf = Vec::new();
            }
        }
        r.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    if let Some(id) = oversized {
        let msg = format!("line exceeds --max-line-bytes ({total} > {max_bytes} bytes)");
        return Ok(BoundedLine::Reject { id, msg });
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    // Invalid UTF-8 flows on as a (lossy) line so the JSON parser can
    // reject it with a typed in-place error instead of aborting the loop.
    Ok(BoundedLine::Line(utf8_lossy(buf)))
}

fn read_failed(e: std::io::Error) -> String {
    format!("reading request stream: {e}")
}

/// Read one binary frame body (the marker byte is already consumed): a
/// `u32` LE payload length, then the payload. A declared length over
/// `max_bytes` is discarded in place — exactly that many bytes are
/// consumed without ever being buffered — so the stream resyncs on the
/// next request instead of handing a partial buffer to a parser.
fn read_frame(r: &mut impl BufRead, max_bytes: usize) -> Result<BoundedLine, String> {
    let truncated = || BoundedLine::Reject {
        id: None,
        msg: "truncated binary frame (stream ended before the declared length)".to_string(),
    };
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_bytes)? {
        return Ok(truncated());
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_bytes {
        // Consume and drop exactly `len` bytes (or until EOF) through a
        // fixed-size copy buffer.
        let mut dropped = std::io::Read::take(&mut *r, len as u64);
        std::io::copy(&mut dropped, &mut std::io::sink()).map_err(read_failed)?;
        let msg = format!(
            "binary frame exceeds --max-line-bytes ({len} > {max_bytes} bytes); payload discarded"
        );
        return Ok(BoundedLine::Reject { id: None, msg });
    }
    // Bounded by `max_bytes`: the declared length was just checked.
    let mut payload = vec![0u8; len];
    if !read_exact_or_eof(r, &mut payload)? {
        return Ok(truncated());
    }
    Ok(BoundedLine::Frame(payload))
}

/// `read_exact` with a clean EOF reported as `Ok(false)` and real IO
/// failures as typed errors.
fn read_exact_or_eof(r: &mut impl BufRead, buf: &mut [u8]) -> Result<bool, String> {
    match std::io::Read::read_exact(r, buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(read_failed(e)),
    }
}

/// Best-effort scan of a (possibly truncated) request-line prefix for a
/// leading `"id"` string field, so even a discarded oversized line gets
/// an error its client can correlate. Returns `None` — the error renders
/// `"id":null` — unless a complete `"id":"…"` value lies inside the
/// prefix; an id cut off by the truncation point or using exotic escapes
/// falls back rather than guessing.
fn scan_leading_id(prefix: &[u8]) -> Option<String> {
    let at = prefix.windows(4).position(|w| w == b"\"id\"")?;
    let mut i = at + 4;
    while prefix.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if prefix.get(i) != Some(&b':') {
        return None;
    }
    i += 1;
    while prefix.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if prefix.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let mut bytes: Vec<u8> = Vec::new();
    loop {
        match prefix.get(i)? {
            b'"' => return String::from_utf8(bytes).ok(),
            b'\\' => {
                i += 1;
                match prefix.get(i)? {
                    b'"' => bytes.push(b'"'),
                    b'\\' => bytes.push(b'\\'),
                    b'/' => bytes.push(b'/'),
                    b'n' => bytes.push(b'\n'),
                    b't' => bytes.push(b'\t'),
                    _ => return None,
                }
            }
            &b => bytes.push(b),
        }
        i += 1;
    }
}

/// Render one sequenced outcome as its JSONL line, in every mode. With
/// `replay`, the result fields of a stored memo result are rendered once
/// and reused (see [`RenderReplay`]); without it every line renders from
/// scratch. Context/outcome mismatches cannot happen by construction, but
/// render as in-place error lines rather than panics if they ever do.
fn render_outcome(
    ctx: &LineCtx,
    outcome: &StreamOutcome,
    replay: Option<&mut RenderReplay>,
) -> String {
    match (outcome, ctx) {
        (StreamOutcome::Rejected { error }, LineCtx::Error { id_json }) => {
            error_line(id_json, error)
        }
        (StreamOutcome::Rejected { error }, LineCtx::Request { .. }) => error_line("null", error),
        (StreamOutcome::Overloaded { id, shard }, _) => crate::jsonfmt::overloaded_line(id, *shard),
        (StreamOutcome::Response(resp), LineCtx::Request { payload, file_json }) => {
            render_response(payload, file_json, resp, replay)
        }
        (StreamOutcome::Response(_), LineCtx::Error { id_json }) => {
            error_line(id_json, "response without request context (internal)")
        }
    }
}

/// The in-place error line: `{"id":…,"error":…}`.
fn error_line(id_json: &str, msg: &str) -> String {
    format!("{{\"id\":{id_json},\"error\":{}}}\n", json_str(msg))
}

fn summarize_service(r: &ServiceReport) -> String {
    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let secs = r.wall.as_secs_f64();
    let rps = if secs > 0.0 { r.executed as f64 / secs } else { 0.0 };
    format!(
        "listen: {} requests ({} executed, {} rejected, {} overloaded), {} errors\n\
         reuse: {} prep builds, {} prep reuses, {} memo hits, {} bracket injections\n\
         work:  {} engine evals\n\
         time:  wall {} ms ({rps:.0} req/s), latency service {}; queue {}\n\
         queues: high-water {:?}\n",
        r.requests,
        r.executed,
        r.rejected,
        r.overloaded,
        r.errors,
        r.prep_builds,
        r.tiers.prep_reuses,
        r.tiers.memo_hits,
        r.tiers.bracket_injections,
        r.engine_evals,
        ms(r.wall),
        r.service_hist.stats().render_ms(),
        r.queue_hist.stats().render_ms(),
        r.queue_high_water,
    )
}

fn summarize(r: &BatchReport) -> String {
    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    format!(
        "serve: {} requests in {} groups, {} errors\n\
         reuse: {} prep builds, {} prep reuses, {} memo hits, {} bracket injections\n\
         work:  {} engine evals\n\
         time:  wall {} ms, queue wait total {} ms (max {} ms), service total {} ms\n\
         latency: service {}; queue {}\n",
        r.requests,
        r.groups,
        r.errors,
        r.prep_builds,
        r.tiers.prep_reuses,
        r.tiers.memo_hits,
        r.tiers.bracket_injections,
        r.engine_evals,
        ms(r.wall),
        ms(r.total_queue_wait),
        ms(r.max_queue_wait),
        ms(r.total_service),
        r.service_hist.stats().render_ms(),
        r.queue_hist.stats().render_ms(),
    )
}

fn serve_stats_json(s: &ServeStats) -> String {
    let tier = s.hit_tier().map_or_else(|| "null".to_string(), json_str);
    format!(
        "{{\"prep_reused\":{},\"memoized\":{},\"bracket_injected\":{},\"tier\":{tier},\"engine_evals\":{}}}",
        s.prep_reused, s.memoized, s.bracket_injected, s.engine_evals,
    )
}

/// Rendered result fields of stored memo results, keyed by memo identity,
/// for one one-shot run. Each stored result is rendered (and its
/// certificates verified) once; every later memo hit replays the bytes.
/// Sound because the key names one immutable stored result and a hit's
/// instance is bitwise equal to the one it was computed for (see
/// [`MemoKey`]); request parameters would not do, since a request whose
/// memo was full is recomputed and may continue from another bracket.
#[derive(Default)]
struct RenderReplay(BTreeMap<MemoKey, ResultFields>);

/// `(command, fields after "file")` of a successful result, or the
/// internal error its (impossible) family mismatch renders as.
type ResultFields = Result<(&'static str, String), &'static str>;

/// Render one response line (reusing the one-shot `--json` schemas; see
/// the module docs for the determinism contract), replaying stored
/// result fields through `replay` when given.
fn render_response(
    payload: &InstancePayload,
    file_json: &str,
    resp: &ServeResponse,
    replay: Option<&mut RenderReplay>,
) -> String {
    let id_json = json_str(&resp.id);
    let res = match &resp.result {
        Err(msg) => return error_line(&id_json, msg),
        Ok(res) => res,
    };
    let fresh;
    let fields = match (replay, resp.stats.memo) {
        (Some(replay), Some(key)) => {
            &*replay.0.entry(key).or_insert_with(|| result_fields(payload, res))
        }
        _ => {
            fresh = result_fields(payload, res);
            &fresh
        }
    };
    match fields {
        Ok((command, fields)) => format!(
            "{{\"id\":{id_json},\"command\":\"{command}\",\"file\":{file_json},{fields},\"serve\":{}}}\n",
            serve_stats_json(&resp.stats),
        ),
        Err(msg) => error_line(&id_json, msg),
    }
}

/// The command name and `jsonfmt` fields of one result over its payload.
fn result_fields(payload: &InstancePayload, res: &ServeResult) -> ResultFields {
    match (res, payload) {
        (ServeResult::Decision(d), InstancePayload::Packing(inst)) => {
            Ok(("solve", solve_fields(inst, d, false)))
        }
        (ServeResult::Optimize(r), InstancePayload::Packing(inst)) => {
            Ok(("optimize", optimize_fields(inst, r, false)))
        }
        (ServeResult::Mixed(r), InstancePayload::Mixed(inst)) => {
            Ok(("mixed", mixed_fields(inst, r, false)))
        }
        _ => Err("result family does not match its payload (internal)"),
    }
}

/// Keys accepted per command (typo guard, mirroring `Args::ensure_known`).
fn allowed_keys(command: &str) -> &'static [&'static str] {
    match command {
        "solve" => {
            &["id", "command", "file", "instance", "threshold", "eps", "engine", "mode", "seed"]
        }
        "optimize" => &["id", "command", "file", "instance", "eps", "warm"],
        "mixed" => &["id", "command", "file", "instance", "eps", "engine", "seed", "warm"],
        _ => &[],
    }
}

fn get_f64(obj: &JsonValue, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

fn get_u64(obj: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    let v = get_f64(obj, key, default as f64)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field `{key}` must be a non-negative integer"));
    }
    Ok(v as u64)
}

fn get_bool(obj: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

fn get_str<'v>(obj: &'v JsonValue, key: &str, default: &'static str) -> Result<&'v str, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

/// Extract `id`/`command` and enforce the per-command key allowlist.
/// `framed` additionally bans `file`/`instance` (a frame carries its
/// instance as trailing `psdp-bin-1` bytes, never as a JSON field).
fn id_and_command(
    obj: &JsonValue,
    framed: bool,
) -> Result<(String, String), (Option<String>, String)> {
    let id = obj
        .get("id")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or((None, "missing string field `id`".to_string()))?;
    let fail = |msg: String| (Some(id.clone()), msg);

    let command = obj
        .get("command")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail("missing string field `command`".to_string()))?
        .to_string();
    let allowed = allowed_keys(&command);
    if allowed.is_empty() {
        return Err(fail(format!("unknown command `{command}` (solve|optimize|mixed)")));
    }
    if let JsonValue::Obj(pairs) = obj {
        for (k, _) in pairs {
            if framed && matches!(k.as_str(), "file" | "instance") {
                return Err(fail(format!(
                    "field `{k}` is not allowed in a binary frame (the instance rides as trailing psdp-bin-1 bytes)"
                )));
            }
            if !allowed.contains(&k.as_str()) {
                return Err(fail(format!("unknown field `{k}` for command `{command}`")));
            }
        }
    }
    Ok((id, command))
}

/// Build the request `command` asks for: load its instance source as the
/// command's family through the source cache, then read the command's
/// options. Shared by the text-line and binary-frame parsers. Bytes are
/// sniffed by magic (per `fmt`): `psdp-bin-1` decodes through the verified
/// binary reader, text parses canonically and is hashed once, here.
fn command_request(
    obj: &JsonValue,
    command: &str,
    id: String,
    sources: &mut Sources,
    key: String,
    fmt: Format,
    load: impl FnOnce() -> Result<Vec<u8>, String>,
) -> Result<ServeRequest, String> {
    let family = if command == "mixed" { Family::Mixed } else { Family::Packing };
    let (payload, content_hash) = match sources.entry((family, key)) {
        Entry::Occupied(hit) => hit.get().clone(),
        Entry::Vacant(slot) => {
            let bytes = load()?;
            let binary = fmt.wants_binary(&bytes)?;
            let loaded =
                InstancePayload::decode(family, &bytes, binary).map_err(|e| e.to_string())?;
            slot.insert(loaded).clone()
        }
    };
    let eps = get_f64(obj, "eps", 0.1)?;
    let kind = match command {
        "solve" => {
            let threshold = get_f64(obj, "threshold", 1.0)?;
            let seed = get_u64(obj, "seed", 0)?;
            let engine = crate::commands::engine_of(get_str(obj, "engine", "exact")?, eps)?;
            let mode = match get_str(obj, "mode", "practical")? {
                "practical" => ConstantsMode::practical_default(),
                "strict" => ConstantsMode::PaperStrict,
                other => return Err(format!("unknown mode `{other}` (practical|strict)")),
            };
            let mut opts = DecisionOptions::practical(eps).with_engine(engine).with_seed(seed);
            opts.mode = mode;
            RequestKind::Decision { threshold, opts }
        }
        "optimize" => {
            let mut opts = ApproxOptions::practical(eps);
            opts.warm_start = get_bool(obj, "warm", true)?;
            RequestKind::Optimize { opts }
        }
        "mixed" => {
            let seed = get_u64(obj, "seed", 0)?;
            let engine = crate::commands::engine_of(get_str(obj, "engine", "exact")?, eps)?;
            let mut opts = MixedApproxOptions::practical(eps);
            opts.warm_start = get_bool(obj, "warm", true)?;
            opts.decision = opts.decision.with_engine(engine).with_seed(seed);
            RequestKind::Mixed { opts }
        }
        // Already rejected by the `allowed_keys` check; keep the typed
        // error anyway so this match can never panic as commands evolve.
        other => return Err(format!("unknown command `{other}` (solve|optimize|mixed)")),
    };
    Ok(ServeRequest { id, payload, kind, content_hash })
}

/// Parse one request line. On failure returns `(best-effort id, message)`
/// so the error response can still be keyed.
fn parse_request_line(raw: &str, fmt: Format, sources: &mut Sources) -> Parsed {
    let obj = parse(raw).map_err(|e| (None, e.to_string()))?;
    let (id, command) = id_and_command(&obj, false)?;
    let fail = |msg: String| (Some(id.clone()), msg);

    // Instance source: exactly one of `file` / `instance` (inline text).
    // Loading is deferred so repeat sources (the common zipf case) hit the
    // parsed-instance cache without re-reading the file; a source repeated
    // within one batch therefore also consistently uses the first parse.
    // Files are read as raw bytes and sniffed: a `.psdpb` file flows
    // through the binary reader, anything else parses as canonical text.
    let file = obj.get("file").and_then(JsonValue::as_str);
    let inline = obj.get("instance").and_then(JsonValue::as_str);
    let (source_key, file_json) = match (file, inline) {
        (Some(path), None) => (format!("file:{path}"), json_str(path)),
        (None, Some(text)) => (format!("inline:{text}"), "null".to_string()),
        (Some(_), Some(_)) => {
            return Err(fail("give either `file` or `instance`, not both".to_string()))
        }
        (None, None) => return Err(fail("missing `file` or `instance`".to_string())),
    };
    let load = || match file {
        Some(path) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}")),
        None => Ok(inline.unwrap_or_default().as_bytes().to_vec()),
    };

    let request = command_request(&obj, &command, id.clone(), sources, source_key, fmt, load)
        .map_err(fail)?;
    Ok((request, file_json))
}

/// Parse one binary frame payload: a `u32` LE JSON-header length, the
/// JSON header (same schema as a text request, minus `file`/`instance`),
/// then the instance as `psdp-bin-1` bytes. The source cache is keyed by
/// the FNV-1a of the **raw instance bytes**, so a repeated frame body
/// skips decoding entirely — while the serve fingerprint still comes from
/// the decoded content hash, which the first decode verified against the
/// header and trailer (a forged header hash on different bytes can
/// therefore never alias a cached instance).
fn parse_frame_request(frame: &[u8], sources: &mut Sources) -> Parsed {
    let header: [u8; 4] = frame
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .ok_or((None, "binary frame shorter than its JSON length prefix".to_string()))?;
    let json_len = u32::from_le_bytes(header) as usize;
    let json_end = 4usize.saturating_add(json_len);
    let json_bytes = frame.get(4..json_end).ok_or((
        None,
        format!("frame JSON length {json_len} overruns the {}-byte frame", frame.len()),
    ))?;
    let inst_bytes = frame.get(json_end..).unwrap_or(&[]);
    let raw = std::str::from_utf8(json_bytes)
        .map_err(|_| (None, "frame JSON header is not UTF-8".to_string()))?;
    let obj = parse(raw).map_err(|e| (None, e.to_string()))?;
    let (id, command) = id_and_command(&obj, true)?;
    let fail = |msg: String| (Some(id.clone()), msg);

    if !is_binary_instance(inst_bytes) {
        return Err(fail("frame instance is not psdp-bin-1 (bad magic or version)".to_string()));
    }
    let source_key = format!("bin:{:016x}", fnv1a(inst_bytes));

    let load = || Ok(inst_bytes.to_vec());
    let request =
        command_request(&obj, &command, id.clone(), sources, source_key, Format::Bin, load)
            .map_err(fail)?;
    Ok((request, "null".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_core::{write_instance, PackingInstance};
    use psdp_sparse::PsdMatrix;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn inline_packing() -> String {
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 4.0]),
        ])
        .unwrap();
        write_instance(&inst).replace('\n', "\\n")
    }

    #[test]
    fn serve_answers_inline_requests_in_order() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"b\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             {{\"id\":\"a\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5,\"eps\":0.2}}\n"
        );
        let run = serve_on_input(&args(&["serve"]), &input).unwrap();
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 2);
        // Submission order preserved; ids attached.
        assert!(lines[0].starts_with("{\"id\":\"b\",\"command\":\"optimize\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":\"a\",\"command\":\"solve\""), "{}", lines[1]);
        assert!(lines[0].contains("\"converged\":true"), "{}", lines[0]);
        assert!(lines[0].contains("\"wall_ms\":null"), "{}", lines[0]);
        assert!(lines[1].contains("\"serve\":{"), "{}", lines[1]);
        assert!(run.summary.contains("2 requests"), "{}", run.summary);
    }

    #[test]
    fn malformed_lines_become_error_responses() {
        let text = inline_packing();
        let input = format!(
            "not json at all\n\
             {{\"id\":\"x\",\"command\":\"warp\",\"instance\":\"{text}\"}}\n\
             {{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n\
             {{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n\
             {{\"id\":\"y\",\"command\":\"solve\",\"instance\":\"psdp 1 garbage\"}}\n\
             {{\"id\":\"z\",\"command\":\"solve\",\"instance\":\"{text}\",\"epz\":0.1}}\n"
        );
        let run = serve_on_input(&args(&["serve"]), &input).unwrap();
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with("{\"id\":null,\"error\":"), "{}", lines[0]);
        assert!(lines[1].contains("unknown command"), "{}", lines[1]);
        assert!(lines[2].contains("\"command\":\"solve\""), "{}", lines[2]);
        assert!(lines[3].contains("duplicate request id"), "{}", lines[3]);
        assert!(lines[4].contains("\"error\":"), "{}", lines[4]);
        assert!(lines[5].contains("unknown field `epz`"), "{}", lines[5]);
    }

    #[test]
    fn serve_output_is_deterministic_and_cache_value_neutral() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"r1\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             {{\"id\":\"r2\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             {{\"id\":\"r3\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.7}}\n"
        );
        let a = serve_on_input(&args(&["serve"]), &input).unwrap();
        let b = serve_on_input(&args(&["serve"]), &input).unwrap();
        assert_eq!(a.stdout, b.stdout, "serve stdout must be deterministic");
        // Cached vs cold: the `serve` telemetry differs (that is the
        // point), but the result payloads must be byte-identical.
        let cold = serve_on_input(&args(&["serve", "--cache", "off"]), &input).unwrap();
        let strip = |s: &str| -> Vec<String> {
            s.lines().map(|l| l.split(",\"serve\":{").next().unwrap().to_string()).collect()
        };
        assert_eq!(strip(&a.stdout), strip(&cold.stdout));
        assert!(a.stdout.contains("\"memoized\":true"), "{}", a.stdout);
        assert!(!cold.stdout.contains("\"memoized\":true"), "{}", cold.stdout);
    }

    /// Run `input` through the one-shot path with `opts`, and check every
    /// line of the replaying renderer against a from-scratch render of
    /// the same scheduler output. Returns the lines.
    fn replay_matches_uncached(input: &str, opts: SchedulerOptions) -> Vec<String> {
        let reader = |input| RequestReader::new(input, Format::Auto, DEFAULT_MAX_LINE_BYTES);
        let mut replayed: Vec<u8> = Vec::new();
        run_one_shot(reader(input.as_bytes()), opts, &mut replayed).unwrap();
        let (mut ctxs, mut requests) = (Vec::new(), Vec::new());
        let mut items = reader(input.as_bytes());
        while let Some(item) = items.next_item().unwrap() {
            let StreamItem::Execute { request, ctx } = item else { panic!("every line parses") };
            requests.push(request);
            ctxs.push(ctx);
        }
        let out = Scheduler::new(opts).run_batch(&requests).unwrap();
        let uncached: String = ctxs
            .iter()
            .zip(out.responses)
            .map(|(c, r)| render_outcome(c, &StreamOutcome::Response(Box::new(r)), None))
            .collect();
        let replayed = String::from_utf8(replayed).unwrap();
        assert_eq!(replayed, uncached, "replayed bytes differ from a fresh render");
        replayed.lines().map(str::to_string).collect()
    }

    /// The result fields of a line: everything between `file` and `serve`.
    fn fields_of(line: &str) -> &str {
        let from = line.find(",\"file\":").unwrap();
        let to = line.rfind(",\"serve\":").unwrap();
        &line[from..to]
    }

    #[test]
    fn memo_replay_renders_the_same_bytes() {
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0, 1.0]),
            PsdMatrix::Diagonal(vec![0.0, 4.0, 1.0]),
            PsdMatrix::Diagonal(vec![1.0, 1.0, 3.0]),
        ])
        .unwrap();
        let path =
            std::env::temp_dir().join(format!("psdp-serve-replay-{}.psdp", std::process::id()));
        std::fs::write(&path, write_instance(&inst)).unwrap();
        let file = crate::jsonfmt::json_str(&path.to_string_lossy());
        let text = write_instance(&inst).replace('\n', "\\n");
        // Repeats of each request, some naming the instance by file: a hit
        // replays the stored fields under its own id, file and telemetry.
        let input = format!(
            "{{\"id\":\"a1\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.2}}\n\
             {{\"id\":\"a2\",\"command\":\"optimize\",\"file\":{file},\"eps\":0.2}}\n\
             {{\"id\":\"a3\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.2}}\n\
             {{\"id\":\"b1\",\"command\":\"solve\",\"file\":{file},\"threshold\":0.5}}\n\
             {{\"id\":\"b2\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5}}\n\
             {{\"id\":\"c1\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":3.0}}\n\
             {{\"id\":\"c2\",\"command\":\"solve\",\"file\":{file},\"threshold\":3.0}}\n"
        );
        let lines = replay_matches_uncached(&input, SchedulerOptions::default());
        let _ = std::fs::remove_file(&path);
        assert_eq!(lines.iter().filter(|l| l.contains("\"memoized\":true")).count(), 4);
        assert!(lines[1].contains(&format!("\"file\":{file},")), "{}", lines[1]);
        assert!(lines[0].contains("\"file\":null,"), "{}", lines[0]);
        assert_eq!(
            fields_of(&lines[0]).strip_prefix(",\"file\":null"),
            fields_of(&lines[1]).strip_prefix(&format!(",\"file\":{file}")),
        );
    }

    #[test]
    fn full_memo_recomputes_instead_of_replaying_by_parameters() {
        let text = inline_packing();
        // With one memo slot, `a` is stored and everything else is solved.
        // `c` continues from `a`'s bracket. `d` repeats `c`'s parameters, so
        // no bracket is injected and it bisects from scratch: a different
        // result under the same parameters.
        let input = format!(
            "{{\"id\":\"a\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.1}}\n\
             {{\"id\":\"b\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5}}\n\
             {{\"id\":\"c\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.3}}\n\
             {{\"id\":\"d\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.3}}\n"
        );
        let opts = SchedulerOptions { memo_per_entry: 1, ..SchedulerOptions::default() };
        let lines = replay_matches_uncached(&input, opts);
        assert!(!lines.iter().any(|l| l.contains("\"memoized\":true")), "{lines:?}");
        assert!(lines[2].contains("\"bracket_injected\":true"), "{}", lines[2]);
        assert_ne!(fields_of(&lines[2]), fields_of(&lines[3]), "equal parameters, new result");
    }

    #[test]
    fn mixed_requests_serve_end_to_end() {
        let inst = psdp_core::MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
        )
        .unwrap();
        let text = psdp_core::write_mixed_instance(&inst).replace('\n', "\\n");
        let input =
            format!("{{\"id\":\"m\",\"command\":\"mixed\",\"instance\":\"{text}\",\"eps\":0.1}}\n");
        let run = serve_on_input(&args(&["serve"]), &input).unwrap();
        let line = run.stdout.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":\"m\",\"command\":\"mixed\""), "{line}");
        assert!(line.contains("\"threshold_lower\":"), "{line}");
        assert!(line.contains("\"best_point\":{"), "{line}");
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(serve_on_input(&args(&["serve", "--cache", "sideways"]), "").is_err());
        assert!(serve_on_input(&args(&["serve", "--max-inflight", "2"]), "").is_err());
        assert!(
            serve_listen_on_input(&args(&["serve", "--listen", "--cache", "maybe"]), "").is_err()
        );
        assert!(serve_listen_on_input(&args(&["serve", "--listen", "--max-in-flight", "2"]), "")
            .is_err());
    }

    #[test]
    fn oversized_lines_error_in_place_without_buffering() {
        let text = inline_packing();
        let big = "x".repeat(512);
        let input = format!(
            "{{\"id\":\"pad\",\"junk\":\"{big}\"}}\n\
             {{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n"
        );
        for run in [
            serve_on_input(&args(&["serve", "--max-line-bytes", "256"]), &input).unwrap(),
            serve_listen_on_input(&args(&["serve", "--listen", "--max-line-bytes", "256"]), &input)
                .unwrap(),
        ] {
            let lines: Vec<&str> = run.stdout.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(lines[0].contains("exceeds --max-line-bytes"), "{}", lines[0]);
            assert!(lines[1].contains("\"id\":\"ok\",\"command\":\"solve\""), "{}", lines[1]);
        }
        // The stream resyncs at the newline: the request after the huge
        // line is untouched even when the bound is far below the line.
        let run =
            serve_listen_on_input(&args(&["serve", "--listen", "--max-line-bytes", "64"]), &input)
                .unwrap();
        assert!(run.stdout.lines().count() == 2, "{}", run.stdout);
    }

    #[test]
    fn listen_streams_in_submission_order_with_in_place_errors() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"b\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             not json at all\n\
             {{\"id\":\"b\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n\
             \n\
             {{\"id\":\"a\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5,\"eps\":0.2}}\n"
        );
        let run = serve_listen_on_input(&args(&["serve", "--listen"]), &input).unwrap();
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 4, "{}", run.stdout);
        assert!(lines[0].starts_with("{\"id\":\"b\",\"command\":\"optimize\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":null,\"error\":"), "{}", lines[1]);
        assert!(lines[2].contains("duplicate request id"), "{}", lines[2]);
        assert!(lines[3].starts_with("{\"id\":\"a\",\"command\":\"solve\""), "{}", lines[3]);
        assert!(run.summary.contains("listen: 4 requests"), "{}", run.summary);
        assert!(run.summary.contains("latency service"), "{}", run.summary);
    }

    #[test]
    fn listen_matches_one_shot_payloads_and_shard_count_is_invisible() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"r1\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             {{\"id\":\"r2\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n\
             {{\"id\":\"r3\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.7}}\n\
             {{\"id\":\"r4\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5,\"engine\":\"expv\"}}\n\
             {{\"id\":\"r5\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.6,\"engine\":\"expv\"}}\n"
        );
        let one_shot = serve_on_input(&args(&["serve"]), &input).unwrap();
        let listen = serve_listen_on_input(&args(&["serve", "--listen"]), &input).unwrap();
        // Same cache tiers in both modes: the whole response lines match,
        // `serve` telemetry included.
        assert_eq!(one_shot.stdout, listen.stdout);
        for shards in ["1", "3", "8"] {
            let other =
                serve_listen_on_input(&args(&["serve", "--listen", "--shards", shards]), &input)
                    .unwrap();
            assert_eq!(listen.stdout, other.stdout, "shards={shards}");
        }
    }

    /// Build one wire frame: marker, `u32` LE payload length, then
    /// `u32` LE JSON length + JSON + instance bytes.
    fn frame(json: &str, inst_bytes: &[u8]) -> Vec<u8> {
        let mut payload = (json.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(json.as_bytes());
        payload.extend_from_slice(inst_bytes);
        let mut out = vec![FRAME_MARKER];
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// `serve_listen_on_input` for byte streams (frames are not UTF-8).
    fn listen_on_bytes(args: &Args, input: &[u8]) -> ServeRun {
        run_on_bytes(input, |r, w| serve_listen_on(args, r, w)).unwrap()
    }

    /// Run `input` through `--listen` with `flags` and through one-shot
    /// with the same flags minus `--listen`: both must send the same
    /// bytes. Returns the `--listen` run.
    fn same_bytes_in_both_modes(flags: &[&str], input: &[u8]) -> ServeRun {
        let listen = listen_on_bytes(&args(flags), input);
        let one_shot_flags: Vec<&str> =
            flags.iter().copied().filter(|f| *f != "--listen").collect();
        let one_shot = run_on_bytes(input, |r, w| serve_on(&args(&one_shot_flags), r, w)).unwrap();
        assert_eq!(one_shot.stdout, listen.stdout, "one-shot bytes must equal --listen bytes");
        listen
    }

    #[test]
    fn binary_frames_match_text_submissions_bitwise() {
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 4.0]),
        ])
        .unwrap();
        let text = write_instance(&inst).replace('\n', "\\n");
        let bin = psdp_core::write_instance_bin(&inst);
        let text_input = format!(
            "{{\"id\":\"r1\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5}}\n"
        );
        let frame_input = frame("{\"id\":\"r1\",\"command\":\"solve\",\"threshold\":0.5}", &bin);
        let via_text = serve_listen_on_input(&args(&["serve", "--listen"]), &text_input).unwrap();
        let via_frame = same_bytes_in_both_modes(&["serve", "--listen"], &frame_input);
        // Same fingerprint, same cold-start telemetry: the whole response
        // line is byte-identical across the two encodings.
        assert_eq!(via_text.stdout, via_frame.stdout);

        // Within one stream, a frame after the equivalent text submission
        // lands in the same cache entry (the fingerprint is shared).
        let mut both = text_input.clone().into_bytes();
        both.extend_from_slice(&frame(
            "{\"id\":\"r2\",\"command\":\"solve\",\"threshold\":0.5}",
            &bin,
        ));
        let run = same_bytes_in_both_modes(&["serve", "--listen"], &both);
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{}", run.stdout);
        assert!(lines[1].contains("\"memoized\":true"), "{}", lines[1]);
    }

    #[test]
    fn mixed_frames_serve_end_to_end() {
        let inst = psdp_core::MixedInstance::new(
            vec![PsdMatrix::Diagonal(vec![2.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 2.0])],
            vec![PsdMatrix::Diagonal(vec![1.0, 0.0]), PsdMatrix::Diagonal(vec![0.0, 1.0])],
        )
        .unwrap();
        let bin = psdp_core::write_mixed_instance_bin(&inst);
        let input = frame("{\"id\":\"m\",\"command\":\"mixed\",\"eps\":0.1}", &bin);
        let run = listen_on_bytes(&args(&["serve", "--listen"]), &input);
        let line = run.stdout.lines().next().unwrap();
        assert!(line.starts_with("{\"id\":\"m\",\"command\":\"mixed\""), "{line}");
        assert!(line.contains("\"threshold_lower\":"), "{line}");
    }

    #[test]
    fn oversized_frames_discard_and_resync() {
        let text = inline_packing();
        let junk = vec![0x7fu8; 512];
        let mut input = vec![FRAME_MARKER];
        input.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        input.extend_from_slice(&junk);
        input.extend_from_slice(
            format!("{{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n").as_bytes(),
        );
        let run =
            same_bytes_in_both_modes(&["serve", "--listen", "--max-line-bytes", "256"], &input);
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{}", run.stdout);
        // The oversized payload is consumed to its declared length and
        // dropped; the next request is untouched.
        assert!(lines[0].contains("binary frame exceeds --max-line-bytes"), "{}", lines[0]);
        assert!(lines[1].contains("\"id\":\"ok\",\"command\":\"solve\""), "{}", lines[1]);
    }

    #[test]
    fn malformed_frames_error_in_place() {
        let inst = PackingInstance::new(vec![PsdMatrix::Diagonal(vec![2.0])]).unwrap();
        let bin = psdp_core::write_instance_bin(&inst);
        let text = inline_packing();
        let mut input: Vec<u8> = Vec::new();
        // Truncated: declares 100 payload bytes, stream has only a few.
        let mut truncated = vec![FRAME_MARKER];
        truncated.extend_from_slice(&100u32.to_le_bytes());
        truncated.extend_from_slice(b"short");
        // Text instance where psdp-bin-1 bytes are required.
        let not_bin = frame("{\"id\":\"nb\",\"command\":\"solve\"}", b"psdp 1\n");
        // `instance` field is banned inside a frame.
        let banned = frame(
            &format!("{{\"id\":\"bf\",\"command\":\"solve\",\"instance\":\"{text}\"}}"),
            &bin,
        );
        input.extend_from_slice(&not_bin);
        input.extend_from_slice(&banned);
        input.extend_from_slice(&truncated);
        let run = same_bytes_in_both_modes(&["serve", "--listen"], &input);
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{}", run.stdout);
        assert!(lines[0].contains("not psdp-bin-1"), "{}", lines[0]);
        assert!(lines[1].contains("not allowed in a binary frame"), "{}", lines[1]);
        assert!(lines[2].contains("truncated binary frame"), "{}", lines[2]);
    }

    #[test]
    fn invalid_utf8_lines_error_in_place_in_both_modes() {
        let text = inline_packing();
        let request = |id: &str| {
            format!("{{\"id\":\"{id}\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n")
        };
        let mut input = request("a").into_bytes();
        input.extend_from_slice(b"{\"id\":\xff\xfe not utf-8\n");
        input.extend_from_slice(request("b").as_bytes());
        let run = same_bytes_in_both_modes(&["serve", "--listen"], &input);
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{}", run.stdout);
        assert!(lines[0].starts_with("{\"id\":\"a\",\"command\":\"solve\""), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":null,\"error\":"), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"id\":\"b\",\"command\":\"solve\""), "{}", lines[2]);
    }

    #[test]
    fn binary_instance_files_are_sniffed_by_magic() {
        let inst = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![2.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 4.0]),
        ])
        .unwrap();
        let dir = std::env::temp_dir();
        let bin_path = dir.join(format!("psdp-serve-sniff-{}.psdpb", std::process::id()));
        std::fs::write(&bin_path, psdp_core::write_instance_bin(&inst)).unwrap();
        let text = write_instance(&inst).replace('\n', "\\n");
        let input = format!(
            "{{\"id\":\"t\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5}}\n\
             {{\"id\":\"b\",\"command\":\"solve\",\"file\":{},\"threshold\":0.5}}\n",
            crate::jsonfmt::json_str(&bin_path.to_string_lossy()),
        );
        let run = serve_on_input(&args(&["serve"]), &input).unwrap();
        let lines: Vec<&str> = run.stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{}", run.stdout);
        // The binary file parses, solves, and shares the text request's
        // fingerprint: the two requests form one group, so exactly one of
        // them executed and the other was answered from the memo tier.
        assert!(lines[1].contains("\"command\":\"solve\""), "{}", run.stdout);
        assert!(run.stdout.contains("\"memoized\":true"), "{}", run.stdout);
        assert!(run.summary.contains("2 requests in 1 groups"), "{}", run.summary);
        let _ = std::fs::remove_file(&bin_path);
    }

    #[test]
    fn listen_snapshot_roundtrip_warms_the_cache() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"r1\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n"
        );
        let path =
            std::env::temp_dir().join(format!("psdp-listen-snap-{}.txt", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        let cold =
            serve_listen_on_input(&args(&["serve", "--listen", "--snapshot", &path_s]), &input)
                .unwrap();
        assert!(cold.summary.contains("not readable; starting cold"), "{}", cold.summary);
        assert!(cold.summary.contains("snapshot: saved 1 fingerprints"), "{}", cold.summary);
        let warm =
            serve_listen_on_input(&args(&["serve", "--listen", "--snapshot", &path_s]), &input)
                .unwrap();
        assert!(warm.summary.contains("warm-loaded 1 fingerprints"), "{}", warm.summary);
        assert!(warm.summary.contains("1 prep reuses"), "{}", warm.summary);
        assert!(warm.summary.contains("0 prep builds"), "{}", warm.summary);
        // Warm start changes only the telemetry, never the payload.
        let strip = |s: &str| -> Vec<String> {
            s.lines().map(|l| l.split(",\"serve\":{").next().unwrap().to_string()).collect()
        };
        assert_eq!(strip(&cold.stdout), strip(&warm.stdout));
        assert!(warm.stdout.contains("\"tier\":\"prepared\""), "{}", warm.stdout);
        // A corrupted snapshot degrades to a cold start, never a failure.
        std::fs::write(&path, "psdp snapshot v1\nentries 1\ngarbage\n").unwrap();
        let recovered =
            serve_listen_on_input(&args(&["serve", "--listen", "--snapshot", &path_s]), &input)
                .unwrap();
        assert!(recovered.summary.contains("starting cold"), "{}", recovered.summary);
        assert_eq!(recovered.stdout, cold.stdout);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_rotation_keeps_generations_and_recovers_torn_live() {
        let text = inline_packing();
        let input = format!(
            "{{\"id\":\"r1\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n"
        );
        let path = std::env::temp_dir().join(format!("psdp-listen-rot-{}.txt", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        let gen1 = format!("{path_s}.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&gen1);
        let flags = ["serve", "--listen", "--snapshot", &path_s, "--snapshot-keep", "2"];
        let first = serve_listen_on_input(&args(&flags), &input).unwrap();
        assert!(first.summary.contains("saved 1 fingerprints"), "{}", first.summary);
        assert!(!std::path::Path::new(&gen1).exists(), "nothing to rotate on the first save");
        let second = serve_listen_on_input(&args(&flags), &input).unwrap();
        assert!(second.summary.contains("warm-loaded 1 fingerprints"), "{}", second.summary);
        assert!(std::path::Path::new(&gen1).exists(), "second save rotates the first into .1");
        // Tear the live file: the loader falls back to the intact rotated
        // generation instead of silently starting cold.
        std::fs::write(&path, "psdp snapshot v1\nentries 1\ngarbage\n").unwrap();
        let torn = serve_listen_on_input(&args(&flags), &input).unwrap();
        assert!(
            torn.summary.contains(&format!("warm-loaded 1 fingerprints from {gen1}")),
            "{}",
            torn.summary
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&gen1);
    }

    #[test]
    fn scan_leading_id_parses_prefixes_conservatively() {
        assert_eq!(scan_leading_id(b"{\"id\":\"abc\",\"x"), Some("abc".to_string()));
        assert_eq!(scan_leading_id(b"{ \"id\" : \"a\\\"b\" }"), Some("a\"b".to_string()));
        assert_eq!(scan_leading_id(b"{\"id\":\"trunc"), None, "id cut off by the bound");
        assert_eq!(scan_leading_id(b"{\"id\":42}"), None, "non-string ids fall back");
        assert_eq!(scan_leading_id(b"{\"x\":1}"), None);
        assert_eq!(scan_leading_id(b"{\"id\":\"u\\u0041\"}"), None, "exotic escapes fall back");
    }

    #[test]
    fn oversized_lines_recover_the_leading_id_when_it_fits_the_prefix() {
        let text = inline_packing();
        let big = "x".repeat(512);
        // id leads the line: it sits inside the retained prefix and the
        // typed error names it; junk-first puts the id past the
        // truncation point and the error falls back to null.
        let leading = format!(
            "{{\"id\":\"pad\",\"junk\":\"{big}\"}}\n\
             {{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n"
        );
        let trailing = format!(
            "{{\"junk\":\"{big}\",\"id\":\"late\"}}\n\
             {{\"id\":\"ok\",\"command\":\"solve\",\"instance\":\"{text}\"}}\n"
        );
        for (input, want) in
            [(&leading, "{\"id\":\"pad\",\"error\":"), (&trailing, "{\"id\":null,\"error\":")]
        {
            for run in [
                serve_on_input(&args(&["serve", "--max-line-bytes", "256"]), input).unwrap(),
                serve_listen_on_input(
                    &args(&["serve", "--listen", "--max-line-bytes", "256"]),
                    input,
                )
                .unwrap(),
            ] {
                let lines: Vec<&str> = run.stdout.lines().collect();
                assert_eq!(lines.len(), 2, "{}", run.stdout);
                assert!(lines[0].starts_with(want), "want {want}, got {}", lines[0]);
                assert!(lines[0].contains("exceeds --max-line-bytes"), "{}", lines[0]);
                assert!(lines[1].contains("\"id\":\"ok\",\"command\":\"solve\""), "{}", lines[1]);
            }
        }
    }

    #[test]
    fn overloaded_outcomes_render_through_the_shared_schema() {
        let ctx = LineCtx::Error { id_json: json_str("r9") };
        let routed = render_outcome(
            &ctx,
            &StreamOutcome::Overloaded { id: "r9".into(), shard: Some(3) },
            None,
        );
        assert_eq!(
            routed,
            "{\"id\":\"r9\",\"error\":\"overloaded\",\"overloaded\":true,\"shard\":3}\n"
        );
        assert_eq!(routed, crate::jsonfmt::overloaded_line("r9", Some(3)));
        let unrouted =
            render_outcome(&ctx, &StreamOutcome::Overloaded { id: "r9".into(), shard: None }, None);
        assert_eq!(unrouted, crate::jsonfmt::overloaded_line("r9", None));
        assert!(unrouted.ends_with("\"shard\":null}\n"), "{unrouted}");
    }

    #[test]
    fn socket_round_trip_matches_stdin_bytes() {
        use std::io::Read as _;
        let text = inline_packing();
        let other = PackingInstance::new(vec![
            PsdMatrix::Diagonal(vec![3.0, 0.0]),
            PsdMatrix::Diagonal(vec![0.0, 5.0]),
        ])
        .unwrap();
        let text2 = write_instance(&other).replace('\n', "\\n");
        // Disjoint per-client fingerprints: cross-client cache traffic
        // cannot perturb either client's telemetry vs its stdin run.
        let inputs = [
            format!(
                "{{\"id\":\"c0a\",\"command\":\"solve\",\"instance\":\"{text}\",\"threshold\":0.5}}\n\
                 {{\"id\":\"c0b\",\"command\":\"optimize\",\"instance\":\"{text}\",\"eps\":0.15}}\n"
            ),
            format!(
                "{{\"id\":\"c1a\",\"command\":\"solve\",\"instance\":\"{text2}\",\"threshold\":0.5}}\n\
                 not json at all\n"
            ),
        ];
        let listener =
            psdp_serve::Listener::bind(&psdp_serve::BindAddr::parse("tcp:127.0.0.1:0").unwrap())
                .unwrap();
        let addr = listener.local_addr_string().strip_prefix("tcp:").map(str::to_string).unwrap();
        let sargs = args(&["serve", "--listen", "--shards", "2", "--max-clients", "2"]);
        let server = std::thread::spawn(move || serve_listen_socket_on(&sargs, listener));
        let clients: Vec<_> = inputs
            .iter()
            .cloned()
            .map(|input| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(&addr).unwrap();
                    s.write_all(input.as_bytes()).unwrap();
                    s.shutdown(std::net::Shutdown::Write).unwrap();
                    let mut out = String::new();
                    s.read_to_string(&mut out).unwrap();
                    out
                })
            })
            .collect();
        let got: Vec<String> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("listen: 4 requests"), "{summary}");
        for (input, got) in inputs.iter().zip(&got) {
            let reference =
                serve_listen_on_input(&args(&["serve", "--listen", "--shards", "2"]), input)
                    .unwrap();
            assert_eq!(&reference.stdout, got, "socket bytes must match stdin bytes");
        }
    }
}
