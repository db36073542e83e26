//! Reproducibility guarantees: identical seeds ⇒ identical outputs, and
//! results are thread-count independent. The reductions everywhere in the
//! workspace are deterministic in *shape* (fixed chunking, order-preserving
//! buffer concatenation, per-item independent work), so full reports are
//! asserted **bitwise** identical across rayon pool sizes {1, 4} — the
//! same two-entry matrix CI runs via `RAYON_NUM_THREADS`.

use psdp_core::{
    decision_psdp, solve_mixed, solve_packing, verify_dual, verify_mixed_feasible, ApproxOptions,
    DecisionOptions, EngineKind, MixedApproxOptions, MixedInstance, MixedSolver, Outcome,
    PackingInstance, Solver,
};
use psdp_parallel::run_with_threads;
use psdp_sparse::PsdMatrix;
use psdp_test_support::{factorized_instance, FactorizedSpec};
use psdp_workloads::{
    beamforming_sdp, gnp, mixed_edge_cover, mixed_lp_diagonal, random_factorized, Beamforming,
    RandomFactorized,
};

fn instance(seed: u64) -> PackingInstance {
    factorized_instance(&FactorizedSpec::new(10, 6, seed))
}

/// Bitwise-identical solves for identical configuration (exact engine: no
/// randomness at all; sketched engine: seeded sketches).
#[test]
fn identical_runs_identical_outputs() {
    let inst = instance(17);
    for kind in [
        EngineKind::Exact,
        EngineKind::TaylorJl { eps: 0.2, sketch_const: 4.0 },
        EngineKind::Expv { eps: 0.2 },
    ] {
        let opts = DecisionOptions::practical(0.2).with_engine(kind).with_seed(9);
        let a = decision_psdp(&inst, &opts).unwrap();
        let b = decision_psdp(&inst, &opts).unwrap();
        assert_eq!(a.stats.iterations, b.stats.iterations, "{kind:?}");
        match (&a.outcome, &b.outcome) {
            (Outcome::Dual(x), Outcome::Dual(y)) => assert_eq!(x.x, y.x, "{kind:?}"),
            (Outcome::Primal(x), Outcome::Primal(y)) => {
                assert_eq!(x.constraint_dots, y.constraint_dots, "{kind:?}")
            }
            _ => panic!("{kind:?}: outcome side differed between identical runs"),
        }
    }
}

/// Different sketch seeds may change the trajectory but never the
/// certificate validity.
#[test]
fn sketch_seed_never_breaks_certificates() {
    let inst = instance(23);
    for seed in 0..6u64 {
        let opts = DecisionOptions::practical(0.2)
            .with_engine(EngineKind::TaylorJl { eps: 0.2, sketch_const: 4.0 })
            .with_seed(seed);
        let res = decision_psdp(&inst, &opts).unwrap();
        if let Outcome::Dual(d) = &res.outcome {
            assert!(verify_dual(&inst, d, 1e-7).feasible, "seed {seed}");
        }
    }
}

/// Thread count must not change the certified outcome (the reductions are
/// deterministic in shape; tiny float reassociation differences stay within
/// certificate tolerance).
#[test]
fn thread_count_invariant_certificates() {
    let inst = instance(31);
    let opts = DecisionOptions::practical(0.2);
    let r1 = run_with_threads(1, || decision_psdp(&inst, &opts).unwrap());
    let r2 = run_with_threads(2, || decision_psdp(&inst, &opts).unwrap());
    assert_eq!(r1.stats.iterations, r2.stats.iterations);
    match (&r1.outcome, &r2.outcome) {
        (Outcome::Dual(a), Outcome::Dual(b)) => {
            assert!((a.value - b.value).abs() < 1e-9 * a.value.max(1.0));
            assert!(verify_dual(&inst, a, 1e-7).feasible);
            assert!(verify_dual(&inst, b, 1e-7).feasible);
        }
        (Outcome::Primal(a), Outcome::Primal(b)) => {
            assert!((a.min_dot - b.min_dot).abs() < 1e-9 * a.min_dot.max(1.0));
        }
        _ => panic!("outcome side changed with thread count"),
    }
}

/// `Session::optimize` must be **bitwise** thread-count invariant: every
/// parallel reduction in the stack (chunked `weighted_sum`, order-preserving
/// Ψ scatter buffers, per-constraint engine dots) is deterministic in shape,
/// so pool size {1, 4} must reproduce the entire report bit for bit —
/// bracket, certificates, and per-call stats.
#[test]
fn session_optimize_bitwise_across_thread_counts() {
    for seed in [5u64, 31] {
        let inst = instance(seed);
        let opts = ApproxOptions::practical(0.15);
        let r1 = run_with_threads(1, || solve_packing(&inst, &opts).unwrap());
        let r4 = run_with_threads(4, || solve_packing(&inst, &opts).unwrap());
        assert_eq!(r1.value_lower.to_bits(), r4.value_lower.to_bits(), "seed {seed}");
        assert_eq!(r1.value_upper.to_bits(), r4.value_upper.to_bits(), "seed {seed}");
        assert_eq!(r1.decision_calls, r4.decision_calls, "seed {seed}");
        assert_eq!(r1.total_iterations, r4.total_iterations, "seed {seed}");
        assert_eq!(r1.total_engine_evals, r4.total_engine_evals, "seed {seed}");
        match (&r1.best_dual, &r4.best_dual) {
            (Some(a), Some(b)) => {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "seed {seed}");
                assert_eq!(a.x, b.x, "seed {seed}: dual vectors diverged across pools");
            }
            (None, None) => {}
            _ => panic!("seed {seed}: dual presence changed with thread count"),
        }
        for (a, b) in r1.call_stats.iter().zip(&r4.call_stats) {
            assert_eq!(a.iterations, b.iterations, "seed {seed}");
            assert_eq!(a.final_norm1.to_bits(), b.final_norm1.to_bits(), "seed {seed}");
        }
    }
}

/// The same bitwise pool-width guarantee for `Session::optimize` under the
/// Krylov/Chebyshev expm-action engine: its blocked-GEMM block applies,
/// per-column Lanczos sweeps, and trace probes all decompose work in fixed
/// shapes, so the whole bisection must reproduce bit for bit.
#[test]
fn session_optimize_bitwise_across_thread_counts_expv() {
    for seed in [5u64, 31] {
        let inst = instance(seed);
        let mut opts = ApproxOptions::practical(0.15);
        opts.decision = opts.decision.with_engine(EngineKind::Expv { eps: 0.2 }).with_seed(9);
        let r1 = run_with_threads(1, || solve_packing(&inst, &opts).unwrap());
        let r4 = run_with_threads(4, || solve_packing(&inst, &opts).unwrap());
        assert_eq!(r1.value_lower.to_bits(), r4.value_lower.to_bits(), "seed {seed}");
        assert_eq!(r1.value_upper.to_bits(), r4.value_upper.to_bits(), "seed {seed}");
        assert_eq!(r1.decision_calls, r4.decision_calls, "seed {seed}");
        assert_eq!(r1.total_iterations, r4.total_iterations, "seed {seed}");
        match (&r1.best_dual, &r4.best_dual) {
            (Some(a), Some(b)) => {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "seed {seed}");
                assert_eq!(a.x, b.x, "seed {seed}: dual vectors diverged across pools");
            }
            (None, None) => {}
            _ => panic!("seed {seed}: dual presence changed with thread count"),
        }
    }
}

/// The mixed solver gets the same bitwise guarantee across pools, on both
/// the diagonal-embedded LP family and the sparse graph family (the latter
/// exercises the CSR scatter and sparse `weighted_sum` paths).
#[test]
fn mixed_solver_bitwise_across_thread_counts() {
    let instances = [mixed_lp_diagonal(5, 4, 6, 0.6, 3), mixed_edge_cover(&gnp(8, 0.6, 2), 0.5)];
    // Default (exact) packing engine on the first pass, the expm-action
    // engine on the second: both must be pool-width invariant.
    let mut expv = MixedApproxOptions::practical(0.15);
    expv.decision = expv.decision.with_engine(EngineKind::Expv { eps: 0.2 });
    for opts in [MixedApproxOptions::practical(0.15), expv] {
        for (i, inst) in instances.iter().enumerate() {
            let r1 = run_with_threads(1, || solve_mixed(inst, &opts).unwrap());
            let r4 = run_with_threads(4, || solve_mixed(inst, &opts).unwrap());
            assert_eq!(r1.threshold_lower.to_bits(), r4.threshold_lower.to_bits(), "inst {i}");
            assert_eq!(r1.threshold_upper.to_bits(), r4.threshold_upper.to_bits(), "inst {i}");
            assert_eq!(r1.decision_calls, r4.decision_calls, "inst {i}");
            assert_eq!(r1.total_iterations, r4.total_iterations, "inst {i}");
            match (&r1.best_point, &r4.best_point) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.cover_lambda_min.to_bits(),
                        b.cover_lambda_min.to_bits(),
                        "inst {i}"
                    );
                    assert_eq!(a.x, b.x, "inst {i}: witness diverged across pools");
                }
                (None, None) => {}
                _ => panic!("inst {i}: witness presence changed with thread count"),
            }
            match (&r1.infeasibility_witness, &r4.infeasibility_witness) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "inst {i}");
                    assert_eq!(a.sigma.to_bits(), b.sigma.to_bits(), "inst {i}");
                }
                (None, None) => {}
                _ => panic!("inst {i}: infeasibility witness presence changed with thread count"),
            }
        }
    }
}

/// Build the serving suite's JSONL batch: a zipf-repeated decision/
/// optimize stream over inline packing instances plus one mixed request.
fn serve_batch_jsonl() -> String {
    use psdp_cli::jsonfmt::json_str;
    let (instances, stream) = psdp_workloads::request_stream(&psdp_workloads::RequestStreamSpec {
        pool: 3,
        requests: 8,
        dim: 8,
        n: 5,
        zipf_s: 1.1,
        thresholds: 2,
        seed: 7,
    });
    let texts: Vec<String> = instances.iter().map(psdp_core::write_instance).collect();
    let mut lines = Vec::new();
    for (i, r) in stream.iter().enumerate() {
        if i % 4 == 3 {
            lines.push(format!(
                "{{\"id\":{},\"command\":\"optimize\",\"instance\":{},\"eps\":0.2}}",
                json_str(&r.id),
                json_str(&texts[r.instance]),
            ));
        } else {
            lines.push(format!(
                "{{\"id\":{},\"command\":\"solve\",\"instance\":{},\"threshold\":{},\"eps\":0.2}}",
                json_str(&r.id),
                json_str(&texts[r.instance]),
                r.threshold,
            ));
        }
    }
    let mixed = mixed_lp_diagonal(4, 3, 5, 0.6, 3);
    lines.push(format!(
        "{{\"id\":\"mix001\",\"command\":\"mixed\",\"instance\":{},\"eps\":0.2}}",
        json_str(&psdp_core::write_mixed_instance(&mixed)),
    ));
    lines.join("\n") + "\n"
}

fn run_serve(input: &str) -> String {
    let args = psdp_cli::args::Args::parse(&["serve".to_string()]).unwrap();
    psdp_cli::serve::serve_on_input(&args, input).expect("serve runs").stdout
}

/// The scheduler's full JSONL response stream must be **bitwise** identical
/// across rayon pool sizes {1, 4} — same CI thread matrix as the solver
/// suites. Response lines carry no wall-clock fields (`wall_ms` is null in
/// serve mode), so the comparison is over every byte the server emits.
#[test]
fn serve_responses_bitwise_across_thread_counts() {
    let input = serve_batch_jsonl();
    let out1 = run_with_threads(1, || run_serve(&input));
    let out4 = run_with_threads(4, || run_serve(&input));
    assert_eq!(out1, out4, "serve stream changed with pool size");
    // Sanity: the batch actually exercised the cache.
    assert!(out1.contains("\"memoized\":true") || out1.contains("\"prep_reused\":true"), "{out1}");
}

/// Shuffling submission order must not change any response keyed by its
/// id: same-fingerprint requests execute in id order regardless of where
/// they sit in the stream, so per-request stats (engine evals, memo hits)
/// cannot leak submission order.
#[test]
fn serve_responses_bitwise_across_submission_orders() {
    let input = serve_batch_jsonl();
    let mut lines: Vec<&str> = input.lines().collect();
    let forward = run_serve(&input);

    // Deterministic shuffles: reverse, and an interleave.
    lines.reverse();
    let reversed = run_serve(&(lines.join("\n") + "\n"));
    let mut interleaved: Vec<&str> = Vec::new();
    let half = lines.len() / 2;
    for i in 0..half {
        interleaved.push(lines[i]);
        if half + i < lines.len() {
            interleaved.push(lines[half + i]);
        }
    }
    if lines.len() % 2 == 1 {
        interleaved.push(lines[lines.len() - 1]);
    }
    let inter = run_serve(&(interleaved.join("\n") + "\n"));

    let keyed = |out: &str| -> Vec<String> {
        let mut v: Vec<String> = out.lines().map(str::to_string).collect();
        v.sort();
        v
    };
    assert_eq!(keyed(&forward), keyed(&reversed), "reversal changed a response");
    assert_eq!(keyed(&forward), keyed(&inter), "interleave changed a response");
}

/// A batch whose heaviest fingerprint group sorts **first** in the
/// scheduler's canonical (prep-hash) order: five `optimize` requests at
/// distinct eps on one instance (five solves, bracket continuations), then
/// one light `optimize` and a memo-hit repeat on each of four others.
fn heavy_first_batch_jsonl() -> String {
    use psdp_cli::jsonfmt::json_str;
    let opts = ApproxOptions::practical(0.2);
    let mut pool: Vec<(u64, String)> = (0..5u64)
        .map(|seed| {
            let text = psdp_core::write_instance(&factorized_instance(&FactorizedSpec::new(
                8,
                5,
                100 + seed,
            )));
            // Hash the instance the server will parse, not the generator's.
            let parsed = std::sync::Arc::new(psdp_core::read_instance(&text).unwrap());
            let req = psdp_serve::ServeRequest::optimize("probe", parsed, opts);
            (psdp_serve::cache::prep_hash(&req), text)
        })
        .collect();
    pool.sort();
    let line = |id: &str, text: &str, eps: f64| {
        format!(
            "{{\"id\":{},\"command\":\"optimize\",\"instance\":{},\"eps\":{eps}}}",
            json_str(id),
            json_str(text)
        )
    };
    let mut lines = Vec::new();
    for (k, (_, text)) in pool.iter().enumerate().skip(1) {
        lines.push(line(&format!("light{k}"), text, 0.3));
        lines.push(line(&format!("light{k}-again"), text, 0.3));
    }
    for (j, eps) in [0.12, 0.15, 0.2, 0.25, 0.3].iter().enumerate() {
        lines.push(line(&format!("heavy{j}"), &pool[0].1, *eps));
    }
    lines.join("\n") + "\n"
}

/// Groups are claimed by whichever worker is idle, so with the heaviest
/// group first one worker runs it while the others drain the rest. The
/// bytes must not see that: every pool width {2, 4} (one claiming worker
/// per pool thread) reproduces the fully sequential run (pool 1, one group
/// at a time) bitwise.
#[test]
fn serve_responses_bitwise_with_claimed_groups() {
    let input = heavy_first_batch_jsonl();
    let args = psdp_cli::args::Args::parse(&["serve".to_string()]).unwrap();
    let run = |threads: usize| {
        run_with_threads(threads, || {
            psdp_cli::serve::serve_on_input(&args, &input).expect("serve runs").stdout
        })
    };
    let sequential = run(1);
    assert_eq!(sequential.lines().count(), 13, "{sequential}");
    assert!(!sequential.contains("\"error\""), "{sequential}");
    assert_eq!(sequential.matches("\"memoized\":true").count(), 4, "{sequential}");
    assert_eq!(sequential.matches("\"bracket_injected\":true").count(), 4, "{sequential}");
    for threads in [2usize, 4] {
        assert_eq!(run(threads), sequential, "stream changed at pool {threads}");
    }
}

fn run_listen(extra: &[&str], input: &str) -> String {
    let mut argv = vec!["serve".to_string(), "--listen".to_string()];
    argv.extend(extra.iter().map(|s| s.to_string()));
    let args = psdp_cli::args::Args::parse(&argv).unwrap();
    psdp_cli::serve::serve_listen_on_input(&args, input).expect("listen runs").stdout
}

/// The persistent service's response stream must be **bitwise** identical
/// across rayon pool sizes {1, 4} × shard counts {1, 4}, and must match
/// the one-shot scheduler byte-for-byte: a fingerprint routes to exactly
/// one shard whose single worker drains in arrival order, so neither the
/// shard count nor worker interleaving can reach the bytes.
#[test]
fn listen_responses_bitwise_across_threads_and_shards() {
    let input = serve_batch_jsonl();
    let base = run_with_threads(1, || run_listen(&[], &input));
    for threads in [1usize, 4] {
        for shards in ["1", "4"] {
            let out = run_with_threads(threads, || run_listen(&["--shards", shards], &input));
            assert_eq!(base, out, "stream changed at threads={threads} shards={shards}");
        }
    }
    assert_eq!(base, run_serve(&input), "listen and one-shot serve disagree");
}

/// A text JSONL submission and a binary-frame submission of the **same**
/// request schedule must produce bitwise-identical response streams,
/// across rayon pool sizes {1, 4}. The binary ingest path changes how the
/// instance bytes arrive (psdp-bin-1 frames, hash read off the header)
/// but never what the solver computes or how requests are fingerprinted —
/// text and binary submissions of one instance share a content hash, so
/// they must also share cache groups and memo tiers.
#[test]
fn listen_text_and_binary_submissions_bitwise_across_thread_counts() {
    let batch = psdp_workloads::mixed_request_stream(&psdp_workloads::MixedStreamSpec {
        base: psdp_workloads::RequestStreamSpec {
            pool: 2,
            requests: 6,
            dim: 8,
            n: 5,
            zipf_s: 1.1,
            thresholds: 2,
            seed: 11,
        },
        mixed_pool: 1,
        optimize_share: 0.2,
        mixed_share: 0.2,
        eps: 0.2,
    });
    let text = psdp_workloads::stream_jsonl(&batch);
    let frames = psdp_workloads::stream_frames(&batch);
    let run_frames = || {
        let args =
            psdp_cli::args::Args::parse(&["serve".to_string(), "--listen".to_string()]).unwrap();
        let mut reader: &[u8] = &frames;
        let mut out: Vec<u8> = Vec::new();
        psdp_cli::serve::serve_listen_on(&args, &mut reader, &mut out).expect("listen runs");
        String::from_utf8_lossy(&out).into_owned()
    };
    let base = run_with_threads(1, || run_listen(&[], &text));
    for threads in [1usize, 4] {
        let from_text = run_with_threads(threads, || run_listen(&[], &text));
        let from_frames = run_with_threads(threads, run_frames);
        assert_eq!(base, from_text, "text stream changed at threads={threads}");
        assert_eq!(base, from_frames, "binary stream diverged from text at threads={threads}");
    }
    // Sanity: the schedule repeats instances, so the cross-format identity
    // covered memoized responses, not just cold solves.
    assert!(base.contains("\"memoized\":true") || base.contains("\"prep_reused\":true"), "{base}");
}

/// Serve the given per-client request streams over a loopback TCP socket
/// (`--bind tcp:127.0.0.1:0 --max-clients N`) and return each client's
/// response stream in client order. The server runs on the calling
/// thread inside the requested rayon pool — the same pool-capture point
/// a production `--bind` run uses.
fn run_socket(threads: usize, shards: &str, inputs: &[String]) -> Vec<String> {
    use std::io::{Read as _, Write as _};
    let listener =
        psdp_serve::Listener::bind(&psdp_serve::BindAddr::parse("tcp:127.0.0.1:0").unwrap())
            .unwrap();
    let addr = listener.local_addr_string().strip_prefix("tcp:").map(str::to_string).unwrap();
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
    let argv =
        ["serve", "--listen", "--shards", shards, "--max-clients", &inputs.len().to_string()];
    let args = psdp_cli::args::Args::parse(&argv.map(String::from)).unwrap();
    run_with_threads(threads, || {
        psdp_cli::serve::serve_listen_socket_on(&args, listener).expect("socket serve runs");
    });
    clients.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Multi-client socket serving: each client's response stream over its
/// own connection must be **bitwise** identical to piping that client's
/// request stream over stdin, across rayon pool sizes {1, 4} × shard
/// counts {1, 4} × client counts {1, 4}. Per-client connections carry
/// stdin-equivalent parse state, and the per-client pools are disjoint,
/// so even the reuse telemetry matches — the transport cannot reach the
/// bytes (DESIGN.md §15).
#[test]
fn socket_responses_bitwise_match_stdin_per_client() {
    let spec = psdp_workloads::MixedStreamSpec {
        base: psdp_workloads::RequestStreamSpec {
            pool: 2,
            requests: 4,
            dim: 6,
            n: 4,
            zipf_s: 1.1,
            thresholds: 2,
            seed: 21,
        },
        mixed_pool: 1,
        optimize_share: 0.2,
        mixed_share: 0.2,
        eps: 0.2,
    };
    for clients in [1usize, 4] {
        let inputs: Vec<String> = psdp_workloads::multi_client_streams(&spec, clients)
            .iter()
            .map(psdp_workloads::stream_jsonl)
            .collect();
        let references: Vec<String> =
            inputs.iter().map(|i| run_with_threads(1, || run_listen(&[], i))).collect();
        for threads in [1usize, 4] {
            for shards in ["1", "4"] {
                let got = run_socket(threads, shards, &inputs);
                for (c, (got, want)) in got.iter().zip(&references).enumerate() {
                    assert_eq!(
                        got, want,
                        "client {c} socket bytes diverged at \
                         threads={threads} shards={shards} clients={clients}"
                    );
                }
            }
        }
    }
}

/// Warm-starting from a snapshot flips reuse telemetry but must leave
/// every result payload bitwise unchanged — the snapshot stores rebuild
/// inputs, and rebuilt solvers are the solvers.
#[test]
fn listen_snapshot_warm_start_is_payload_neutral() {
    let input = serve_batch_jsonl();
    let path = std::env::temp_dir().join(format!("psdp-det-snapshot-{}.txt", std::process::id()));
    let p = path.to_string_lossy().into_owned();
    let cold = run_listen(&["--snapshot", &p], &input);
    let warm = run_listen(&["--snapshot", &p], &input);
    let _ = std::fs::remove_file(&path);
    let strip = |s: &str| -> Vec<String> {
        s.lines().map(|l| l.split(",\"serve\":{").next().unwrap().to_string()).collect()
    };
    assert_eq!(strip(&cold), strip(&warm), "snapshot warm start changed a payload");
    assert!(warm.contains("\"tier\":\"prepared\""), "warm start never reused a solver: {warm}");
}

/// The pool registry is a `BTreeMap` keyed by thread count (audit rule D1:
/// no hash-order containers in deterministic modules), so the order in
/// which experiment code first requests pool sizes cannot perturb the
/// registry or any solve that runs afterwards. Scrambled acquisition must
/// hand back the identical cached pools and leave output bitwise unchanged.
#[test]
fn pool_registry_is_acquisition_order_invariant() {
    use psdp_parallel::pool_with_threads;
    let inst = instance(13);
    let opts = ApproxOptions::practical(0.15);
    let before = run_with_threads(2, || solve_packing(&inst, &opts).unwrap());
    for t in [4usize, 1, 3, 2, 4, 1] {
        let a = pool_with_threads(t);
        let b = pool_with_threads(t);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "pool of size {t} was rebuilt, not cached");
    }
    let after = run_with_threads(2, || solve_packing(&inst, &opts).unwrap());
    assert_eq!(before.value_lower.to_bits(), after.value_lower.to_bits());
    assert_eq!(before.value_upper.to_bits(), after.value_upper.to_bits());
    assert_eq!(before.decision_calls, after.decision_calls);
}

/// Workload generators are stable across calls and processes (fixed
/// hashing, no global RNG state).
#[test]
fn generators_are_stable() {
    let a = beamforming_sdp(&Beamforming::default());
    let b = beamforming_sdp(&Beamforming::default());
    for (x, y) in a.constraints.iter().zip(&b.constraints) {
        assert_eq!(x.to_dense().as_slice(), y.to_dense().as_slice());
    }
    let r1 = solve_packing(&instance(40), &ApproxOptions::practical(0.15)).unwrap();
    let r2 = solve_packing(&instance(40), &ApproxOptions::practical(0.15)).unwrap();
    assert_eq!(r1.decision_calls, r2.decision_calls);
    assert!((r1.value_lower - r2.value_lower).abs() < 1e-12);
    assert!((r1.value_upper - r2.value_upper).abs() < 1e-12);
}

/// Golden pin for `Session::optimize` under an explicit `Expv` engine on a
/// factorized instance whose constraints touch few of the m = 96
/// coordinates, so the engine runs through the Ψ pattern view and skips
/// the identity trace probes on zero rows. The bracket bits and the
/// iteration/call/evaluation counts were recorded with the dense-Ψ engine
/// path; the pattern view must reproduce them exactly.
#[test]
fn expv_optimize_golden_pin() {
    let inst = factorized_instance(&FactorizedSpec::new(96, 6, 3));
    let mut opts = ApproxOptions::practical(0.3);
    opts.decision = opts.decision.with_engine(EngineKind::Expv { eps: 0.2 }).with_seed(9);
    let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
    assert!(matches!(solver.engine_kind(), EngineKind::Expv { .. }));
    let r = solver.session().optimize(&opts).unwrap();
    assert!(r.converged);
    assert_eq!(r.value_lower.to_bits(), 0x4025afbb0fd2812c, "lower {}", r.value_lower);
    assert_eq!(r.value_upper.to_bits(), 0x402a739acaac0d46, "upper {}", r.value_upper);
    assert_eq!(r.total_iterations, 324);
    assert_eq!(r.decision_calls, 4);
    assert_eq!(r.total_engine_evals, 324);
}

/// Golden pin for the mixed bisection: the observer-stop fixture's
/// unobserved warm `optimize` must reproduce these bracket bits and
/// call/iteration/evaluation counts exactly.
#[test]
fn mixed_optimize_golden_pin() {
    let inst = mixed_edge_cover(&gnp(6, 0.5, 1), 0.5);
    let opts = MixedApproxOptions::practical(0.3);
    let r = solve_mixed(&inst, &opts).unwrap();
    assert!(r.converged);
    assert_eq!(r.threshold_lower.to_bits(), 0x3fd6587874318cc8, "lower {}", r.threshold_lower);
    assert_eq!(r.threshold_upper.to_bits(), 0x3fd8e5746b0c11d2, "upper {}", r.threshold_upper);
    assert_eq!(r.decision_calls, 6);
    assert_eq!(r.total_iterations, 509);
    assert_eq!(r.total_engine_evals, 1018);
}

/// Golden pin for the mixed bisection's stall: on these graphs at ε = 0.2
/// a kept call moves neither bound, so the next σ would be the same one.
/// The search ends there, unconverged, instead of repeating that call. The
/// final bracket bits were recorded while the stalled σ was still probed
/// a second time (8 calls; 4 005 and 2 505 iterations).
#[test]
fn mixed_optimize_stall_golden_pin() {
    let pins = [
        (1, 0x3fd55d21be95cb61_u64, 0x3fda20386630c795_u64, 3018),
        (3, 0x3fd489d33e3c7f57, 0x3fd8e58f3fb3e7b5, 1488),
    ];
    for (seed, lo, hi, iterations) in pins {
        let inst = mixed_edge_cover(&gnp(32, 0.25, seed), 0.5);
        let r = solve_mixed(&inst, &MixedApproxOptions::practical(0.2)).unwrap();
        let mut sigmas: Vec<u64> = r.brackets.iter().map(|b| b.sigma.to_bits()).collect();
        sigmas.sort_unstable();
        sigmas.dedup();
        assert_eq!(sigmas.len(), r.brackets.len(), "seed {seed}: a σ was probed twice");
        assert!(!r.converged, "seed {seed}");
        assert_eq!(r.threshold_lower.to_bits(), lo, "seed {seed}: lower {}", r.threshold_lower);
        assert_eq!(r.threshold_upper.to_bits(), hi, "seed {seed}: upper {}", r.threshold_upper);
        assert_eq!((r.decision_calls, r.total_iterations), (7, iterations), "seed {seed}");
    }
}

/// Golden pin for packing `Session::optimize` under the default practical
/// options on a fixture whose third bracket discards work: its warm
/// attempt and its cold solve are weak, and the certificate-seeking
/// escalation is kept. The bracket bits and the call/iteration/evaluation
/// counts were recorded before the packing and mixed bisections
/// shared one driver; the shared driver must reproduce them exactly.
#[test]
fn packing_optimize_golden_pin() {
    let inst = factorized_instance(&FactorizedSpec::new(6, 4, 1));
    let opts = ApproxOptions::practical(0.3);
    let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
    let r = solver.session().optimize(&opts).unwrap();
    assert!(r.converged);
    let discarding: Vec<usize> = (0..r.decision_calls)
        .filter(|&i| r.brackets[i].iterations > r.call_stats[i].iterations)
        .collect();
    assert_eq!(discarding, [2], "the fixture must hit the discard path");
    assert_eq!(r.value_lower.to_bits(), 0x401306fe0a31b715, "lower {}", r.value_lower);
    assert_eq!(r.value_upper.to_bits(), 0x4016a09e667f3bcd, "upper {}", r.value_upper);
    assert_eq!(r.decision_calls, 4);
    assert_eq!(r.total_iterations, 555);
    assert_eq!(r.total_engine_evals, 555);
    assert_eq!(r.total_replayed, 0);
}

/// Golden pin for the packing bisection's cap-bound path: on this fixture
/// the first bracket's cold solve is weak and its certificate-seeking
/// escalation never reaches a certificate, so the escalation is discarded.
/// The bracket bits were recorded while that escalation still ran to the
/// 20 000-iteration cap (20 259 iterations in all); bounded by its cold
/// solve's iterations, it must reproduce them exactly.
#[test]
fn packing_discarded_escalation_golden_pin() {
    let inst = factorized_instance(&FactorizedSpec::new(4, 5, 0));
    let opts = ApproxOptions::practical(0.3);
    let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
    let r = solver.session().optimize(&opts).unwrap();
    assert!(r.converged);
    assert_eq!(r.value_lower.to_bits(), 0x401172554c5268b9, "lower {}", r.value_lower);
    assert_eq!(r.value_upper.to_bits(), 0x40151adb647f118c, "upper {}", r.value_upper);
    let (cold, first) = (&r.call_stats[0], &r.brackets[0]);
    assert_eq!(cold.iterations, 256);
    assert!(first.discarded_iterations > 0, "the fixture must discard its escalation");
    assert!(first.discarded_iterations <= cold.iterations, "the escalation outran its budget");
    assert_eq!(r.total_iterations, 515);
}

/// Relative distance of `got` from the value with bits `want`.
fn rel_from_bits(got: f64, want: u64) -> f64 {
    let want = f64::from_bits(want);
    (got - want).abs() / want.abs()
}

/// Golden pin for `Session::optimize` on the `packing-expv` benchmark's
/// instance shape (m = 256, 8 rank-1 constraints with 3 nonzeros each,
/// `Auto` resolving to `Expv`), where `Ψ` lives on 23 rows. Everything
/// was recorded with `Ψ` stored densely; stored on its pattern, the
/// bracket bits, per-call iterations, rebuilds and drift bits must
/// reproduce exactly. The dual's feasibility scale comes from the
/// eigensolver on the 23×23 live block instead of all of `Ψ`, so it may
/// move in its last bits only.
#[test]
fn expv_packing_shaped_optimize_golden_pin() {
    let rf = RandomFactorized { dim: 256, n: 8, rank: 1, nnz_per_col: 3, width: 1.0, seed: 4 };
    let inst = PackingInstance::new(random_factorized(&rf)).unwrap();
    let mut opts = ApproxOptions::practical(0.4);
    opts.decision.engine = EngineKind::Auto { eps: 0.3 };
    let solver = Solver::builder(&inst).options(opts.decision).build().unwrap();
    assert!(matches!(solver.engine_kind(), EngineKind::Expv { .. }));
    let r = solver.session().optimize(&opts).unwrap();
    assert!(r.converged);
    assert_eq!(r.value_lower.to_bits(), 0x401ae89f995ad3ae, "lower {}", r.value_lower);
    assert_eq!(r.value_upper.to_bits(), 0x4020b5586cf9890f, "upper {}", r.value_upper);
    assert_eq!((r.decision_calls, r.total_iterations, r.total_engine_evals), (4, 207, 207));
    let calls: Vec<_> = r
        .call_stats
        .iter()
        .map(|s| (s.iterations, s.psi_rebuilds, s.psi_max_drift.to_bits()))
        .collect();
    assert_eq!(calls, [(176, 2, 0x3cc8faafe5163128), (29, 0, 0), (1, 0, 0), (1, 0, 0)]);
    let dual = r.best_dual.as_ref().expect("a dual certifies the lower end");
    let scale = rel_from_bits(dual.feasibility_scale, 0x403cd90f83596aa4);
    assert!(scale <= 1e-12, "feasibility scale {} moved by {scale:e}", dual.feasibility_scale);
    assert!(rel_from_bits(dual.value, 0x401d684c54bbcc9e) <= 1e-12, "dual value {}", dual.value);
    assert!(verify_dual(&inst, dual, 1e-9).feasible);
}

/// Golden pin for `MixedSession::optimize` with the packing side on the
/// `Expv` engine, whose `Ψ_P` lives on fewer than 24 of its 64 rows
/// (rank-1 packing constraints with 3 nonzeros, diagonal covering on 3
/// rows). Recorded with `Ψ_P` stored densely; stored on its pattern, the
/// bracket bits, counts, rebuilds and drift bits must reproduce exactly
/// (the lower end divides by the dense eigensolver's `λmax(Ψ_P)`).
#[test]
fn mixed_expv_pack_side_optimize_golden_pin() {
    let rf = RandomFactorized { dim: 64, n: 8, rank: 1, nnz_per_col: 3, width: 1.0, seed: 5 };
    let cover = (0..8).map(|k| {
        PsdMatrix::Diagonal((0..3).map(|r| if (k + r) % 3 == 0 { 1.0 } else { 0.25 }).collect())
    });
    let inst = MixedInstance::new(random_factorized(&rf), cover.collect()).unwrap();
    let mut opts = MixedApproxOptions::practical(0.3);
    opts.decision = opts.decision.with_engine(EngineKind::Expv { eps: 0.2 });
    let solver = MixedSolver::builder(&inst).options(opts.decision).build().unwrap();
    let r = solver.session().optimize(&opts).unwrap();
    assert!(r.converged);
    let (lo, hi) = (r.threshold_lower, r.threshold_upper);
    assert_eq!(lo.to_bits(), 0x4005a9cb12db4feb, "lower {lo}");
    assert_eq!(hi.to_bits(), 0x400a1c6ba49f484d, "upper {hi}");
    assert_eq!((r.decision_calls, r.total_iterations, r.total_engine_evals), (4, 411, 822));
    let calls: Vec<_> = r
        .call_stats
        .iter()
        .map(|s| (s.engine, s.iterations, s.psi_rebuilds, s.psi_max_drift.to_bits()))
        .collect();
    let expv = "expv";
    assert_eq!(
        calls,
        [(expv, 41, 0, 0), (expv, 3, 0, 0), (expv, 17, 0, 0), (expv, 241, 6, 0x3cd6c1b1fd50252e)]
    );
    let point = r.best_point.as_ref().expect("a feasible point certifies the lower end");
    assert_eq!(point.pack_lambda_max, 1.0);
    assert!(verify_mixed_feasible(&inst, point, lo, 1e-9).feasible);
}
