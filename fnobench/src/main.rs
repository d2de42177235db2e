//! FNO inference benchmark over the TurboFNO stack.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path fnobench/Cargo.toml -- \
//!     --workload <rollout-2d|batch-1d|serve-queue> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the failure report as `#` lines, then one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See README.md for the workloads and
//! what each metric should move.

mod inputs;
mod probe;
mod reference;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use turbofno::{Backend, NativeBackend, Session, SimBackend};

use trace::{self_times, Tracer, KINDS};
use workload::{run_req, run_round, setup, Exec, Expected, Log, Plain, Traced, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--policy default` leaves `TFNO_THREADS` as the environment has it
    /// (reference figures only; the benchmark pins one worker).
    pinned: bool,
    /// `--rescale 0` feeds raw rollout outputs back unscaled (reference
    /// figures only).
    rescale: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("expected `--name value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workload::WORKLOADS
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let pinned = match kv.get("policy").map(String::as_str) {
        None | Some("pinned") => true,
        Some("default") => false,
        Some(p) => return Err(format!("--policy must be pinned or default, got {p:?}")),
    };
    let rescale = match kv.get("rescale").map(String::as_str) {
        None | Some("1") => true,
        Some("0") => false,
        Some(r) => return Err(format!("--rescale must be 0 or 1, got {r:?}")),
    };
    if let Some(k) = kv.keys().find(|k| {
        !["workload", "seed", "seconds", "trace", "policy", "rescale"].contains(&k.as_str())
    }) {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        pinned,
        rescale,
    })
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Record a metric. A ratio with nothing to divide (a kernel kind that
/// never launched, a counter that did not move) reads 0.
fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(
        name.to_string(),
        (if value.is_finite() { value } else { 0.0 }, unit),
    );
}

/// Linear-interpolated percentile of `v` (`q` in `[0, 1]`).
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// What one run found, besides its metrics.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Check every request once (against the f64 reference) and record the
/// outputs later passes must reproduce bitwise.
fn checked_pass<E: Exec>(e: &mut E, w: &Workload) -> (Expected, Log) {
    let (mut expected, mut log) = (Expected::new(), Log::default());
    for ri in 0..w.reqs.len() {
        run_req(e, w, ri, &mut expected, &mut log);
    }
    (expected, log)
}

/// Put the session dispatch threads on one CPU and the benchmark thread on
/// another (see `probe::pin_threads`). Left to the scheduler, the two
/// threads sometimes share a core and sometimes not, and operation times
/// jump between two levels from second to second.
fn place_threads(pin: bool) {
    if !pin {
        return;
    }
    match probe::pin_threads() {
        Some((host, dispatch)) => {
            println!("# threads: main on CPU {host}, dispatch on CPU {dispatch}")
        }
        None => {
            println!("# threads: left to the scheduler (fewer than two CPUs, or pinning refused)")
        }
    }
}

fn report_failures(w: &Workload, log: &Log) {
    for (label, (n, msg)) in &log.failures {
        println!("# {}: {n} failed operations on `{label}`: {msg}", w.name);
    }
}

fn untraced<B: Backend>(w: &Workload, seconds: f64, pin: bool, backend: impl Fn() -> B) -> Outcome {
    let mut setups = Vec::new();
    let mut exec = None;
    for _ in 0..w.setup_trials {
        // Drop the previous session first so trials do not overlap.
        drop(exec.take());
        let (e, s, _) = setup(w, || Plain {
            sess: Session::new(backend()),
        });
        setups.push(s);
        exec = Some(e);
    }
    let mut e = exec.expect("at least one set-up trial");
    place_threads(pin);
    let (mut expected, check) = checked_pass(&mut e, w);

    let mut log = Log::default();
    let (cpu0, t0) = (probe::cpu_seconds(), Instant::now());
    let mut r = 0;
    while r == 0 || t0.elapsed().as_secs_f64() < seconds {
        run_round(&mut e, w, r, &mut expected, &mut log);
        r += 1;
    }
    let window = t0.elapsed().as_secs_f64();
    let cpu = probe::cpu_seconds() - cpu0;
    drop(e);
    report_failures(w, &log);

    let rows = log.rows.max(1) as f64;
    let mut m = Metrics::new();
    put(&mut m, "setup_s", percentile(&setups, 0.5), "s");
    put(&mut m, "latency_ms_p50", percentile(&log.op_ms, 0.5), "ms");
    put(&mut m, "latency_ms_p90", percentile(&log.op_ms, 0.9), "ms");
    put(&mut m, "samples_per_s", log.rows as f64 / window, "1/s");
    put(&mut m, "cpu_ms_per_sample", cpu * 1e3 / rows, "ms");
    put(&mut m, "peak_rss_mb", probe::peak_rss_mib(), "MiB");
    println!(
        "# {}: {} timed operations in {r} rounds over {window:.2} s; worst rel L2 error {:.2e}",
        w.name, log.attempted, check.worst_rel_err
    );
    Outcome {
        metrics: m,
        attempted: log.attempted,
        failed: log.failed,
        problems: [check.problems, log.problems].concat(),
    }
}

fn traced<B: Backend>(
    w: &Workload,
    seconds: f64,
    seed: u64,
    pin: bool,
    backend: impl Fn() -> B,
) -> Outcome {
    let tracer = Tracer::new();
    let (mut plain, _, _) = setup(w, || Plain {
        sess: Session::new(backend()),
    });
    let (mut tr, _, cold) = setup(w, || Traced::new(backend(), Arc::clone(&tracer)));
    place_threads(pin);
    let (mut expected, check) = checked_pass(&mut tr, w);

    // Alternate untraced and traced rounds over the same requests; the
    // per-layer figures come from the traced rounds alone.
    tracer.clear();
    let s0 = workload::sess_stats(&mut tr.sess);
    let (mut lp, mut lt) = (Log::default(), Log::default());
    let t0 = Instant::now();
    let mut r = 0;
    while r == 0 || t0.elapsed().as_secs_f64() < seconds {
        run_round(&mut plain, w, r, &mut expected, &mut lp);
        run_round(&mut tr, w, r, &mut expected, &mut lt);
        r += 1;
    }
    let s1 = workload::sess_stats(&mut tr.sess);
    drop(plain);
    report_failures(w, &lt);

    let spans = tracer.spans();
    let own = self_times(&spans);
    let (mut incl, mut selft, mut count) = (
        BTreeMap::<&str, f64>::new(),
        BTreeMap::<&str, f64>::new(),
        BTreeMap::<&str, f64>::new(),
    );
    for (s, o) in spans.iter().zip(&own) {
        *incl.entry(s.name).or_default() += s.dur() as f64 / 1e6;
        *selft.entry(s.name).or_default() += *o as f64 / 1e6;
        *count.entry(s.name).or_default() += 1.0;
    }
    let get = |t: &BTreeMap<&str, f64>, k: &str| t.get(k).copied().unwrap_or(0.0);
    let ops = lt.attempted.max(1) as f64;
    let op_ms = get(&incl, "op");

    let mut m = Metrics::new();
    put(
        &mut m,
        "fno.add_gelu_ms",
        get(&selft, "add_gelu") / ops,
        "ms",
    );
    put(
        &mut m,
        "fno.pointwise_ms",
        get(&selft, "pointwise") / ops,
        "ms",
    );
    put(
        &mut m,
        "fno.host_share",
        (get(&incl, "add_gelu") + get(&incl, "pointwise")) / op_ms,
        "ratio",
    );
    put(&mut m, "core.submit_ms", get(&incl, "submit") / ops, "ms");
    put(&mut m, "core.wait_ms", get(&incl, "wait") / ops, "ms");
    let (up, down) = tracer.transfer_bytes();
    put(&mut m, "core.upload_mb", up as f64 / 1e6 / ops, "MB");
    put(&mut m, "core.download_mb", down as f64 / 1e6 / ops, "MB");
    let ratio = |a: u64, b: u64| a as f64 / (a + b) as f64;
    let (hits, misses) = (
        s1.replay_hits - s0.replay_hits,
        s1.replay_misses - s0.replay_misses,
    );
    put(
        &mut m,
        "core.replay_hit_ratio",
        ratio(hits, misses),
        "ratio",
    );
    put(&mut m, "core.replay_records", misses as f64 / ops, "1/op");
    put(
        &mut m,
        "core.planner_evals",
        (s1.planner_misses - s0.planner_misses) as f64 / ops,
        "1/op",
    );
    put(
        &mut m,
        "core.pool_miss_ratio",
        ratio(s1.pool_misses - s0.pool_misses, s1.pool_hits - s0.pool_hits),
        "ratio",
    );
    put(
        &mut m,
        "core.cold_call_ms",
        cold.iter().sum::<f64>() / cold.len().max(1) as f64,
        "ms",
    );
    put(
        &mut m,
        "core.pool_leased_end",
        s1.pool_leased as f64,
        "count",
    );
    put(
        &mut m,
        "backend.launch_history_len",
        s1.launch_history as f64,
        "count",
    );

    let peak = probe::fma_gflops();
    let bw = probe::triad_gbs();
    let (mut all_ms, mut all_n, mut all_flops, mut all_roof) = (0.0, 0.0, 0.0, 0.0);
    let launched = tracer.launched();
    for (k, (kind, span)) in KINDS.iter().enumerate() {
        let (ms, n) = (get(&incl, span), get(&count, span));
        let (mut flops, mut roof_s) = (0.0, 0.0);
        for (_, work, c) in launched.iter().filter(|l| l.0 == k) {
            flops += (work.flops * c) as f64;
            roof_s += *c as f64
                * f64::max(
                    work.flops as f64 / (peak * 1e9),
                    work.bytes as f64 / (bw * 1e9),
                );
        }
        let (gflops, roof) = (flops / (ms / 1e3) / 1e9, roof_s * 1e3 / ms);
        put(&mut m, &format!("backend.kernel.{kind}_ms"), ms / ops, "ms");
        put(
            &mut m,
            &format!("backend.kernel.{kind}_gflops"),
            gflops,
            "GFLOP/s",
        );
        put(
            &mut m,
            &format!("backend.kernel.{kind}_roofline"),
            roof,
            "ratio",
        );
        all_ms += ms;
        all_n += n;
        all_flops += flops;
        all_roof += roof_s;
    }
    put(&mut m, "backend.launches_per_op", all_n / ops, "1/op");
    put(&mut m, "backend.launch_ms", all_ms / ops, "ms");
    put(
        &mut m,
        "backend.host_gflops",
        all_flops / (all_ms / 1e3) / 1e9,
        "GFLOP/s",
    );
    put(
        &mut m,
        "backend.roofline_fraction",
        all_roof * 1e3 / all_ms,
        "ratio",
    );
    put(
        &mut m,
        "backend.complete_ms",
        get(&incl, "complete") / ops,
        "ms",
    );

    let [turbo, pt, mb, flops, conflicts] = workload::modeled(w);
    put(&mut m, "gpu_sim.modeled_us", turbo, "us");
    put(&mut m, "gpu_sim.modeled_pytorch_us", pt, "us");
    put(&mut m, "gpu_sim.global_mb", mb, "MB");
    put(&mut m, "gpu_sim.flops", flops, "flop");
    put(&mut m, "gpu_sim.bank_conflict_ratio", conflicts, "ratio");
    put(&mut m, "host.fma_gflops", peak, "GFLOP/s");
    put(&mut m, "host.triad_gbs", bw, "GB/s");
    put(
        &mut m,
        "trace.overhead",
        lt.attempt_ms / lp.attempt_ms,
        "ratio",
    );
    put(
        &mut m,
        "trace.coverage",
        1.0 - get(&selft, "op") / op_ms,
        "ratio",
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.json", w.name));
    let mut problems = [check.problems, lp.problems, lt.problems].concat();
    match tracer.write_chrome(&path) {
        Ok(()) => println!(
            "# trace: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    drop(tr);
    Outcome {
        metrics: m,
        attempted: lp.attempted + lt.attempted,
        failed: lp.failed + lt.failed,
        problems,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fnobench: {e}");
            std::process::exit(2);
        }
    };
    // One host worker per parallel loop: the process runs the main thread
    // plus the session's dispatch thread. Set before any thread starts.
    if args.pinned {
        std::env::set_var("TFNO_THREADS", "1");
    }
    std::env::remove_var("TFNO_VERIFY");
    // The standing fault is counted per operation; keep its panic message
    // (raised on the dispatch thread) out of the output. Others print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !msg.contains(workload::KNOWN_FAULT) {
            default_hook(info);
        }
    }));

    // Before any session exists: set-up runs with every thread on the
    // first CPU; the dispatch threads move to their own after set-up.
    if args.pinned {
        probe::pin_threads();
    }
    let mut rng = inputs::Rng::new(args.seed ^ 0xC0FFEE);
    let cross = reference::cross_check(&mut rng);
    let mut w = Workload::new(&args.workload, args.seed).expect("workload name was validated");
    w.rescale = args.rescale;
    let out = match (args.trace, w.native) {
        (false, true) => untraced(&w, args.seconds, args.pinned, NativeBackend::a100),
        (false, false) => untraced(&w, args.seconds, args.pinned, SimBackend::a100),
        (true, true) => traced(
            &w,
            args.seconds,
            args.seed,
            args.pinned,
            NativeBackend::a100,
        ),
        (true, false) => traced(&w, args.seconds, args.seed, args.pinned, SimBackend::a100),
    };
    let mut problems = out.problems;
    if cross.is_nan() || cross > 1e-5 {
        problems.insert(
            0,
            format!("f64 reference disagrees with fno_layer_{{1d,2d,3d}}: rel L2 {cross:e}"),
        );
    }
    for p in &problems {
        println!("# PROBLEM: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
