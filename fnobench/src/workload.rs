//! The three workloads, the two ways of executing an operation (the
//! program's own entry points, and a traced replica of them built from the
//! same public calls) and the passes that check and time them.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use tfno_model::{add_gelu, pointwise, FnoNd};
use tfno_num::{CTensor, C32};
use turbofno::{Backend, LayerSpec, Request, Session, TurboOptions, Variant};

use crate::inputs::{field_batch, model, Rng};
use crate::reference::{rel_l2, RefModel};
use crate::trace::{TracedBackend, Tracer};

/// Every operation runs the paper's configuration: the best fused
/// pipeline per shape, chosen by the session planner.
pub const VARIANT: Variant = Variant::TurboBest;

/// Largest relative L2 distance an output may have from the f64 reference.
pub const TOLERANCE: f64 = 1e-4;

/// The panic text of the standing fault: `TurboBest` planning builds fused
/// kernels for shapes whose innermost retained mode count is not a
/// multiple of 32, and `FusedKernel::new` asserts on them.
pub const KNOWN_FAULT: &str = "to be a multiple of the warp M-tile";

pub enum Mode {
    /// Autoregressive rollouts: each request is `steps` chained forwards,
    /// checked against the reference every `stride` steps.
    Rollout { steps: usize, stride: usize },
    /// One `try_forward_device` per request.
    Batch,
    /// One `forward_device_batch` queue per request.
    Queue,
}

pub struct Model {
    pub label: String,
    pub fno: FnoNd,
    pub reference: RefModel,
}

fn make_model(label: &str, seed: u64, width: usize, dims: &[usize], modes: &[usize]) -> Model {
    let fno = model(seed, width, 4, dims, modes);
    let reference = RefModel::new(&fno);
    Model {
        label: format!("{label} width={width} dims={dims:?} modes={modes:?}"),
        fno,
        reference,
    }
}

/// One request: a queue of same-shape inputs for one model (length 1
/// outside `serve-queue`).
pub struct Req {
    pub model: usize,
    pub xs: Vec<CTensor>,
}

impl Req {
    fn rows_per_entry(&self) -> usize {
        self.xs[0].shape()[0]
    }
    /// Batch rows one operation on this request completes.
    pub fn rows(&self) -> usize {
        self.xs.len() * self.rows_per_entry()
    }
    fn label(&self, w: &Workload) -> String {
        format!(
            "{} queue={} batch={}",
            w.models[self.model].label,
            self.xs.len(),
            self.rows_per_entry()
        )
    }
}

pub struct Workload {
    pub name: &'static str,
    pub native: bool,
    pub mode: Mode,
    pub models: Vec<Model>,
    pub reqs: Vec<Req>,
    /// Requests per round; runs are made of whole rounds.
    pub round: usize,
    /// Sessions set up per untraced run; `setup_s` is their median.
    pub setup_trials: usize,
    /// Rescale each rollout step's output to unit RMS before feeding it
    /// back (the benchmark always does; off only for reference figures).
    pub rescale: bool,
}

pub const WORKLOADS: [&str; 3] = ["rollout-2d", "batch-1d", "serve-queue"];

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        Some(match name {
            "rollout-2d" => {
                let dims = [64, 64];
                let reqs = (0..2)
                    .map(|_| Req {
                        model: 0,
                        xs: vec![field_batch(&mut rng, 1, &dims, 8)],
                    })
                    .collect();
                Workload {
                    name: "rollout-2d",
                    native: true,
                    mode: Mode::Rollout {
                        steps: 16,
                        stride: 4,
                    },
                    models: vec![make_model("2D", 0x2D, 16, &dims, &[16, 32])],
                    reqs,
                    round: 1,
                    setup_trials: 15,
                    rescale: true,
                }
            }
            "batch-1d" => {
                let reqs = (0..4)
                    .map(|_| Req {
                        model: 0,
                        xs: vec![field_batch(&mut rng, 16, &[256], 16)],
                    })
                    .collect();
                Workload {
                    name: "batch-1d",
                    native: false,
                    mode: Mode::Batch,
                    models: vec![make_model("1D", 0x1D, 16, &[256], &[64])],
                    reqs,
                    round: 1,
                    setup_trials: 15,
                    rescale: true,
                }
            }
            "serve-queue" => serve_queue(&mut rng),
            _ => return None,
        })
    }

    /// Distinct request keys: the first request of each `(model, queue
    /// length, rows per entry)`.
    fn keys(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for (i, r) in self.reqs.iter().enumerate() {
            let k = (r.model, r.xs.len(), r.rows_per_entry());
            if !seen.contains(&k) {
                seen.push(k);
                out.push(i);
            }
        }
        out
    }

    pub fn ops_per_req(&self) -> usize {
        match self.mode {
            Mode::Rollout { steps, .. } => steps,
            _ => 1,
        }
    }
}

/// The mixed queue stream. The request keys are fixed; the seed draws the
/// inputs and the serving order (one order per run, repeated every round).
/// Forty keys cycle through the session's 32-entry replay cache.
fn serve_queue(rng: &mut Rng) -> Workload {
    let models = vec![
        make_model("1D", 0x51, 16, &[128], &[32]),
        make_model("1D", 0x52, 16, &[256], &[64]),
        make_model("1D", 0x53, 16, &[512], &[64]),
        make_model("2D", 0x54, 16, &[32, 32], &[8, 32]),
        make_model("2D", 0x55, 16, &[16, 32], &[8, 32]),
        make_model("3D", 0x56, 16, &[4, 4, 32], &[2, 2, 32]),
        // The canonical 1D FNO setting of Li et al.: 16 modes, width 64.
        make_model("1D", 0x57, 64, &[64], &[16]),
    ];
    let mut keys: Vec<(usize, usize, usize)> = Vec::new();
    for m in 0..6 {
        for j in 0..6 {
            // Six of the sixteen (queue, batch) pairs in 1..=4, a different
            // six per model.
            let c = (m * 7 + j * 3) % 16;
            keys.push((m, c / 4 + 1, c % 4 + 1));
        }
    }
    for (q, b) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        keys.push((6, q, b));
    }
    rng.shuffle(&mut keys);
    let reqs: Vec<Req> = keys
        .iter()
        .map(|&(m, q, b)| {
            let dims = models[m].fno.layers[0].spectral.dims.clone();
            let kmax = (*dims.iter().min().expect("rank >= 1") as i64 / 4).min(8);
            Req {
                model: m,
                xs: (0..q).map(|_| field_batch(rng, b, &dims, kmax)).collect(),
            }
        })
        .collect();
    let round = reqs.len();
    Workload {
        name: "serve-queue",
        native: true,
        mode: Mode::Queue,
        models,
        reqs,
        round,
        setup_trials: 3,
        rescale: true,
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".into())
}

/// Run `f`, turning a panic into an error at this call boundary.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_text)
}

/// Session counters sampled between operations.
#[derive(Clone, Copy, Default)]
pub struct SessStats {
    pub replay_hits: u64,
    pub replay_misses: u64,
    pub planner_misses: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_leased: u64,
    pub launch_history: u64,
}

pub fn sess_stats<B: Backend>(s: &mut Session<B>) -> SessStats {
    s.synchronize();
    let (r, p, pool) = (s.replay_stats(), s.planner_stats(), s.pool_stats());
    SessStats {
        replay_hits: r.hits,
        replay_misses: r.misses,
        planner_misses: p.misses,
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pool_leased: pool.leased,
        launch_history: s.device().launches().len() as u64,
    }
}

pub trait Exec {
    /// One operation: a forward of `xs[0]`, or of the whole queue.
    fn forward(&mut self, m: &FnoNd, xs: &[CTensor], queue: bool) -> Result<Vec<CTensor>, String>;
    /// Tag the spans of the next operation (traced executors only).
    fn set_op(&self, _op: u64) {}
}

/// Operations through the program's own entry points.
pub struct Plain<B: Backend> {
    pub sess: Session<B>,
}

impl<B: Backend> Exec for Plain<B> {
    fn forward(&mut self, m: &FnoNd, xs: &[CTensor], queue: bool) -> Result<Vec<CTensor>, String> {
        let opts = TurboOptions::default();
        let sess = &mut self.sess;
        if queue {
            let out = guarded(|| m.forward_device_batch(sess, VARIANT, &opts, xs))?;
            Ok(out.into_iter().map(|(y, _)| y).collect())
        } else {
            let out = guarded(|| m.try_forward_device(sess, VARIANT, &opts, &xs[0]))?;
            out.map(|(y, _)| vec![y]).map_err(|e| e.to_string())
        }
    }
}

/// Operations rebuilt from the public calls `FnoNd::try_forward_device`
/// and `FnoNd::forward_device_batch` make, with a span around each.
pub struct Traced<B: Backend> {
    pub sess: Session<TracedBackend<B>>,
    pub tracer: Arc<Tracer>,
}

impl<B: Backend> Traced<B> {
    pub fn new(backend: B, tracer: Arc<Tracer>) -> Self {
        Traced {
            sess: Session::new(TracedBackend::new(backend, Arc::clone(&tracer))),
            tracer,
        }
    }

    fn single(&mut self, m: &FnoNd, x: &CTensor) -> Result<CTensor, String> {
        let (tr, sess) = (&*self.tracer, &mut self.sess);
        let opts = TurboOptions::default();
        let mut h = tr.span("pointwise", || pointwise(x, &m.lift));
        for layer in &m.layers {
            let pending = tr.span("submit", || {
                layer.spectral.submit_device(sess, VARIANT, &opts, &h)
            });
            let p = tr.span("pointwise", || pointwise(&h, &layer.bypass));
            let (s, _) = tr
                .span("wait", || pending.try_finish(sess))
                .map_err(|e| e.to_string())?;
            h = tr.span("add_gelu", || add_gelu(&s, &p));
        }
        Ok(tr.span("pointwise", || pointwise(&h, &m.proj)))
    }

    fn queue(&mut self, m: &FnoNd, xs: &[CTensor]) -> Vec<CTensor> {
        let (tr, sess) = (&*self.tracer, &mut self.sess);
        let opts = TurboOptions::default();
        let mut hs: Vec<CTensor> = xs
            .iter()
            .map(|x| tr.span("pointwise", || pointwise(x, &m.lift)))
            .collect();
        for layer in &m.layers {
            let sc = &layer.spectral;
            let (wb, reqs, handle) = tr.span("submit", || {
                let wb = sess.acquire(sc.k_in * sc.k_out);
                sess.upload(wb, sc.weight.data());
                let mut reqs = Vec::with_capacity(hs.len());
                for h in &hs {
                    let spec = LayerSpec::from_shape(sc.shape(h.shape()[0]))
                        .variant(VARIANT)
                        .options(opts);
                    let x = sess.acquire(spec.input_len());
                    sess.upload(x, h.data());
                    let y = sess.acquire(spec.output_len());
                    reqs.push(Request { spec, x, w: wb, y });
                }
                let handle = sess.submit_many(&reqs);
                (wb, reqs, handle)
            });
            let ps: Vec<CTensor> = hs
                .iter()
                .map(|h| tr.span("pointwise", || pointwise(h, &layer.bypass)))
                .collect();
            let ss: Vec<CTensor> = tr.span("wait", || {
                sess.wait_many(handle);
                let ss = reqs
                    .iter()
                    .zip(&hs)
                    .map(|(r, h)| {
                        let mut shape = vec![h.shape()[0], sc.k_out];
                        shape.extend_from_slice(&sc.dims);
                        let s = CTensor::from_vec(sess.download(r.y), &shape);
                        sess.release(r.x);
                        sess.release(r.y);
                        s
                    })
                    .collect();
                sess.release(wb);
                ss
            });
            for (h, (s, p)) in hs.iter_mut().zip(ss.iter().zip(&ps)) {
                *h = tr.span("add_gelu", || add_gelu(s, p));
            }
        }
        hs.iter()
            .map(|h| tr.span("pointwise", || pointwise(h, &m.proj)))
            .collect()
    }
}

impl<B: Backend> Exec for Traced<B> {
    fn forward(&mut self, m: &FnoNd, xs: &[CTensor], queue: bool) -> Result<Vec<CTensor>, String> {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("op", || {
            if queue {
                guarded(|| self.queue(m, xs))
            } else {
                guarded(|| self.single(m, &xs[0]))?.map(|y| vec![y])
            }
        })
    }
    fn set_op(&self, op: u64) {
        self.tracer.set_op(op);
    }
}

/// What the passes saw.
#[derive(Default)]
pub struct Log {
    /// Wall time of each completed operation, ms.
    pub op_ms: Vec<f64>,
    /// Wall time of every attempted operation, failed ones included, ms.
    pub attempt_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    /// Label -> (failures, message) of every failing request.
    pub failures: BTreeMap<String, (u64, String)>,
    /// Correctness problems (reference mismatches, changed outputs,
    /// fields out of range, unexpected failures).
    pub problems: Vec<String>,
    pub worst_rel_err: f64,
}

impl Log {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// Outputs of the checked pass, per request and step: the bitwise
/// expectation for every later pass. `None` where the operation failed.
pub type Expected = Vec<Vec<Option<Vec<CTensor>>>>;

fn rms(t: &CTensor) -> f64 {
    let s: f64 = t
        .data()
        .iter()
        .map(|c| (c.re as f64).powi(2) + (c.im as f64).powi(2))
        .sum();
    (s / t.data().len() as f64).sqrt()
}

/// Finite, and no subnormal component.
fn in_normal_range(t: &CTensor) -> bool {
    t.data().iter().all(|c| {
        [c.re, c.im]
            .iter()
            .all(|v| v.is_finite() && (*v == 0.0 || v.abs() >= f32::MIN_POSITIVE))
    })
}

fn same_bits(a: &Option<Vec<CTensor>>, b: &Option<Vec<CTensor>>) -> bool {
    let bits = |t: &CTensor| -> Vec<u64> {
        t.data()
            .iter()
            .map(|c: &C32| (c.re.to_bits() as u64) << 32 | c.im.to_bits() as u64)
            .collect()
    };
    match (a, b) {
        (Some(a), Some(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.shape() == y.shape() && bits(x) == bits(y))
        }
        _ => false,
    }
}

/// Scale to unit RMS (the rollout's step-to-step renormalisation).
fn rescale(t: &CTensor) -> CTensor {
    let s = (1.0 / rms(t)) as f32;
    CTensor::from_vec(t.data().iter().map(|c| c.scale(s)).collect(), t.shape())
}

/// Run request `ri` once: each of its operations is timed around the call
/// alone. With `expected` empty the outputs are checked against the f64
/// reference and recorded; otherwise they must equal the record bitwise.
pub fn run_req<E: Exec>(
    e: &mut E,
    w: &Workload,
    ri: usize,
    expected: &mut Expected,
    log: &mut Log,
) {
    let req = &w.reqs[ri];
    let m = &w.models[req.model];
    let queue = matches!(w.mode, Mode::Queue);
    let checking = expected.len() <= ri;
    if checking {
        expected.push(Vec::new());
    }
    let mut xs = req.xs.clone();
    for step in 0..w.ops_per_req() {
        e.set_op(log.attempted);
        let t = Instant::now();
        let out = e.forward(&m.fno, &xs, queue);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        log.attempt_ms += ms;
        let out = match out {
            Ok(out) => {
                log.op_ms.push(ms);
                log.rows += req.rows() as u64;
                Some(out)
            }
            Err(msg) => {
                log.failed += 1;
                if !msg.contains(KNOWN_FAULT) {
                    log.problem(format!("{}: unexpected failure: {msg}", req.label(w)));
                }
                let entry = log.failures.entry(req.label(w)).or_insert((0, msg));
                entry.0 += 1;
                None
            }
        };
        if checking {
            if let Some(ys) = &out {
                let check_ref = match w.mode {
                    Mode::Rollout { stride, .. } => step % stride == 0,
                    _ => true,
                };
                if check_ref {
                    for (x, y) in xs.iter().zip(ys) {
                        let err = rel_l2(y.data(), &m.reference.forward(x));
                        log.worst_rel_err = log.worst_rel_err.max(err);
                        if err.is_nan() || err > TOLERANCE {
                            log.problem(format!(
                                "{} step {step}: rel L2 error {err:e} vs the f64 reference",
                                req.label(w)
                            ));
                        }
                    }
                }
            }
            expected[ri].push(out.clone());
        } else if out.is_some() && !same_bits(&out, expected[ri].get(step).unwrap_or(&None)) {
            log.problem(format!(
                "{} step {step}: output differs from the checked pass",
                req.label(w)
            ));
        }
        if let Mode::Rollout { .. } = w.mode {
            // Continue from this step's output, or from the recorded one
            // if the step failed, so every pass makes the same calls.
            let recorded = expected[ri].get(step).and_then(Option::as_ref);
            let y = match out.as_ref().or(recorded) {
                Some(ys) => ys[0].clone(),
                None => {
                    log.problem(format!(
                        "{} step {step}: no output to continue from",
                        req.label(w)
                    ));
                    return;
                }
            };
            if !in_normal_range(&y) {
                log.problem(format!(
                    "{} step {step}: field left the normal f32 range (rms {:e})",
                    req.label(w),
                    rms(&y)
                ));
            }
            xs = vec![if w.rescale { rescale(&y) } else { y }];
        }
    }
}

/// Set up a session: construct it and make the cold first call of every
/// request key. Returns the executor, the set-up time in seconds and the
/// cold call times in ms.
pub fn setup<E: Exec>(w: &Workload, make: impl FnOnce() -> E) -> (E, f64, Vec<f64>) {
    let t = Instant::now();
    let mut e = make();
    let mut cold = Vec::new();
    for ri in w.keys() {
        let req = &w.reqs[ri];
        let c = Instant::now();
        // Failures here are the same ones the passes count.
        let _ = e.forward(
            &w.models[req.model].fno,
            &req.xs,
            matches!(w.mode, Mode::Queue),
        );
        cold.push(c.elapsed().as_secs_f64() * 1e3);
    }
    (e, t.elapsed().as_secs_f64(), cold)
}

/// Run round `r`: requests `r * round ..` (cyclically).
pub fn run_round<E: Exec>(
    e: &mut E,
    w: &Workload,
    r: usize,
    expected: &mut Expected,
    log: &mut Log,
) {
    for k in 0..w.round {
        run_req(e, w, (r * w.round + k) % w.reqs.len(), expected, log);
    }
}

/// Modeled A100 figures of one round's operations, per operation:
/// `(TurboBest us, Pytorch us, TurboBest global MB, TurboBest flops,
/// TurboBest bank-conflict ratio)`. Keys whose planning fails are left out.
pub fn modeled(w: &Workload) -> [f64; 5] {
    let mut sess = Session::new(turbofno::SimBackend::a100());
    let (mut ops, mut turbo, mut pt, mut bytes, mut flops, mut ideal, mut actual) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for k in 0..w.round {
        let req = &w.reqs[k % w.reqs.len()];
        let fno = &w.models[req.model].fno;
        let measure = |sess: &mut Session<turbofno::SimBackend>, v: Variant| {
            guarded(|| {
                fno.layers
                    .iter()
                    .flat_map(|l| {
                        let spec = LayerSpec::from_shape(l.spectral.shape(req.rows())).variant(v);
                        sess.measure(&spec).launches
                    })
                    .collect::<Vec<_>>()
            })
        };
        let (Ok(t), Ok(p)) = (
            measure(&mut sess, VARIANT),
            measure(&mut sess, Variant::Pytorch),
        ) else {
            continue;
        };
        let n = w.ops_per_req() as f64;
        ops += n;
        turbo += n * t.iter().map(|l| l.time_us).sum::<f64>();
        pt += n * p.iter().map(|l| l.time_us).sum::<f64>();
        bytes += n * t.iter().map(|l| l.stats.global_bytes() as f64).sum::<f64>();
        flops += n * t.iter().map(|l| l.stats.flops as f64).sum::<f64>();
        ideal += n * t
            .iter()
            .map(|l| l.stats.shared_ideal_cycles as f64)
            .sum::<f64>();
        actual += n * t
            .iter()
            .map(|l| l.stats.shared_actual_cycles as f64)
            .sum::<f64>();
    }
    let ops = f64::max(ops, 1.0);
    [
        turbo / ops,
        pt / ops,
        bytes / ops / 1e6,
        flops / ops,
        if ideal > 0.0 { actual / ideal } else { 1.0 },
    ]
}
