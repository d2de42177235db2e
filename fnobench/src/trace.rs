//! The traced run's instruments: an in-memory span recorder, a delegating
//! [`Backend`] that times every launch, deferred completion, upload and
//! download, self-time accounting and a Chrome trace-event writer.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tfno_gpu_sim::{run_analytical_stats, GlobalMemory};
use tfno_num::C32;
use turbofno::backend::{
    lock_unpoisoned, BufferId, DeviceConfig, ExecMode, FaultPlan, FaultStats, Kernel, LaunchError,
    LaunchRecord, PendingLaunch,
};
use turbofno::{Backend, BackendCaps, BackendKind};

/// Kernel kinds launch spans are grouped by, with their span names.
pub const KINDS: [(&str, &str); 5] = [
    ("fused", "launch.fused"),
    ("fft", "launch.fft"),
    ("ifft", "launch.ifft"),
    ("cgemm", "launch.cgemm"),
    ("copy", "launch.copy"),
];

/// The kind index of a kernel, from the names the pipelines give them
/// (`turbo.fused2d_fft_gemm_ifft`, `pt2.ifft_y`, `serve.gather`, ...).
pub fn kind_of(name: &str) -> usize {
    let stage = name.rsplit('.').next().unwrap_or(name);
    if stage.contains("fused") {
        0
    } else if stage.starts_with("ifft") {
        2
    } else if stage.starts_with("fft") {
        1
    } else if stage.contains("gemm") {
        3
    } else {
        4
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The benchmark operation the span belongs to, shared by every span
    /// of one request on either thread.
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Modeled work of one launch, from the analytical cost model.
#[derive(Clone, Copy, Default)]
pub struct Work {
    pub flops: u64,
    pub bytes: u64,
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    upload_bytes: u64,
    download_bytes: u64,
    /// `(kernel name, grid)` -> modeled work of one launch, and launches
    /// since the last clear.
    work: HashMap<(String, usize), (Work, u64)>,
}

/// Span recorder shared by the benchmark thread and the session's
/// dispatch thread.
pub struct Tracer {
    epoch: Instant,
    op: AtomicU64,
    store: Mutex<Store>,
}

thread_local! {
    static TID: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            op: AtomicU64::new(0),
            store: Mutex::new(Store::default()),
        })
    }

    /// Every update leaves the store valid, so a lock poisoned by a panic
    /// elsewhere is recovered.
    fn store(&self) -> MutexGuard<'_, Store> {
        lock_unpoisoned(&self.store)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mark the start of benchmark operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// Run `f` inside a span called `name`. The span is recorded even
    /// when `f` unwinds, so a failed operation still shows its time.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        struct Guard<'a>(&'a Tracer, &'static str, u64);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                let span = self.0.make(self.1, self.2);
                self.0.store().spans.push(span);
            }
        }
        let _g = Guard(self, name, self.now_ns());
        f()
    }

    fn make(&self, name: &'static str, start_ns: u64) -> Span {
        Span {
            name,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns: self.now_ns(),
            op: self.op.load(Ordering::Relaxed),
        }
    }

    fn record(&self, name: &'static str, start_ns: u64) {
        let span = self.make(name, start_ns);
        self.store().spans.push(span);
    }

    /// Drop the spans, byte counters and launch counts recorded so far,
    /// keeping the per-kernel work table.
    pub fn clear(&self) {
        let mut s = self.store();
        s.spans.clear();
        s.upload_bytes = 0;
        s.download_bytes = 0;
        for entry in s.work.values_mut() {
            entry.1 = 0;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.store().spans.clone()
    }

    /// `(uploaded, downloaded)` bytes since the last [`Tracer::clear`].
    pub fn transfer_bytes(&self) -> (u64, u64) {
        let s = self.store();
        (s.upload_bytes, s.download_bytes)
    }

    /// Every kernel launched since the last [`Tracer::clear`]: kind index,
    /// modeled work of one launch and the launch count.
    pub fn launched(&self) -> Vec<(usize, Work, u64)> {
        self.store()
            .work
            .iter()
            .filter(|(_, (_, n))| *n > 0)
            .map(|((name, _), (w, n))| (kind_of(name), *w, *n))
            .collect()
    }

    fn note_launch(&self, memory: &GlobalMemory, kernel: &dyn Kernel) {
        let key = (kernel.name(), kernel.dims().grid_blocks);
        let known = self.store().work.get(&key).map(|e| e.0);
        // A kernel's first launch pays for its analytical model here,
        // outside the launch span; later launches are a table lookup.
        let w = known.unwrap_or_else(|| {
            let st = run_analytical_stats(memory, kernel, true);
            Work {
                flops: st.flops,
                bytes: st.global_bytes(),
            }
        });
        self.store().work.entry(key).or_insert((w, 0)).1 += 1;
    }

    /// Write every span as Chrome trace-event JSON (loads in
    /// `chrome://tracing` and Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.op
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its children on
/// the same thread cover. Spans on one thread nest (each is a scope), so
/// a sweep in start order with a stack finds each span's parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, u64::MAX - spans[i].end_ns));
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid == s.tid && s.start_ns >= t.start_ns && s.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(s.dur());
        }
        stack.push(i);
    }
    own
}

/// A [`Backend`] that delegates to `inner` and records a span around every
/// launch (named by kernel kind), deferred issue and completion, upload
/// and download. Analytical launches (planning, `Session::measure`) get
/// their own span name so they never count as kernel time.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Arc<Tracer>,
}

impl<B: Backend> TracedBackend<B> {
    pub fn new(inner: B, tracer: Arc<Tracer>) -> Self {
        TracedBackend { inner, tracer }
    }

    fn launch_span(&self, kernel: &dyn Kernel, mode: ExecMode) -> &'static str {
        match mode {
            ExecMode::Functional => {
                self.tracer.note_launch(self.inner.memory(), kernel);
                KINDS[kind_of(&kernel.name())].1
            }
            ExecMode::Analytical => "launch.analytical",
        }
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
    fn caps(&self) -> BackendCaps {
        self.inner.caps()
    }
    fn config(&self) -> &DeviceConfig {
        self.inner.config()
    }
    fn memory(&self) -> &GlobalMemory {
        self.inner.memory()
    }
    fn memory_mut(&mut self) -> &mut GlobalMemory {
        self.inner.memory_mut()
    }
    fn try_alloc(&mut self, name: &str, len: usize) -> Result<BufferId, LaunchError> {
        self.inner.try_alloc(name, len)
    }
    fn try_launch(
        &mut self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<LaunchRecord, LaunchError> {
        let name = self.launch_span(kernel, mode);
        let start = self.tracer.now_ns();
        let out = self.inner.try_launch(kernel, mode);
        self.tracer.record(name, start);
        out
    }
    fn try_launch_deferred(
        &self,
        kernel: &dyn Kernel,
        mode: ExecMode,
    ) -> Result<PendingLaunch, LaunchError> {
        let name = self.launch_span(kernel, mode);
        let start = self.tracer.now_ns();
        let out = self.inner.try_launch_deferred(kernel, mode);
        self.tracer.record(name, start);
        out
    }
    fn complete(&mut self, pending: PendingLaunch) -> LaunchRecord {
        let start = self.tracer.now_ns();
        let rec = self.inner.complete(pending);
        self.tracer.record("complete", start);
        rec
    }
    fn worker_key(&self) -> u64 {
        self.inner.worker_key()
    }
    fn set_workers(&mut self, workers: Option<usize>) {
        self.inner.set_workers(workers)
    }
    fn analytical_memo(&self) -> bool {
        self.inner.analytical_memo()
    }
    fn try_set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Result<(), LaunchError> {
        self.inner.try_set_fault_plan(plan)
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn launches(&self) -> &[LaunchRecord] {
        self.inner.launches()
    }
    fn clear_launches(&mut self) {
        self.inner.clear_launches()
    }
    fn upload(&mut self, id: BufferId, data: &[C32]) {
        let start = self.tracer.now_ns();
        self.inner.upload(id, data);
        self.tracer.record("upload", start);
        self.tracer.store().upload_bytes += std::mem::size_of_val(data) as u64;
    }
    fn download(&self, id: BufferId) -> Vec<C32> {
        let start = self.tracer.now_ns();
        let out = self.inner.download(id);
        self.tracer.record("download", start);
        self.tracer.store().download_bytes += std::mem::size_of_val(out.as_slice()) as u64;
        out
    }
}
