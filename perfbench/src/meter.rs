//! Host-time measurement: launch and slice timers for every run, plus the
//! in-memory span recorder and per-layer counters of a traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), a structural parent and the id of the operation it belongs to.
//! A *shadow* span times an inner-layer call replayed on cloned state; it
//! sits outside the device span it estimates and names that span in
//! `shadow_for`.

use fleet::{Device, LaunchKind, LaunchReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Structural parent (0 = none): the span whose interval contains it.
    pub parent: u32,
    /// The device span this shadow call estimates (0 = not a shadow).
    pub shadow_for: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans and counters of a traced run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    next_id: u32,
    op: u64,
    pub counters: BTreeMap<String, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Measurement hub handed to every workload call.
pub struct Meter {
    tracer: Option<Tracer>,
    /// Host time of every foreground launch the workload issued.
    pub launch_host_ns: Vec<u64>,
}

impl Meter {
    pub fn new(trace: bool) -> Self {
        Meter { tracer: trace.then(Tracer::new), launch_host_ns: Vec::new() }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Adds `v` to counter `name` (traced runs only).
    pub fn count(&mut self, name: &str, v: f64) {
        if let Some(t) = self.tracer.as_mut() {
            *t.counters.entry(name.to_string()).or_insert(0.0) += v;
        }
    }

    /// Allocates a span id before the span starts, so shadow calls made
    /// ahead of it can name it.
    pub fn reserve(&mut self) -> u32 {
        match self.tracer.as_mut() {
            Some(t) => {
                let id = t.next_id;
                t.next_id += 1;
                id
            }
            None => 0,
        }
    }

    /// Opens span `id` (from [`Meter::reserve`]); returns its start.
    fn open(&mut self, id: u32) -> u64 {
        match self.tracer.as_mut() {
            Some(t) => {
                t.stack.push(id);
                t.now_ns()
            }
            None => 0,
        }
    }

    fn close(&mut self, id: u32, name: &'static str, start_ns: u64, shadow_for: u32) {
        if let Some(t) = self.tracer.as_mut() {
            let end_ns = t.now_ns();
            t.stack.pop();
            let parent = t.stack.last().copied().unwrap_or(0);
            t.spans.push(Span { id, parent, shadow_for, op: t.op, name, start_ns, end_ns });
        }
    }

    /// Runs `f` inside span `name` (a plain call when not tracing).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.reserve();
        let start = self.open(id);
        let out = f();
        self.close(id, name, start, 0);
        out
    }

    /// Runs `f` as a shadow call estimating the device span `target`.
    pub fn shadow<T>(&mut self, name: &'static str, target: u32, f: impl FnOnce() -> T) -> T {
        let id = self.reserve();
        let start = self.open(id);
        let out = f();
        self.close(id, name, start, target);
        out
    }

    /// Opens a root span of operation `op`, closed by [`Meter::end_root`].
    pub fn begin_root(&mut self, op: u64) -> (u32, u64) {
        if let Some(t) = self.tracer.as_mut() {
            t.op = op;
        }
        let id = self.reserve();
        (id, self.open(id))
    }

    pub fn end_root(&mut self, (id, start): (u32, u64), name: &'static str) {
        self.close(id, name, start, 0);
    }

    /// Times one foreground launch. `id` is a span id reserved before any
    /// shadow calls for this launch; the span is named by the launch kind.
    pub fn launch<E>(
        &mut self,
        id: u32,
        f: impl FnOnce() -> Result<LaunchReport, E>,
    ) -> Result<LaunchReport, E> {
        let start_span = self.open(id);
        let t = Instant::now();
        let out = f();
        let host = t.elapsed().as_nanos() as u64;
        let name = match &out {
            Ok(r) if r.kind == LaunchKind::Hot => "device.hot_launch",
            Ok(_) => "device.cold_launch",
            Err(_) => "device.failed_launch",
        };
        self.close(id, name, start_span, 0);
        if out.is_ok() {
            self.launch_host_ns.push(host);
        }
        out
    }

    /// Advances `device` by `secs` one-second slices. A traced run times
    /// each slice and splits it by whether any process logged a GC in it.
    pub fn run(&mut self, device: &mut Device, secs: u64) {
        if !self.tracing() {
            device.run(secs);
            return;
        }
        for _ in 0..secs {
            let before: Vec<(fleet_kernel::Pid, usize)> =
                device.processes().map(|p| (p.pid, p.gcs.len())).collect();
            let id = self.reserve();
            let start = self.open(id);
            device.run(1);
            let mut gc_kinds: Vec<&'static str> = Vec::new();
            let mut traced = 0u64;
            for (pid, n) in before {
                if let Ok(p) = device.try_process(pid) {
                    for rec in &p.gcs[n.min(p.gcs.len())..] {
                        gc_kinds.push(gc_name(rec.stats.kind));
                        traced += rec.stats.objects_traced;
                    }
                }
            }
            let name = if gc_kinds.is_empty() { "device.slice_quiet" } else { "device.slice_gc" };
            self.close(id, name, start, 0);
            for k in gc_kinds {
                self.count(&format!("gc.real.collections.{k}"), 1.0);
            }
            self.count("gc.real.objects_traced", traced as f64);
        }
    }
}

pub fn gc_name(kind: fleet_gc::GcKind) -> &'static str {
    use fleet_gc::GcKind::*;
    match kind {
        Minor => "minor",
        Full => "full",
        Bgc => "bgc",
        Grouping => "grouping",
        Marvin => "marvin",
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
