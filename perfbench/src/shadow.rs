//! Shadow calls: the inner layers (`apps`, `heap`, `gc`, `kernel`) cannot
//! be wrapped from outside the device, so a traced run replays their
//! public calls on cloned state. The clones are taken just before the
//! device call they estimate and the replay runs just after it, so the
//! device call itself runs on caches the shadow work has not warmed. The
//! device is only ever borrowed immutably here, so shadow work cannot
//! change what the workload simulates.

use crate::meter::Meter;
use fleet::{AppState, Device, SchemeKind};
use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GcStats, GroupingGc, MemoryTouch,
};
use fleet_heap::Heap;
use fleet_kernel::{AccessKind, MemoryManager, Pid, PAGE_SIZE};
use fleet_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::time::Instant;

/// Maximal runs `(first_page, pages)` of a sorted page list.
fn page_runs(pages: &[u64]) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &p in pages {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == p => *len += 1,
            _ => runs.push((p, 1)),
        }
    }
    runs
}

/// Shadow work captured before a device call and run after it; the
/// argument is the id of the device span it estimates.
pub type Deferred = Box<dyn FnOnce(&mut Meter, u32)>;

/// Clones what hot-launching `pid` reads and returns the shadow of its
/// inner-layer work: the launch working set (`AppBehavior::launch_access`),
/// its pages (`Heap::pages_of`) and the launch faults over those page runs
/// and the native and file ranges (`MemoryManager::access`).
/// `None` when the run is not traced or `pid` is already in the foreground
/// (a launch that does no work).
pub fn launch(m: &mut Meter, device: &Device, pid: Pid) -> Option<Deferred> {
    if !m.tracing() || device.foreground() == Some(pid) {
        return None;
    }
    let proc = device.process(pid);
    let (mut behavior, heap, mut mm) =
        m.span("shadow.clone", || (proc.behavior.clone(), proc.heap.clone(), device.mm().clone()));
    let launch = proc.behavior.profile().launch;
    let native = (proc.native_base, (proc.native_len as f64 * launch.native_touch_frac) as u64);
    let file = (proc.file_base, (proc.file_len as f64 * launch.file_touch_frac) as u64);
    Some(Box::new(move |m: &mut Meter, target: u32| {
        let access = m.shadow("apps.launch_access", target, || behavior.launch_access(&heap));
        let pages: Vec<u64> = m.shadow("heap.pages_of", target, || {
            let mut set = BTreeSet::new();
            for &obj in &access.objects {
                set.extend(heap.pages_of(obj));
            }
            set.into_iter().collect()
        });
        let (calls, touched, faulted) = m.shadow("kernel.access.launch", target, || {
            let mut ranges: Vec<(u64, u64)> = page_runs(&pages)
                .into_iter()
                .map(|(p, n)| (p * PAGE_SIZE, n * PAGE_SIZE))
                .collect();
            ranges.push(native);
            ranges.push(file);
            let (mut touched, mut faulted) = (0u64, 0u64);
            for &(addr, len) in &ranges {
                let o = mm.access(pid, addr, len, AccessKind::Launch);
                touched += o.touched_pages;
                faulted += o.faulted_pages;
            }
            (ranges.len() as u64, touched, faulted)
        });
        m.count("apps.launch_access.objects", access.objects.len() as f64);
        m.count("heap.live_objects_at_launch", heap.live_objects() as f64);
        m.count("heap.launch_pages", pages.len() as f64);
        m.count("kernel.access.launch.calls", calls as f64);
        m.count("kernel.access.launch.touched_pages", touched as f64);
        m.count("kernel.access.launch.faulted_pages", faulted as f64);
    }))
}

/// Runs a deferred shadow against device span `target`, if there is one.
pub fn finish(m: &mut Meter, shadow: Option<Deferred>, target: u32) {
    if let Some(shadow) = shadow {
        shadow(m, target);
    }
}

/// A [`MemoryTouch`] that forwards every GC read to a cloned memory
/// manager and counts the calls, the host time inside them and the pages.
struct CountingTouch<'a> {
    mm: &'a mut MemoryManager,
    pid: Pid,
    calls: u64,
    busy_ns: u64,
    pages: Vec<u64>,
}

impl MemoryTouch for CountingTouch<'_> {
    fn touch(&mut self, addr: u64, size: u32) -> SimDuration {
        self.calls += 1;
        let size = u64::from(size.max(1));
        self.pages.extend(addr / PAGE_SIZE..=(addr + size - 1) / PAGE_SIZE);
        let t = Instant::now();
        let out = self.mm.access(self.pid, addr, size, AccessKind::Gc);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        out.latency
    }
}

/// The GC cost model a device derives from its config.
fn gc_cost(device: &Device) -> GcCostModel {
    let scale = u64::from(device.config().scale);
    GcCostModel {
        per_object_trace: SimDuration::from_nanos(150 * scale),
        copy_bytes_per_sec: 4.0e9 / scale as f64,
        per_card_scan: SimDuration::from_nanos(200 * scale),
        stw_base: SimDuration::from_micros(800),
        marvin_per_stub_stw: SimDuration::from_nanos(6000 * scale),
    }
}

/// The background process whose next GC timer fires first (ties: lowest
/// pid), or `None` when no app is in the background.
fn next_background_gc(device: &Device) -> Option<Pid> {
    device
        .processes()
        .filter(|p| p.state == AppState::Background)
        .min_by_key(|p| {
            let due = [p.next_bg_gc, p.fleet.grouping_due].into_iter().flatten().min();
            (due.unwrap_or(SimTime::from_nanos(u64::MAX)), p.pid.0)
        })
        .map(|p| p.pid)
}

/// Clones the heap of the background process whose GC is due next and
/// returns the shadow of the collection the device would run on it.
/// Workloads call this right after a launch, when the app it sent to the
/// background has its timers freshly armed (Fleet's grouping GC included);
/// `None` when the run is not traced or no app is in the background.
pub fn gc(m: &mut Meter, device: &Device) -> Option<Deferred> {
    if !m.tracing() {
        return None;
    }
    let pid = next_background_gc(device)?;
    let proc = device.process(pid);
    let config = device.config();
    let cost = gc_cost(device);
    let (heap, mm) = m.span("shadow.clone", || (proc.heap.clone(), device.mm().clone()));
    type Collect = Box<dyn FnMut(&mut Heap, &mut dyn MemoryTouch) -> GcStats>;
    let (name, collector): (&'static str, Collect) = match config.scheme {
        SchemeKind::Marvin => {
            let mut gc = proc.marvin.clone().expect("a Marvin process has a Marvin collector");
            ("gc.collect.marvin", Box::new(move |h, t| gc.collect(h, t)))
        }
        SchemeKind::Fleet if proc.fleet.grouping_due.is_some() => {
            let done = proc.fleet.groupings_done;
            let ws = proc.behavior.working_set().clone();
            let mut gc = GroupingGc::new(cost, config.fleet.depth, ws)
                .with_incremental(done > 0 && !done.is_multiple_of(8));
            ("gc.collect.grouping", Box::new(move |h, t| gc.collect_grouping(h, t).0))
        }
        SchemeKind::Fleet if !config.fleet_disable_bgc => {
            ("gc.collect.bgc", Box::new(move |h, t| BackgroundObjectGc::new(cost).collect(h, t)))
        }
        _ => ("gc.collect.full", Box::new(move |h, t| FullCopyingGc::new(cost).collect(h, t))),
    };
    Some(Box::new(move |m: &mut Meter, _target: u32| {
        let (mut heap, mut mm, mut collector) = (heap, mm, collector);
        let mut touch = CountingTouch { mm: &mut mm, pid, calls: 0, busy_ns: 0, pages: Vec::new() };
        let stats = m.shadow(name, 0, || collector(&mut heap, &mut touch));
        let mut pages = std::mem::take(&mut touch.pages);
        pages.sort_unstable();
        pages.dedup();
        m.count("gc.objects_traced", stats.objects_traced as f64);
        m.count("gc.touch_calls", touch.calls as f64);
        m.count("gc.touch_pages", pages.len() as f64);
        m.count("gc.touch.busy_ns", touch.busy_ns as f64);
    }))
}
