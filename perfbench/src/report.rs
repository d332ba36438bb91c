//! Reference digests, the traced run's per-layer report and metrics, and
//! the `--workload all` runner.

use crate::meter::{percentile, Span, Tracer};
use crate::workloads::{self, OpOut};
use crate::{Metric, RunData};
use fleet::LaunchKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::Command;

fn reference_text(workload: &str) -> &'static str {
    match workload {
        "idle_relaunch" => include_str!("../reference/idle_relaunch.txt"),
        "cohort_day" => include_str!("../reference/cohort_day.txt"),
        "capacity_churn" => include_str!("../reference/capacity_churn.txt"),
        _ => "",
    }
}

/// The shipped digests of `workload`'s first pass for `seed`, if
/// recorded. Each line of a reference file is a seed followed by one hex
/// digest per operation.
pub fn reference(workload: &str, seed: u64) -> Option<Vec<u64>> {
    reference_text(workload).lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()?.parse::<u64>().ok()? == seed).then(|| {
            fields.map(|h| u64::from_str_radix(h, 16).expect("reference digests are hex")).collect()
        })
    })
}

/// Records the digests of a run's first pass as `workload`'s reference for
/// `seed`, keeping the other seeds' lines.
pub fn record_reference(workload: &str, seed: u64, outs: &[OpOut]) -> Result<(), String> {
    let path = format!("{}/reference/{workload}.txt", env!("CARGO_MANIFEST_DIR"));
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: BTreeMap<u64, String> = old
        .lines()
        .filter_map(|l| Some((l.split_whitespace().next()?.parse().ok()?, l.to_string())))
        .collect();
    let digests: Vec<String> = outs.iter().map(|o| format!("{:016x}", o.digest)).collect();
    lines.insert(seed, format!("{seed} {}", digests.join(" ")));
    let text: String = lines.values().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("perfbench: recorded {} digests for seed {seed} to {path}", digests.len());
    Ok(())
}

/// The end-of-run determinism check: a fresh, untraced instance of the
/// workload must reproduce the run's first digests. For a traced run this
/// is the no-perturbation check.
pub fn rerun_check(workload: &str, seed: u64, outs: &[OpOut]) -> Vec<String> {
    let ops = match workload {
        "cohort_day" => 1,
        _ => 18,
    };
    let mut w = match workloads::setup(workload, seed) {
        Ok(w) => w,
        Err(e) => return vec![format!("untraced re-run: {e}")],
    };
    let mut m = crate::meter::Meter::new(false);
    for (i, t) in outs.iter().take(ops).enumerate() {
        match w.op(i as u64, &mut m) {
            Ok(out) if out.digest == t.digest => {}
            Ok(_) => return vec![format!("op {i}: a fresh untraced re-run gives another digest")],
            Err(e) => return vec![format!("untraced re-run: {e}")],
        }
    }
    Vec::new()
}

/// Per-name span totals.
#[derive(Default)]
pub(crate) struct Row {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub shadow_ns: u64,
}

/// Totals per span name. Self time is a span's duration minus the part of
/// it its structural children cover; `shadow_ns` sums the shadow calls
/// that name the span in `shadow_for`.
pub(crate) fn rows(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    let mut shadowed = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            covered[p] += b.saturating_sub(a);
        }
        if let Some(&t) = index.get(&s.shadow_for) {
            shadowed[t] += s.dur_ns();
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = rows.entry(s.name).or_default();
        r.count += 1;
        r.total_ns += s.dur_ns();
        r.self_ns += s.dur_ns().saturating_sub(covered[i]);
        r.shadow_ns += shadowed[i];
    }
    rows
}

/// Collectors a shadow call can run: those the device runs on background
/// apps (the minor GC only runs in the foreground).
const SHADOW_GC_KINDS: [&str; 4] = ["full", "bgc", "grouping", "marvin"];
const GC_KINDS: [&str; 5] = ["minor", "full", "bgc", "grouping", "marvin"];

/// The per-layer metrics of a traced run.
pub fn per_layer(data: &RunData, tracer: &Tracer) -> Vec<Metric> {
    let rows = rows(&tracer.spans);
    let c = |name: &str| tracer.counters.get(name).copied().unwrap_or(0.0);
    let ms = |name: &str| rows.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e6);
    let n = |name: &str| rows.get(name).map_or(0.0, |r| r.count as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Shadow work: the shadow calls themselves plus the cloning they need.
    let is_shadow = |s: &Span| {
        s.shadow_for != 0 || s.name.starts_with("shadow.") || s.name.starts_with("gc.collect.")
    };
    let ops: BTreeSet<u32> = tracer.spans.iter().filter(|s| s.name == "op").map(|s| s.id).collect();
    let op_ns: u64 = tracer.spans.iter().filter(|s| s.name == "op").map(Span::dur_ns).sum();
    let shadow_in_op_ns: u64 = tracer
        .spans
        .iter()
        .filter(|s| is_shadow(s) && ops.contains(&s.parent))
        .map(Span::dur_ns)
        .sum();
    let shadow_ns: u64 = tracer.spans.iter().filter(|s| is_shadow(s)).map(Span::dur_ns).sum();
    let slices: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name.starts_with("device.slice"))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();

    // Deterministic simulated metrics over one pass.
    let head = &data.outs;
    let launches = || head.iter().flat_map(|o| o.launches.iter());
    let launch_ms: Vec<f64> = launches().map(|r| r.total.as_millis_f64()).collect();
    let hot_ms: Vec<f64> =
        launches().filter(|r| r.kind == LaunchKind::Hot).map(|r| r.total.as_millis_f64()).collect();
    let head_sim_h: f64 = head.iter().map(|o| o.sim_secs).sum::<f64>() / 3600.0;
    let head_kills: u64 = head.iter().map(|o| o.kills).sum();

    let collect_ns: f64 =
        SHADOW_GC_KINDS.iter().map(|k| ms(&format!("gc.collect.{k}")) * 1e6).sum();
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));
    for kind in ["hot_launch", "cold_launch"] {
        put(&format!("device.{kind}.count"), n(&format!("device.{kind}")), "count");
        put(&format!("device.{kind}.busy_ms"), ms(&format!("device.{kind}")), "ms");
    }
    put(
        "device.hot_launch.shadow_ms",
        rows.get("device.hot_launch").map_or(0.0, |r| r.shadow_ns as f64 / 1e6),
        "ms",
    );
    put("device.slice.count", n("device.slice_gc") + n("device.slice_quiet"), "count");
    put("device.slice.busy_ms", ms("device.slice_gc") + ms("device.slice_quiet"), "ms");
    put("device.slice.p99_us", percentile(&slices, 99.0), "us");
    put("device.slice_gc.busy_ms", ms("device.slice_gc"), "ms");
    put("device.slice_quiet.busy_ms", ms("device.slice_quiet"), "ms");
    for call in ["sample_device", "run_device_day", "absorb", "evaluate_slos", "pool_boot"] {
        put(&format!("population.{call}.busy_ms"), ms(&format!("population.{call}")), "ms");
    }
    let objects = c("apps.launch_access.objects");
    put("apps.launch_access.count", n("apps.launch_access"), "count");
    put("apps.launch_access.busy_ms", ms("apps.launch_access"), "ms");
    put("apps.launch_access.objects", objects, "count");
    put("apps.launch_access.ns_per_object", ratio(ms("apps.launch_access") * 1e6, objects), "ns");
    put(
        "apps.launch_access.useful_ratio",
        ratio(objects, c("heap.live_objects_at_launch")),
        "ratio",
    );
    put("heap.pages_of.busy_ms", ms("heap.pages_of"), "ms");
    put("heap.launch_pages", c("heap.launch_pages"), "count");
    put("heap.live_objects_at_launch", c("heap.live_objects_at_launch"), "count");
    for k in SHADOW_GC_KINDS {
        put(&format!("gc.collect.{k}.count"), n(&format!("gc.collect.{k}")), "count");
        put(&format!("gc.collect.{k}.busy_ms"), ms(&format!("gc.collect.{k}")), "ms");
    }
    put("gc.objects_traced", c("gc.objects_traced"), "count");
    put("gc.ns_per_object_traced", ratio(collect_ns, c("gc.objects_traced")), "ns");
    put("gc.touch_calls", c("gc.touch_calls"), "count");
    put("gc.touch.busy_ms", c("gc.touch.busy_ns") / 1e6, "ms");
    put("gc.touch_calls_per_page", ratio(c("gc.touch_calls"), c("gc.touch_pages")), "ratio");
    for k in GC_KINDS {
        let name = format!("gc.real.collections.{k}");
        put(&name, c(&name), "count");
    }
    put("gc.real.objects_traced", c("gc.real.objects_traced"), "count");
    put("kernel.access.launch.calls", c("kernel.access.launch.calls"), "count");
    put("kernel.access.launch.busy_ms", ms("kernel.access.launch"), "ms");
    put(
        "kernel.launch_fault_ratio",
        ratio(c("kernel.access.launch.faulted_pages"), c("kernel.access.launch.touched_pages")),
        "ratio",
    );
    for k in [
        "kernel.faults",
        "kernel.faults_launch",
        "kernel.faults_gc",
        "kernel.pages_swapped_out",
        "kernel.zram_writeback_pages",
        "kernel.fault_retries",
        "kernel.swap_read_errors",
        "reclaim.kills",
        "reclaim.escalations",
        "reclaim.proactive_pages",
    ] {
        put(k, c(k), "count");
    }
    put("sim.launch_ms_p50", percentile(&launch_ms, 50.0), "sim_ms");
    put("sim.launch_ms_p90", percentile(&launch_ms, 90.0), "sim_ms");
    put("sim.hot_launch_ms_p50", percentile(&hot_ms, 50.0), "sim_ms");
    put("sim.hot_launch_ms_p90", percentile(&hot_ms, 90.0), "sim_ms");
    put("sim.lmk_kills_per_sim_hour", ratio(head_kills as f64, head_sim_h), "1/sim_h");
    put(
        "sim.cached_apps_max_fleet",
        head.iter().map(|o| o.cached_fleet).max().unwrap_or(0) as f64,
        "count",
    );
    put("trace.spans", tracer.spans.len() as f64, "count");
    put("trace.shadow.busy_ms", shadow_ns as f64 / 1e6, "ms");
    // The traced operations' host time less shadow work, at reference speed.
    let net_ref_s = op_ns.saturating_sub(shadow_in_op_ns) as f64 / 1e9
        * ratio(data.ref_ms_total, data.raw_ms_total);
    put("trace.sim_s_per_ref_s_net", ratio(data.sim_secs, net_ref_s), "s/s");

    out
}

/// The per-layer table of a traced run: self time per span name as a
/// share of the operations' host time, the hot-launch accounting, and the
/// counters and ratios beside it.
pub fn table(data: &RunData, tracer: &Tracer, metrics: &[Metric]) -> String {
    let rows = rows(&tracer.spans);
    let root_ns: u64 = tracer.spans.iter().filter(|s| s.parent == 0).map(Span::dur_ns).sum();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} (seed {}): {} ops, {:.1} simulated s, {:.1} ms traced host time ==",
        data.workload,
        data.seed,
        data.attempted,
        data.sim_secs,
        root_ns as f64 / 1e6
    );
    let _ = writeln!(
        s,
        "{:<28} {:>8} {:>11} {:>11} {:>7} {:>11}",
        "span", "count", "total ms", "self ms", "self %", "shadow ms"
    );
    let mut sorted: Vec<(&&'static str, &Row)> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    for (name, r) in sorted {
        let _ = writeln!(
            s,
            "{:<28} {:>8} {:>11.2} {:>11.2} {:>6.1}% {:>11}",
            name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / root_ns.max(1) as f64,
            if r.shadow_ns > 0 { format!("{:.2}", r.shadow_ns as f64 / 1e6) } else { "-".into() }
        );
    }
    if let Some(hot) = rows.get("device.hot_launch") {
        let by_layer: Vec<String> = ["apps.launch_access", "heap.pages_of", "kernel.access.launch"]
            .iter()
            .map(|l| format!("{l} {:.2}", rows.get(l).map_or(0.0, |r| r.total_ns as f64 / 1e6)))
            .collect();
        let _ = writeln!(
            s,
            "device.hot_launch: {:.2} ms measured = {:.2} ms shadow children ({}) + {:.2} ms remainder",
            hot.total_ns as f64 / 1e6,
            hot.shadow_ns as f64 / 1e6,
            by_layer.join(", "),
            hot.total_ns as f64 / 1e6 - hot.shadow_ns as f64 / 1e6
        );
    }
    let _ = writeln!(s, "counters and ratios:");
    for (name, v, unit) in metrics {
        if !rows.keys().any(|k| name.starts_with(k) && name.ends_with("busy_ms")) {
            let _ = writeln!(s, "  {name:<36} {v:>16.3} {unit}");
        }
    }
    s
}

/// Writes the raw spans of a traced run as JSON lines under `out/`.
pub fn write_spans(data: &RunData, spans: &[Span]) -> Result<(), String> {
    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let path = format!("{dir}/spans-{}-seed{}.jsonl", data.workload, data.seed);
    let mut text = String::with_capacity(spans.len() * 96);
    for sp in spans {
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{},\"shadow_for\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id, sp.parent, sp.shadow_for, sp.op, sp.name, sp.start_ns, sp.end_ns
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
    println!("perfbench: wrote {} spans to {path}", spans.len());
    Ok(())
}

/// The numeric value of metric `name` in a result line.
fn metric(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 14;
    let rest = &json[at..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Runs every workload in its own child process, untraced then traced,
/// and prints each per-layer table with the tracing overhead and the
/// hot-launch accounting.
pub fn run_all(seed: &str, seconds: &str) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let mut status = 0;
    for w in workloads::NAMES {
        let mut last = [String::new(), String::new()];
        for (t, slot) in last.iter_mut().enumerate() {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", seed, "--seconds", seconds])
                .args(["--trace", &t.to_string()])
                .output();
            let out = match out {
                Ok(out) if out.status.success() => out,
                Ok(out) => {
                    eprintln!("perfbench: {w} --trace {t} exited with {}", out.status);
                    status = 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    return 1;
                }
            };
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let mut lines: Vec<&str> = text.lines().collect();
            *slot = lines.pop().unwrap_or_default().to_string();
            if t == 1 {
                for l in lines {
                    println!("{l}");
                }
            }
            if !slot.contains("\"correct\": true") {
                status = 1;
            }
        }
        let [plain, traced] = &last;
        let hot = |name: &str| metric(traced, &format!("device.hot_launch.{name}"));
        if let (Some(n), Some(busy), Some(shadow), Some(p50)) = (
            hot("count").filter(|&n| n > 0.0),
            hot("busy_ms"),
            hot("shadow_ms"),
            metric(plain, "launch_ref_ms_p50"),
        ) {
            println!(
                "hot launch on {w}: traced mean {:.2} ms = {:.2} ms in shadowed layers + {:.2} ms \
                 remainder (host time); untraced launch p50 {p50:.2} ms at reference speed",
                busy / n,
                shadow / n,
                (busy - shadow) / n
            );
        }
        let plain = metric(plain, "sim_s_per_ref_s");
        let net = metric(traced, "trace.sim_s_per_ref_s_net");
        if let (Some(plain), Some(net)) = (plain, net) {
            println!(
                "tracing overhead on {w}: {:.1}% (untraced {plain:.1} vs traced-minus-shadow \
                 {net:.1} simulated s per second at reference speed)\n",
                100.0 * (plain - net) / plain
            );
        }
    }
    status
}
