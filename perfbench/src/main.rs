//! Host-time benchmark of the Fleet simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <idle_relaunch|cohort_day|capacity_churn|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded and closed-loop. A run
//! repeats one pass of the workload (set-up, then a fixed list of
//! operations) for at most about `--seconds` of host time, at least once,
//! and reports each operation's median over the passes, in host time
//! scaled to reference speed (see [`speed`]). `--trace 0` times the
//! simulator with no spans and no `fleet::obs`/audit pipeline (the crates
//! are built without those features) and reports the end-to-end
//! metrics; `--trace 1` records spans
//! around every call the workload makes plus shadow calls into the inner
//! layers, prints the per-layer table, writes the raw spans under
//! `perfbench/out/` and reports the per-layer metrics. `--workload all`
//! runs every workload in a child process, untraced then traced, and
//! prints each table with the tracing overhead. The last stdout line of a
//! single-workload run is the JSON result.

mod meter;
mod report;
mod shadow;
mod speed;
#[cfg(test)]
mod tests;
mod workloads;

use meter::{median, peak_rss_mib, percentile, Meter};
use speed::{Reference, REFERENCE_MS};
use std::time::{Duration, Instant};
use workloads::{OpOut, Workload};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups of a run's first pass.
const SETUP_REPS: usize = 5;
/// Host time each pass spends setting up at least.
const SETUP_MIN: Duration = Duration::from_millis(50);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_reference: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--record-reference]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        record_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--record-reference" => args.record_reference = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        std::process::exit(report::run_all(&args.seed.to_string(), &args.seconds.to_string()));
    }
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one run measured.
///
/// A run repeats one *pass* of its workload: set up, then the same
/// operations in the same order. The simulator is deterministic, so every
/// pass does bit-identical simulated work (the digests check it). Host
/// times are scaled to reference speed (see [`speed`]), and each
/// operation's time is the median over the passes.
pub struct RunData {
    pub workload: String,
    pub seed: u64,
    pub passes: u64,
    /// Each set-up's host time at reference speed, in seconds.
    pub setup_s: Vec<f64>,
    /// Each operation's host time at reference speed in every pass, in ms.
    pub op_ms: Vec<Vec<f64>>,
    /// Each foreground launch's host time at reference speed in every
    /// pass, per operation, in ms.
    pub launch_ms: Vec<Vec<Vec<f64>>>,
    /// Simulated seconds of one pass.
    pub pass_sim_secs: f64,
    /// Simulated seconds of the whole run.
    pub sim_secs: f64,
    /// Raw host time of all operations of the run, in ms.
    pub raw_ms_total: f64,
    /// The same at reference speed, in ms.
    pub ref_ms_total: f64,
    /// Host time of every reference computation, in ms.
    pub reference_ms: Vec<f64>,
    /// The first pass's outputs.
    pub outs: Vec<OpOut>,
    pub failures: Vec<String>,
    pub attempted: u64,
    /// Peak resident memory once the first pass is done, in MiB.
    pub first_pass_rss_mib: f64,
}

impl RunData {
    /// Each operation's median time over the passes, in ms.
    pub fn op_medians(&self) -> Vec<f64> {
        self.op_ms.iter().map(|v| median(v)).collect()
    }

    /// Each launch's median time over the passes, in ms.
    pub fn launch_medians(&self) -> Vec<f64> {
        self.launch_ms.iter().flatten().map(|v| median(v)).collect()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let mut m = Meter::new(args.trace);
    let shipped = report::reference(&args.workload, args.seed);
    let mut data = RunData {
        workload: args.workload.clone(),
        seed: args.seed,
        passes: 0,
        setup_s: Vec::new(),
        op_ms: Vec::new(),
        launch_ms: Vec::new(),
        pass_sim_secs: 0.0,
        sim_secs: 0.0,
        raw_ms_total: 0.0,
        ref_ms_total: 0.0,
        reference_ms: Vec::new(),
        outs: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        first_pass_rss_mib: 0.0,
    };
    let mut speed = Reference::new();
    let (start, budget) = (Instant::now(), Duration::from_secs(args.seconds));
    let mut fastest_pass = Duration::MAX;
    let mut last: Option<Box<dyn Workload>> = None;
    // Another pass starts only if it should end within the budget.
    while data.passes == 0 || start.elapsed() + fastest_pass <= budget {
        drop(last.take());
        let pass_start = Instant::now();
        let mut before = speed.time_ms();
        // The first pass sets up SETUP_REPS times and every pass for at
        // least SETUP_MIN, so that the median rests on several samples and
        // not on the first, cold one; only the last instance is used.
        let mut built = None;
        let mut setups = Vec::new();
        let reps = if data.passes == 0 { SETUP_REPS } else { 1 };
        while setups.len() < reps || setups.iter().sum::<f64>() < SETUP_MIN.as_secs_f64() {
            drop(built.take());
            let t = Instant::now();
            built = Some(workloads::setup(&args.workload, args.seed)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut w = built.expect("at least one set-up");
        let after = speed.time_ms();
        let scale = Reference::scale(before, after);
        data.setup_s.extend(setups.iter().map(|s| s * scale));
        before = after;
        let first = data.passes == 0;
        for i in 0..w.pass_ops() {
            data.attempted += 1;
            let launches = m.launch_host_ns.len();
            let root = m.begin_root(i);
            let t = Instant::now();
            let out = w.op(i, &mut m);
            let host_ms = t.elapsed().as_secs_f64() * 1e3;
            m.end_root(root, "op");
            // The reference computation brackets the operation and, apart,
            // the after-op work (`cohort_day` times launches there).
            let mid = speed.time_ms();
            let scale = Reference::scale(before, mid);
            let mut launch_ms: Vec<f64> =
                m.launch_host_ns.drain(launches..).map(|ns| ns as f64 / 1e6 * scale).collect();
            let mut out = out.unwrap_or_else(|e| {
                data.failures.push(e);
                OpOut::default()
            });
            data.sim_secs += out.sim_secs;
            if first {
                data.pass_sim_secs += out.sim_secs;
            }
            if let Err(e) = w.after_op(i, &mut out, &mut m) {
                data.failures.push(e);
            }
            let after = speed.time_ms();
            let after_scale = Reference::scale(mid, after);
            launch_ms
                .extend(m.launch_host_ns.drain(launches..).map(|ns| ns as f64 / 1e6 * after_scale));
            data.reference_ms.extend([mid, after]);
            before = after;
            data.raw_ms_total += host_ms;
            data.ref_ms_total += host_ms * scale;
            let i = i as usize;
            if first {
                data.op_ms.push(Vec::new());
                data.launch_ms.push(launch_ms.into_iter().map(|ms| vec![ms]).collect());
            } else {
                for (samples, ms) in data.launch_ms[i].iter_mut().zip(launch_ms) {
                    samples.push(ms);
                }
            }
            data.op_ms[i].push(host_ms * scale);
            let expected = shipped.as_ref().and_then(|r| r.get(i).copied());
            let expected = expected.or_else(|| data.outs.get(i).map(|o| o.digest));
            if expected.is_some_and(|d| d != out.digest) {
                let pass = data.passes;
                data.failures.push(format!(
                    "pass {pass} op {i}: digest differs from the reference or the first pass"
                ));
            }
            if first {
                data.outs.push(out);
            }
        }
        if first {
            data.first_pass_rss_mib = peak_rss_mib();
        }
        data.passes += 1;
        fastest_pass = fastest_pass.min(pass_start.elapsed());
        last = Some(w);
    }
    if let Some(w) = last.as_mut() {
        data.failures.extend(w.finish(&mut m));
    }
    if args.trace {
        data.failures.extend(report::rerun_check(&args.workload, args.seed, &data.outs));
    }
    if args.record_reference {
        report::record_reference(&data.workload, args.seed, &data.outs)?;
    }
    for f in &data.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    Ok(result_json(&data, &m))
}

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics of an untraced run.
fn end_to_end(data: &RunData) -> Vec<Metric> {
    let op_ms = data.op_medians();
    let launch_ms = data.launch_medians();
    let ref_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("sim_s_per_ref_s".into(), data.pass_sim_secs / ref_s.max(1e-9), "s/s"),
        ("op_ref_ms_p50".into(), percentile(&op_ms, 50.0), "ms"),
        ("op_ref_ms_p75".into(), percentile(&op_ms, 75.0), "ms"),
        ("launch_ref_ms_p50".into(), percentile(&launch_ms, 50.0), "ms"),
        ("launch_ref_ms_p90".into(), percentile(&launch_ms, 90.0), "ms"),
        ("setup_s".into(), median(&data.setup_s), "s"),
        ("peak_rss_mib".into(), data.first_pass_rss_mib, "MiB"),
    ]
}

fn result_json(data: &RunData, m: &Meter) -> String {
    let failed = (data.failures.len() as u64).min(data.attempted);
    let metrics = match m.tracer() {
        None => {
            println!(
                "perfbench: {} seed {} untraced: fleet crates built without the audit/obs \
                 features, no fleet::obs pipeline installed, no spans recorded",
                data.workload, data.seed
            );
            println!(
                "perfbench: {} passes of {} ops ({} launches, {:.1} simulated s each), \
                 {} set-ups; ops_failed_frac {}",
                data.passes,
                data.op_ms.len(),
                data.launch_ms.iter().map(Vec::len).sum::<usize>(),
                data.pass_sim_secs,
                data.setup_s.len(),
                failed as f64 / data.attempted as f64
            );
            println!(
                "perfbench: host speed: reference computation median {:.3} ms (reference \
                 speed: {REFERENCE_MS} ms); raw host time {:.1} s = {:.1} s at reference speed",
                median(&data.reference_ms),
                data.raw_ms_total / 1e3,
                data.ref_ms_total / 1e3
            );
            end_to_end(data)
        }
        Some(tracer) => {
            let metrics = report::per_layer(data, tracer);
            print!("{}", report::table(data, tracer, &metrics));
            if let Err(e) = report::write_spans(data, &tracer.spans) {
                eprintln!("perfbench: {e}");
            }
            metrics
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        data.failures.is_empty(),
        data.attempted,
        failed,
        body.join(", ")
    )
}
