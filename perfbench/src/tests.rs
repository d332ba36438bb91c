//! The benchmark's own checks: tracing does not perturb the simulation,
//! the shipped reference digests reproduce, and `BENCHMARK.json` names
//! exactly the metrics the benchmark reports.

use super::*;
use crate::meter::Span;

/// Digests of the first `ops` operations (with their after-op work) of a
/// fresh instance of `workload`.
fn digests(workload: &str, seed: u64, ops: u64, trace: bool) -> Vec<u64> {
    let mut w = workloads::setup(workload, seed).expect("workload builds");
    let mut m = Meter::new(trace);
    (0..ops)
        .map(|i| {
            let mut out = w.op(i, &mut m).expect("operation succeeds");
            w.after_op(i, &mut out, &mut m).expect("after-op checks pass");
            out.digest
        })
        .collect()
}

#[test]
fn tracing_does_not_perturb_any_workload() {
    for (workload, ops) in [("idle_relaunch", 20), ("cohort_day", 2), ("capacity_churn", 9)] {
        let plain = digests(workload, 7, ops, false);
        assert_eq!(plain, digests(workload, 7, ops, true), "{workload}");
    }
}

#[test]
fn reference_digests_reproduce() {
    for (workload, ops) in [("idle_relaunch", 20), ("cohort_day", 2), ("capacity_churn", 9)] {
        let reference = report::reference(workload, DEFAULT_SEED).expect("reference recorded");
        assert_eq!(digests(workload, DEFAULT_SEED, ops, false), reference[..ops as usize]);
    }
}

/// The `"name"` values of one section of `BENCHMARK.json`.
fn names(json: &str, section: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let data = RunData {
        workload: "idle_relaunch".into(),
        seed: DEFAULT_SEED,
        passes: 0,
        setup_s: vec![1.0],
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
    let reported = |m: Vec<Metric>| m.into_iter().map(|(n, _, _)| n).collect::<Vec<_>>();
    assert_eq!(names(&json, "end_to_end"), reported(end_to_end(&data)));
    let traced = Meter::new(true);
    let tracer = traced.tracer().expect("traced meter");
    assert_eq!(names(&json, "per_layer"), reported(report::per_layer(&data, tracer)));
    assert_eq!(names(&json, "workloads"), workloads::NAMES);
}

#[test]
fn self_time_subtracts_children_and_shadows_are_reported_apart() {
    let span = |id, parent, shadow_for, name, start_ns, end_ns| Span {
        id,
        parent,
        shadow_for,
        op: 0,
        name,
        start_ns,
        end_ns,
    };
    let spans = vec![
        span(2, 1, 0, "device.hot_launch", 10, 40),
        span(3, 1, 2, "apps.launch_access", 40, 60),
        span(1, 0, 0, "op", 0, 100),
    ];
    let rows = report::rows(&spans);
    assert_eq!(rows["op"].self_ns, 50);
    assert_eq!(rows["device.hot_launch"].self_ns, 30);
    assert_eq!(rows["device.hot_launch"].shadow_ns, 20);
    assert_eq!(rows["apps.launch_access"].total_ns, 20);
}
