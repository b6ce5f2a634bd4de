//! The same workload over every `--net-backend`, through `dispatch`
//! exactly as `main` calls it. Carries ci.sh step 12(a) and 12(b) (retired).

use automon_cli::dispatch;
use serde::Value;

/// The parity workload on `backend`, plus `extra` flags.
fn net_smoke(backend: &str, extra: &[&str]) -> String {
    let base = [
        "net-smoke", "--nodes", "4", "--rounds", "40", "--dim", "2", "--seed", "3", "--epsilon",
        "0.4", "--net-backend", backend,
    ];
    let argv: Vec<String> = base.iter().chain(extra).map(|s| s.to_string()).collect();
    dispatch(&argv).unwrap_or_else(|e| panic!("{backend}: {e}"))
}

fn field(v: &Value, key: &str) -> Value {
    Value::get_field(v.as_map().expect("object"), key).clone()
}

#[test]
fn every_backend_reports_the_same_stats_and_trace() {
    let dir = std::env::temp_dir().join("automon_cli_net_smoke_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_of = |backend: &str| dir.join(format!("{backend}.jsonl")).display().to_string();
    let reports: Vec<Value> = ["sim", "threaded", "reactor"]
        .iter()
        .map(|backend| {
            let out = net_smoke(backend, &["--trace-out", &trace_of(backend)]);
            serde_json::from_str(&out).expect("valid JSON")
        })
        .collect();
    let sim_stats = field(&reports[0], "stats");
    assert!(
        matches!(field(&sim_stats, "lazy_syncs"), Value::UInt(n) if n > 0),
        "{sim_stats:?}"
    );
    for (report, backend) in reports[1..].iter().zip(["threaded", "reactor"]) {
        assert_eq!(field(report, "stats"), sim_stats, "{backend} vs sim");
        let transport = field(report, "transport");
        assert_eq!(field(&transport, "backend"), Value::Str(backend.into()));
        let total = field(&field(&transport, "syscalls"), "total");
        assert!(matches!(total, Value::UInt(n) if n > 0), "{backend}: {total:?}");
        let argv = ["trace", "diff", "--left", &trace_of("sim"), "--right", &trace_of(backend)];
        dispatch(&argv.map(str::to_string))
            .unwrap_or_else(|e| panic!("{backend} trace diverges from sim's: {e}"));
    }
}

/// Frame-level chaos on the sim backend: same seeds, same stdout and the
/// same `--trace-out` bytes, and that file is the standard telemetry JSONL.
#[test]
fn same_seed_sim_runs_are_byte_identical() {
    let dir = std::env::temp_dir().join("automon_cli_net_smoke_test");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str| {
        let trace = dir.join(name).display().to_string();
        let chaos = [
            "--chaos-seed", "9", "--drop-rate", "0.1", "--duplicate-rate", "0.05", "--delay-rate",
            "0.05", "--trace-out", &trace,
        ];
        (net_smoke("sim", &chaos), trace)
    };
    let ((out_a, trace_a), (out_b, trace_b)) = (run("chaos-a.jsonl"), run("chaos-b.jsonl"));
    assert_eq!(out_a, out_b);
    assert_eq!(std::fs::read(&trace_a).unwrap(), std::fs::read(&trace_b).unwrap());
    let summary = dispatch(&["trace", "summarize", "--input", &trace_a].map(str::to_string)).unwrap();
    assert!(summary.contains("comm by cause (bytes/update"), "{summary}");
    assert!(summary.contains("retransmit"), "{summary}");
}
