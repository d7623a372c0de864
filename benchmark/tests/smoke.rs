//! `--smoke` end to end, both binaries: each prints exactly the metrics
//! `BENCHMARK.json` names for its mode, and nothing fails.

use std::path::PathBuf;
use std::process::Command;

use ute_benchmark::json::Json;
use ute_benchmark::metrics::{unit_of, END_TO_END, PER_LAYER};
use ute_benchmark::workloads::Workload;

fn run(exe: &str, w: Workload, trace: &str) -> (Json, PathBuf) {
    let out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}-{trace}", w.name()));
    let o = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{} --trace {trace} failed:\n{stdout}\n{}",
        w.name(),
        String::from_utf8_lossy(&o.stderr)
    );
    (
        Json::parse(stdout.lines().last().expect("a result line")).unwrap(),
        out,
    )
}

fn check(j: &Json, expected: &[&str]) {
    let keys: Vec<&str> = j
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    assert!(j.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(j.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = j.get("metrics").unwrap().as_obj().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names, expected,
        "every listed metric is printed and nothing else is"
    );
    for (name, m) in metrics {
        assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
        assert_eq!(m.get("unit").unwrap().as_str(), unit_of(name));
    }
}

#[test]
fn untraced_smoke_prints_exactly_the_end_to_end_metrics() {
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let (j, _) = run(env!("CARGO_BIN_EXE_ute-benchmark"), w, "0");
        check(&j, &expected);
        for (name, m) in j.get("metrics").unwrap().as_obj().unwrap() {
            assert!(
                m.get("value").unwrap().as_f64().unwrap() > 0.0,
                "{name} is 0"
            );
        }
    }
}

#[test]
fn traced_smoke_prints_exactly_the_per_layer_metrics_and_writes_the_trace() {
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    for w in Workload::ALL {
        let (j, out) = run(env!("CARGO_BIN_EXE_ute-benchmark-traced"), w, "1");
        check(&j, &expected);
        let trace = std::fs::read_to_string(out.join(format!("trace-{}.json", w.name()))).unwrap();
        let trace = Json::parse(&trace).unwrap();
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").unwrap().as_str() == Some("replay.merge")));
        for s in spans {
            for key in [
                "name",
                "layer",
                "start_ns",
                "end_ns",
                "parent",
                "records",
                "bytes_in",
                "bytes_out",
            ] {
                assert!(s.get(key).is_some(), "span without `{key}`");
            }
        }
        assert_eq!(
            trace.get("layers").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(!out.join(format!("work-{}", std::process::id())).exists());
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    let o = Command::new(env!("CARGO_BIN_EXE_ute-benchmark"))
        .args([
            "--workload",
            "fanin256",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!o.status.success());
    assert!(o.stdout.is_empty());
}
