//! `/BENCHMARK.json` against the tables the binaries print from.

use ute_benchmark::json::Json;
use ute_benchmark::metrics::{END_TO_END, PER_LAYER};
use ute_benchmark::workloads::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}`"))
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no list `{key}`"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_manifest_has_exactly_the_contracts_keys() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = list(&m, "paths")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = list(&m, "command")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let secs = m.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn workloads_are_the_four_the_binaries_know() {
    let m = manifest();
    let names: Vec<&str> = list(&m, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
    for w in list(&m, "workloads") {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert_eq!(w.as_obj().unwrap().len(), 2);
    }
}

#[test]
fn end_to_end_metrics_match_name_unit_direction_and_bound() {
    let m = manifest();
    let listed = list(&m, "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (j, e) in listed.iter().zip(&END_TO_END) {
        assert_eq!(j.as_obj().unwrap().len(), 4);
        assert_eq!(text(j, "name"), e.name);
        assert_eq!(text(j, "unit"), e.unit);
        assert_eq!(text(j, "better"), e.better);
        let bound = j.get("bound").and_then(Json::as_f64).unwrap();
        assert_eq!(bound, e.bound);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|e| e.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn per_layer_metrics_match_and_every_name_is_well_formed_and_unique() {
    let m = manifest();
    let listed = list(&m, "per_layer");
    assert_eq!(listed.len(), PER_LAYER.len());
    assert!(listed.len() <= 128);
    for (j, (name, unit, better)) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(j.as_obj().unwrap().len(), 3);
        assert_eq!(
            (text(j, "name"), text(j, "unit"), text(j, "better")),
            (*name, *unit, *better)
        );
    }
    let mut names: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for n in &names {
        assert!(is_name(n), "bad name {n}");
    }
    for unit in PER_LAYER
        .iter()
        .map(|m| m.1)
        .chain(END_TO_END.iter().map(|m| m.unit))
    {
        assert!(is_unit(unit), "bad unit {unit}");
    }
    for better in PER_LAYER
        .iter()
        .map(|m| m.2)
        .chain(END_TO_END.iter().map(|m| m.better))
    {
        assert!(better == "lower" || better == "higher");
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
}
