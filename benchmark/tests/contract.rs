//! `BENCHMARK.json` and the binary must name the same things, inside
//! the limits the benchmark contract sets.

mod common;

use common::{bench, last_line, scratch};
use vdb_benchmark::json::Json;
use vdb_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use vdb_benchmark::workload::{RUN_SECONDS, SPECS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn str_field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {obj:?}"))
}

fn well_formed_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn manifest_matches_the_declared_names_units_and_bounds() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS as f64)
    );

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for (w, spec) in workloads.iter().zip(&SPECS) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(str_field(w, "name"), spec.name);
        assert_eq!(str_field(w, "why"), spec.why);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
    assert_eq!(workloads.len(), WORKLOADS.len());
    assert!(SPECS.iter().map(|s| s.name).eq(WORKLOADS));

    let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        assert_eq!(str_field(m, "name"), want.name);
        assert_eq!(str_field(m, "unit"), want.unit);
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_field(m, "better"), better, "{}", want.name);
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(want.bound),
            "{}",
            want.name
        );
        // 0.25 is the widest bound the benchmark contract accepts.
        assert!(want.bound > 0.0 && want.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!((1..=128).contains(&layers.len()));
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert_eq!((str_field(m, "name"), str_field(m, "unit")), (name, unit));
        assert!(["higher", "lower"].contains(&str_field(m, "better")));
    }

    let mut names: Vec<&str> = WORKLOADS
        .into_iter()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert!(
        names.iter().all(|n| well_formed_name(n)),
        "a name breaks the pattern"
    );
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "every name is used once");
    let unit_ok = |u: &str| {
        u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!(END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.1))
        .all(unit_ok));

    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    for word in command {
        let word = word.as_str().expect("command words are strings");
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
    }
}

#[test]
fn the_binary_emits_exactly_the_names_in_the_manifest() {
    let doc = manifest();
    let dir = scratch("contract");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, stdout) = bench(&[
            "--workload",
            "hybrid_mix",
            "--seed",
            "3",
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            trace,
            "--smoke",
            "--out-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stdout}");
        let result = last_line(&stdout);
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        let want: Vec<&str> = doc
            .get(list)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| str_field(m, "name"))
            .collect();
        assert_eq!(
            keys(result.get("metrics").unwrap()),
            want,
            "--trace {trace}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
