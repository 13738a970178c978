//! `--smoke`: every workload at about a fiftieth of the scale, untraced
//! and traced, in seconds. Every named metric must be there, finite and
//! with its unit, and every hard check must pass.

mod common;

use common::{bench, last_line, scratch};
use vdb_benchmark::json::Json;
use vdb_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn smoke_run_reports_every_metric_of_every_workload() {
    let dir = scratch("smoke");
    let started = std::time::Instant::now();
    let (code, stdout) = bench(&["--smoke", "--out-dir", dir.to_str().unwrap()]);
    assert_eq!(code, 0, "smoke run failed:\n{stdout}");
    // About five seconds optimised; an unoptimised build takes ten times that.
    assert!(
        cfg!(debug_assertions) || started.elapsed().as_secs() < 60,
        "the smoke run is meant to take seconds"
    );
    assert_eq!(last_line(&stdout).get("correct"), Some(&Json::Bool(true)));

    let text = std::fs::read_to_string(dir.join("result.json")).expect("result file");
    let doc = Json::parse(&text).expect("result file is JSON");
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(
        runs.len(),
        2 * WORKLOADS.len(),
        "one untraced and one traced run each"
    );
    for workload in WORKLOADS {
        for (trace, names) in [
            (
                0.0,
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (1.0, PER_LAYER.to_vec()),
        ] {
            let run = runs
                .iter()
                .find(|r| {
                    r.get("workload").and_then(Json::as_str) == Some(workload)
                        && r.get("trace").and_then(Json::as_f64) == Some(trace)
                })
                .unwrap_or_else(|| panic!("no run of {workload} with trace {trace}"));
            assert_eq!(run.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                run.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = run.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(
                metrics.len(),
                names.len(),
                "{workload}: exactly the named metrics"
            );
            for (name, unit) in names {
                let m = run
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} is not a finite number"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
                if trace == 0.0 {
                    assert!(
                        value.unwrap() > 0.0,
                        "{workload}: end-to-end {name} is never 0"
                    );
                }
            }
        }
        // Numbers only some workloads' operations produce travel as detail.
        let traced = runs
            .iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("trace").and_then(Json::as_f64) == Some(1.0)
            })
            .unwrap();
        let detail = |name: &str| {
            let m = traced.get("detail").and_then(|d| d.get(name));
            m.and_then(|m| m.get("value")).and_then(Json::as_f64)
        };
        // The tails are reported by every run, outside the contract.
        assert!(detail("search_p99_us").unwrap() > 0.0);
        assert!(detail("insert_p99_us").unwrap() > 0.0);
        match workload {
            "hybrid_mix" => {
                for class in ["sel_lo", "sel_mid", "sel_hi", "text"] {
                    assert!(detail(&format!("client.rtt_p50_us.{class}")).unwrap() > 0.0);
                }
                assert!(detail("vdbms.hybrid_text_us").unwrap() > 0.0);
                assert!(detail("query.vql_parse_us").unwrap() > 0.0);
                assert!(detail("query.selectivity_us").unwrap() > 0.0);
                assert!(detail("client.rtt_p50_us.knn").is_none());
                assert!(detail("vdbms.merge_overhead_us").is_none());
            }
            _ => {
                assert!(detail("client.rtt_p50_us.knn").unwrap() > 0.0);
                assert!(detail("vdbms.merge_overhead_us").is_some());
                assert!(detail("query.vql_parse_us").is_none(), "no statements");
            }
        }
        assert_eq!(
            detail("client.gen_late_p99_us").is_some(),
            workload == "mixed_rw",
            "only the open loop has a generator to run late"
        );
        // The traced run leaves its spans and the layer budget behind.
        let trace = std::fs::read_to_string(dir.join(format!("trace_{workload}.json")))
            .expect("trace file");
        let trace = Json::parse(&trace).expect("trace file is JSON");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("e2e.rtt")));
        let rows = trace.get("layer_budget_us").and_then(Json::as_obj).unwrap();
        let layers: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            layers,
            ["index", "query", "vdbms", "server.codec", "server.residual"]
        );
        assert!(rows
            .iter()
            .all(|(_, v)| v.as_f64().is_some_and(|us| us.is_finite() && us >= 0.0)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refuses_to_start_with_a_vdb_switch_set() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vdb-benchmark"))
        .args(["--smoke", "--workload", "knn_mem"])
        .env("VDB_FORCE_SCALAR", "1")
        .output()
        .expect("run vdb-benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("VDB_FORCE_SCALAR"));
    assert!(out.stdout.is_empty(), "no result may be printed");
}
