//! Command line: one workload the way the driver asks for it, all four
//! with a written result file, or a comparison of two result files.

use crate::json::Json;
use crate::metrics::WORKLOADS;
use crate::run::{run, RunOpts, RunResult};
use crate::workload::{spec, Scale, RUN_SECONDS};
use std::path::PathBuf;

const USAGE: &str = "\
usage: vdb-benchmark --workload NAME [--seed N] [--seconds 12] [--trace 0|1]
                     [--smoke] [--out-dir DIR]
       vdb-benchmark [--seed N] [--runs N] [--smoke] [--out-dir DIR]
       vdb-benchmark --compare A.json B.json

With --workload: one run; the last line of standard output is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
Without it: every workload, --runs untraced runs each (seeds N, N+1, ...)
and one traced run, every run in a process of its own; the result is
written to <out-dir>/result.json.
A run is as long as its frozen op counts; --seconds only has to name the
run_seconds of BENCHMARK.json.";

/// First word of the line on which a single run prints its full record
/// (metrics, detail, info, inputs hash); the all-workloads mode collects
/// its children's records from it.
const RECORD: &str = "record ";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    // From the repository root the benchmark keeps its files in its own
    // directory; from inside the crate (cargo test) in `out/`.
    let default_dir = if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        "benchmark/out"
    } else {
        "out"
    };
    let mut args = Args {
        workload: None,
        seed: 1,
        trace: false,
        smoke: false,
        runs: 1,
        out_dir: PathBuf::from(default_dir),
        compare: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds != RUN_SECONDS as f64 {
                    return Err(format!(
                        "--seconds must be {RUN_SECONDS}: run length is fixed by op counts"
                    ));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a path")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && args.trace {
        return Err("--trace picks the kind of one run: it needs --workload".into());
    }
    if args.workload.is_some() && args.runs != 1 {
        return Err("--runs repeats every workload: it cannot go with --workload".into());
    }
    Ok(args)
}

fn metrics_json(metrics: &[crate::metrics::Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn result_json(r: &RunResult) -> Json {
    let metrics = metrics_json(&r.metrics);
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", metrics),
    ])
}

fn record_json(r: &RunResult) -> Json {
    let Json::Obj(mut fields) = result_json(r) else {
        unreachable!("result_json builds an object");
    };
    fields.splice(
        0..0,
        [
            ("workload".to_string(), Json::str(r.workload)),
            ("seed".to_string(), Json::Num(r.seed as f64)),
            ("trace".to_string(), Json::Num(u8::from(r.trace) as f64)),
            (
                "inputs_hash".to_string(),
                Json::str(format!("{:016x}", r.inputs_hash)),
            ),
        ],
    );
    fields.push(("detail".to_string(), metrics_json(&r.detail)));
    fields.push((
        "info".to_string(),
        Json::obj(r.info.iter().map(|&(k, v)| (k, Json::Num(v)))),
    ));
    fields.push((
        "problems".to_string(),
        Json::Arr(r.problems.iter().map(Json::str).collect()),
    ));
    Json::Obj(fields)
}

fn report(r: &RunResult) {
    println!(
        "== {} seed {} {} — correct: {}, attempted {}, failed {}, inputs {:016x}",
        r.workload,
        r.seed,
        if r.trace { "traced" } else { "untraced" },
        r.correct,
        r.attempted,
        r.failed,
        r.inputs_hash
    );
    for m in &r.metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if !r.detail.is_empty() {
        println!("  detail (not in BENCHMARK.json):");
        for m in &r.detail {
            println!("    {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    for (k, v) in &r.info {
        println!("  ({k} = {v})");
    }
    if !r.budget.is_empty() {
        println!("  layer budget (self times of the spans, p50 over the replayed ops):");
        for line in &r.budget {
            println!("{line}");
        }
    }
    for p in &r.problems {
        println!("  FAILED CHECK: {p}");
    }
}

pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            return 2;
        }
    };
    if let Some((a, b)) = &args.compare {
        return match crate::compare::compare(a, b) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(msg) => {
                eprintln!("error: {msg}");
                2
            }
        };
    }
    let set = crate::host::vdb_env_vars();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to measure with {} set: VDB_* switches change kernel dispatch, \
             build threads, prefetch and the connection core",
            set.join(", ")
        );
        return 2;
    }
    // Disk-resident indexes put their files under the system temporary
    // directory; keep them inside the benchmark's own directory. Set
    // before any thread exists.
    let tmp = args.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: create {}: {e}", tmp.display());
        return 2;
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);

    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let host = crate::host::facts();
    println!("host: {}", host.encode());
    println!(
        "note: disk reads hit real files under {}; latencies are this sandbox's, not a device's",
        tmp.display()
    );
    if let Some(name) = &args.workload {
        let one = || -> Result<RunResult, String> {
            let known = || {
                format!(
                    "unknown workload `{name}` (known: {})",
                    WORKLOADS.join(", ")
                )
            };
            let opts = RunOpts {
                seed: args.seed,
                scale,
                trace: args.trace,
                out_dir: args.out_dir.clone(),
            };
            let result = run(spec(name).ok_or_else(known)?, &opts)?;
            report(&result);
            println!("{RECORD}{}", record_json(&result).encode());
            Ok(result)
        };
        return match one() {
            Ok(result) => {
                println!("{}", result_json(&result).encode());
                0
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                1
            }
        };
    }

    // Every run in a process of its own, exactly as the driver runs it:
    // peak memory, caches and allocator state start fresh each time.
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return 1;
        }
    };
    let child = |name: &str, seed: u64, trace: bool| -> Result<Json, String> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut record = None;
        // Everything the run reported, except its two machine-read lines.
        for line in stdout.lines() {
            match line.strip_prefix(RECORD) {
                Some(json) => record = Some(json),
                // The host facts are the parent's own first lines.
                None if ["{", "host: ", "note: "]
                    .iter()
                    .any(|p| line.starts_with(p)) => {}
                None => println!("{line}"),
            }
        }
        if !out.status.success() {
            return Err(format!("the run exited with {}", out.status));
        }
        Json::parse(record.ok_or("the run printed no record")?)
    };
    let mut records = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let untraced = (0..args.runs as u64).map(|i| (args.seed + i, false));
        for (seed, trace) in untraced.chain([(args.seed, true)]) {
            match child(name, seed, trace) {
                Ok(record) => {
                    all_correct &= record.get("correct") == Some(&Json::Bool(true));
                    records.push(record);
                }
                Err(msg) => {
                    eprintln!("error: {name}: {msg}");
                    return 1;
                }
            }
        }
    }
    let doc = Json::obj([
        ("host", host),
        ("smoke", Json::Bool(args.smoke)),
        ("runs", Json::Arr(records)),
    ]);
    let out = args.out_dir.join("result.json");
    if let Err(e) = std::fs::write(&out, doc.encode()) {
        eprintln!("error: write {}: {e}", out.display());
        return 1;
    }
    println!("result written to {}", out.display());
    println!(
        "{}",
        Json::obj([("correct", Json::Bool(all_correct))]).encode()
    );
    i32::from(!all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse(argv("--workload knn_mem --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("knn_mem"));
        assert_eq!((a.seed, a.trace), (7, true));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(argv("--wat")).is_err());
        assert!(parse(argv("--trace 2")).is_err());
        assert!(parse(argv("--trace 1")).is_err(), "needs --workload");
        assert!(parse(argv("--workload knn_mem --runs 3")).is_err());
        assert!(
            parse(argv("--seconds 10")).is_err(),
            "run length is not caller-set"
        );
        assert!(parse(argv("--seed")).is_err());
        assert!(parse(argv("--compare a.json")).is_err());
    }
}
