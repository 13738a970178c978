//! The experiment harness: regenerates every table/figure of the
//! evaluation suite (DESIGN.md §3).
//!
//! ```text
//! cargo run -p vdb-bench --release --bin harness -- all
//! cargo run -p vdb-bench --release --bin harness -- f1 f3 t5
//! cargo run -p vdb-bench --release --bin harness -- --quick all
//! ```

use vdb_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: harness [--quick|--full] <experiment...|all>\n  experiments: {}",
            experiments::ALL.join(", ")
        );
        std::process::exit(2);
    }
    println!(
        "# vectordb-rs experiment harness ({} scale: n={}, dim={}, {} queries)",
        if scale == Scale::Quick {
            "quick"
        } else {
            "full"
        },
        scale.n(),
        scale.dim(),
        scale.queries()
    );
    for id in ids {
        let start = std::time::Instant::now();
        if let Err(e) = experiments::run(&id, scale) {
            eprintln!("experiment {id} failed: {e}");
            std::process::exit(1);
        }
        println!(
            "  [{} completed in {:.1}s]",
            id,
            start.elapsed().as_secs_f64()
        );
    }
}
