//! Shared by the integration tests: run the built binary, read its JSON.

use std::path::PathBuf;
use std::process::Command;
use vdb_benchmark::json::Json;

/// A directory of this test's own under the crate's `out/`.
pub fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

/// Run the benchmark binary; returns `(exit code, standard output)`.
pub fn bench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vdb-benchmark"))
        .args(args)
        .env_remove("VDB_FORCE_SCALAR")
        .env_remove("VDB_BUILD_THREADS")
        .output()
        .expect("run vdb-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.code().unwrap_or(-1), stdout)
}

/// The JSON object on the last line of `stdout`.
pub fn last_line(stdout: &str) -> Json {
    let line = stdout.lines().last().expect("some output");
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}
