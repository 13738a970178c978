//! Re-record the answer goldens (`tests/golden/answers.txt`) for the
//! active kernel backend, keeping every other backend's lines.
//!
//! ```text
//! cargo run --release --example bless_answers
//! VDB_FORCE_SCALAR=1 cargo run --release --example bless_answers
//! ```

#[path = "../tests/golden/mod.rs"]
mod golden;

use vdb_core::kernel::dispatch_name;

fn main() -> std::io::Result<()> {
    let backend = dispatch_name();
    let mut lines: Vec<String> = golden::load()
        .into_iter()
        .filter(|(b, _, _)| b != backend)
        .map(|(b, case, crc)| format!("{b} {case} {crc:08x}"))
        .collect();
    let answers = golden::answers();
    let n = answers.len();
    lines.extend(
        answers
            .into_iter()
            .map(|(case, crc)| format!("{backend} {case} {crc:08x}")),
    );
    let header = "# Answer goldens: <backend> <family>/<dim>/<filter> <crc32 of the top-10 \
                  ids and distance bits>.\n# Re-record with `cargo run --release --example \
                  bless_answers`, once per backend.\n";
    std::fs::write(golden::FILE, header.to_string() + &lines.join("\n") + "\n")?;
    println!(
        "recorded {n} cases for backend `{backend}` in {}",
        golden::FILE
    );
    Ok(())
}
