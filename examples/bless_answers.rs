//! Re-record the answer goldens (`tests/golden/answers.txt`) and the
//! front-door goldens (`tests/golden/front.txt`) for the active kernel
//! backend, keeping every other backend's lines.
//!
//! ```text
//! cargo run --release --example bless_answers
//! VDB_FORCE_SCALAR=1 cargo run --release --example bless_answers
//! ```

#[path = "../tests/golden/front.rs"]
mod front;
#[path = "../tests/golden/mod.rs"]
mod golden;

use vdb_core::kernel::dispatch_name;

/// Rewrite `file` with `header`, the other backends' recorded lines and
/// `answers` for the active backend.
fn bless(
    file: &str,
    header: &str,
    recorded: Vec<(String, String, u32)>,
    answers: Vec<(String, u32)>,
) -> std::io::Result<()> {
    let backend = dispatch_name();
    let mut lines: Vec<String> = recorded
        .into_iter()
        .filter(|(b, _, _)| b != backend)
        .map(|(b, case, crc)| format!("{b} {case} {crc:08x}"))
        .collect();
    let n = answers.len();
    lines.extend(
        answers
            .into_iter()
            .map(|(case, crc)| format!("{backend} {case} {crc:08x}")),
    );
    std::fs::write(file, header.to_string() + &lines.join("\n") + "\n")?;
    println!("recorded {n} cases for backend `{backend}` in {file}");
    Ok(())
}

fn main() -> std::io::Result<()> {
    bless(
        golden::FILE,
        "# Answer goldens: <backend> <family>/<dim>/<filter> <crc32 of the top-10 \
         ids and distance bits>.\n# Re-record with `cargo run --release --example \
         bless_answers`, once per backend.\n",
        golden::load(),
        golden::answers(),
    )?;
    bless(
        front::FILE,
        "# Front-door goldens: <backend> <index>/<state>/<query> <crc32 of the top-10 \
         keys and distance bits>.\n# Re-record with `cargo run --release --example \
         bless_answers`, once per backend.\n",
        front::load(),
        front::answers(),
    )
}
