//! Served answers stay bit-identical: every family's top-10 answers hash
//! to the CRC recorded in `tests/golden/answers.txt` for the active kernel
//! backend. Re-record with `cargo run --release --example bless_answers`
//! (once per backend, e.g. again under `VDB_FORCE_SCALAR=1`): every
//! backend must record the same cases, so blessing only one fails here on
//! every host.

mod golden;

use vdb_core::kernel::dispatch_name;

#[test]
fn answers_match_the_recorded_goldens() {
    let backend = dispatch_name();
    let recorded: Vec<(String, u32)> = golden::load()
        .into_iter()
        .filter(|(b, _, _)| b == backend)
        .map(|(_, case, crc)| (case, crc))
        .collect();
    if recorded.is_empty() {
        eprintln!("no answer goldens recorded for backend `{backend}`; skipping");
        return;
    }
    let actual = golden::answers();
    let cases = |v: &[(String, u32)]| v.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();
    assert_eq!(cases(&recorded), cases(&actual), "{backend}: case list");
    if let Some(((case, want), (_, got))) = recorded.iter().zip(&actual).find(|(r, a)| r.1 != a.1) {
        panic!("{backend}: first differing case {case}: recorded {want:08x}, got {got:08x}");
    }
}

#[test]
fn every_backend_records_the_same_cases() {
    let mut backends: Vec<(String, Vec<String>)> = Vec::new();
    for (backend, case, _) in golden::load() {
        match backends.iter_mut().find(|(b, _)| *b == backend) {
            Some((_, cases)) => cases.push(case),
            None => backends.push((backend, vec![case])),
        }
    }
    let Some(((first, want), rest)) = backends.split_first() else {
        return;
    };
    for (backend, cases) in rest {
        assert_eq!(
            cases, want,
            "`{backend}` records other cases than `{first}`: bless every backend"
        );
    }
}
