//! Answers through the collection's front door stay bit-identical: plain
//! and filtered searches over HNSW and IVF-PQ collections, fresh, with an
//! unmerged update buffer and re-merged, hash to the CRCs recorded in
//! `tests/golden/front.txt` for the active kernel backend. Re-record with
//! `cargo run --release --example bless_answers` (once per backend, e.g.
//! again under `VDB_FORCE_SCALAR=1`).

#[path = "golden/front.rs"]
mod front;

use vdb_core::kernel::dispatch_name;

#[test]
fn front_door_answers_match_the_recorded_goldens() {
    let backend = dispatch_name();
    let recorded: Vec<(String, u32)> = front::load()
        .into_iter()
        .filter(|(b, _, _)| b == backend)
        .map(|(_, case, crc)| (case, crc))
        .collect();
    if recorded.is_empty() {
        eprintln!("no front-door goldens recorded for backend `{backend}`; skipping");
        return;
    }
    let actual = front::answers();
    let cases = |v: &[(String, u32)]| v.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>();
    assert_eq!(cases(&recorded), cases(&actual), "{backend}: case list");
    if let Some(((case, want), (_, got))) = recorded.iter().zip(&actual).find(|(r, a)| r.1 != a.1) {
        panic!("{backend}: first differing case {case}: recorded {want:08x}, got {got:08x}");
    }
}

#[test]
fn every_backend_records_the_same_front_door_cases() {
    let mut backends: Vec<(String, Vec<String>)> = Vec::new();
    for (backend, case, _) in front::load() {
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
