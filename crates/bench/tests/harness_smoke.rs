//! Smoke tests: cheap experiments must run end-to-end at quick scale.
//! (The expensive ones are exercised by the harness binary itself; these
//! guard the experiment code against rot in `cargo test`.)

use vdb_bench::{experiments, Scale};

#[test]
fn f8_runs() {
    experiments::run("f8", Scale::Quick).unwrap();
}

#[test]
fn f2_runs() {
    experiments::run("f2", Scale::Quick).unwrap();
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(experiments::run("zz", Scale::Quick).is_err());
}

#[test]
fn registry_lists_all_twenty_one() {
    assert_eq!(experiments::ALL.len(), 21);
    let set: std::collections::HashSet<_> = experiments::ALL.iter().collect();
    assert_eq!(set.len(), 21, "no duplicate experiment ids");
}

#[test]
fn s1_runs() {
    experiments::run("s1", Scale::Quick).unwrap();
}

#[test]
fn s2_runs() {
    experiments::run("s2", Scale::Quick).unwrap();
}

#[test]
fn r1_runs() {
    experiments::run("r1", Scale::Quick).unwrap();
}

#[test]
fn d1_runs() {
    experiments::run("d1", Scale::Quick).unwrap();
}

#[test]
fn s3_runs() {
    experiments::run("s3", Scale::Quick).unwrap();
}
