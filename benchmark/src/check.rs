//! What must be true of a run's outputs: every acknowledged write is
//! there after recovery, every hit key was live, and the hits are the
//! nearest rows.

use crate::gen::{self, Class, Inputs, WriteOp, K};
use crate::run::{Searched, Written};
use std::collections::HashMap;
use vdb::Collection;

/// What the acknowledgements say about one fresh key.
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    insert_sent_ns: Option<u64>,
    insert_acked: bool,
    delete_acked_ns: Option<u64>,
    /// A write on this key failed, so its state on the server is unknown.
    unknown: bool,
}

/// The benchmark's own record of the fresh rows, built only from the
/// acknowledgements it received.
pub struct Ledger {
    states: HashMap<u32, KeyState>,
    /// Fresh rows that must be live at the end (acked insert, no acked
    /// delete), ascending.
    pub live_fresh: Vec<u32>,
    /// Keys whose state is unknown because a write on them failed.
    pub unknown: usize,
}

impl Ledger {
    pub fn from_writes<'a>(writes: impl Iterator<Item = &'a Written>) -> Self {
        let mut states: HashMap<u32, KeyState> = HashMap::new();
        for w in writes {
            let (WriteOp::Insert(i) | WriteOp::Delete(i)) = w.op;
            let st = states.entry(i).or_default();
            match w.op {
                _ if !w.ok => st.unknown = true,
                WriteOp::Insert(_) => {
                    st.insert_sent_ns = Some(w.timing.sent_ns);
                    st.insert_acked = true;
                }
                WriteOp::Delete(_) => st.delete_acked_ns = Some(w.timing.end_ns),
            }
        }
        let mut live_fresh: Vec<u32> = states
            .iter()
            .filter(|(_, st)| !st.unknown && st.insert_acked && st.delete_acked_ns.is_none())
            .map(|(&i, _)| i)
            .collect();
        live_fresh.sort_unstable();
        let unknown = states.values().filter(|st| st.unknown).count();
        Ledger {
            states,
            live_fresh,
            unknown,
        }
    }

    /// Whether a search sent at `sent_ns` and answered at `end_ns` may
    /// return `key`: a preloaded row, or a fresh row whose insert was sent
    /// before the answer and whose delete was not acknowledged before the
    /// search.
    fn may_return(&self, inputs: &Inputs, key: u64, sent_ns: u64, end_ns: u64) -> bool {
        let n = inputs.shape.n;
        if (key as usize) < n {
            return true;
        }
        self.states
            .get(&((key as usize - n) as u32))
            .is_some_and(|st| {
                st.unknown
                    || st.insert_sent_ns.is_some_and(|t| t <= end_ns)
                        && st.delete_acked_ns.is_none_or(|t| t >= sent_ns)
            })
    }

    /// Compare the recovered collection with the acknowledgements:
    /// returns `lost_acked` (acked, not-later-deleted inserts that are
    /// missing or altered, plus acked deletes still present) and the
    /// failed checks in words.
    pub fn check_recovered(&self, inputs: &Inputs, coll: &Collection) -> (u64, Vec<String>) {
        let mut lost_acked = 0u64;
        for (&i, st) in self.states.iter().filter(|(_, st)| !st.unknown) {
            let stored = coll.get(inputs.key_of_fresh(i));
            let want_live = st.insert_acked && st.delete_acked_ns.is_none();
            let intact = match (&stored, want_live) {
                (Some(v), true) => v.as_slice() == inputs.fresh.vector(i as usize),
                (None, false) => true,
                _ => false,
            };
            lost_acked += u64::from(!intact);
        }
        let mut problems = Vec::new();
        if lost_acked != 0 {
            problems.push(format!("lost_acked = {lost_acked}"));
        }
        let expected = inputs.shape.n + self.live_fresh.len();
        if self.unknown == 0 && coll.len() != expected {
            problems.push(format!(
                "recovered {} rows, acknowledgements say {expected}",
                coll.len()
            ));
        }
        (lost_acked, problems)
    }
}

/// Outcome of scoring a set of searches.
#[derive(Debug, Default)]
pub struct Quality {
    /// Errors, BUSY, DEADLINE and wrong-cardinality results.
    pub failed: u64,
    pub not_live: u64,
    recall_sum: f64,
    recall_n: u64,
}

impl Quality {
    pub fn recall(&self) -> f64 {
        if self.recall_n == 0 {
            0.0
        } else {
            self.recall_sum / self.recall_n as f64
        }
    }

    fn count(&mut self, got: &[u64], truth: &[u32]) {
        let hit = got
            .iter()
            .filter(|&&k| truth.iter().any(|&t| t as u64 == k))
            .count();
        self.recall_sum += hit as f64 / truth.len().max(1) as f64;
        self.recall_n += 1;
    }
}

/// Reference results of the text class, keyed by query and the name of
/// the strategy the planner executed.
pub type TextTruth = HashMap<(u32, &'static str), Vec<u32>>;

/// Score the measured searches of the search phase. `against_truth` is
/// false when rows changed under the searches (the read/write workload):
/// then only failures and live keys are checked, and recall comes from
/// the probe.
pub fn score_searches<'a>(
    inputs: &Inputs,
    ledger: &Ledger,
    searches: impl Iterator<Item = &'a Searched>,
    text_truth: &TextTruth,
    against_truth: bool,
) -> Quality {
    let mut q = Quality::default();
    for s in searches {
        let Some(reply) = &s.reply else {
            q.failed += 1;
            continue;
        };
        let (sent, end) = (s.timing.sent_ns, s.timing.end_ns);
        q.not_live += reply
            .keys
            .iter()
            .filter(|&&key| !ledger.may_return(inputs, key, sent, end))
            .count() as u64;
        if !against_truth {
            q.failed += u64::from(reply.keys.len() != K);
            continue;
        }
        let query = s.op.query as usize;
        let truth: &[u32] = match s.op.class {
            Class::Knn => &inputs.truth_knn[query],
            Class::Filter(c) => &inputs.truth_filtered[c as usize][query],
            Class::Text => {
                let strategy = reply.strategy.expect("text replies carry the strategy");
                &text_truth[&(s.op.query, strategy.name())]
            }
        };
        // A selective predicate may match fewer than K rows; then every
        // match is the right answer.
        if reply.keys.len() != truth.len() {
            q.failed += 1;
            continue;
        }
        q.count(&reply.keys, truth);
    }
    q
}

/// Score the probe sent after the final checkpoint against exact ground
/// truth over the rows the ledger says are live: the preload plus acked
/// inserts minus acked deletes.
pub fn score_probe(inputs: &Inputs, ledger: &Ledger, probe: &[Searched]) -> Quality {
    let n = inputs.shape.n;
    let mut distinct: Vec<u32> = probe.iter().map(|s| s.op.query).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let truths = gen::par_map(distinct.len(), |j| {
        let base = (0..n).map(|i| (i as u32, inputs.base.vector(i)));
        let fresh = ledger.live_fresh.iter().map(|&i| {
            (
                inputs.key_of_fresh(i) as u32,
                inputs.fresh.vector(i as usize),
            )
        });
        gen::exact_topk(
            base.chain(fresh),
            inputs.queries.vector(distinct[j] as usize),
        )
    });
    let mut q = Quality::default();
    for s in probe {
        match &s.reply {
            Some(reply) if reply.keys.len() == K => {
                let j = distinct.binary_search(&s.op.query).expect("probed query");
                q.count(&reply.keys, &truths[j]);
                q.not_live += reply
                    .keys
                    .iter()
                    .filter(|&&key| {
                        let fresh = (key as usize).checked_sub(n).map(|i| i as u32);
                        ledger.unknown == 0
                            && fresh.is_some_and(|i| ledger.live_fresh.binary_search(&i).is_err())
                    })
                    .count() as u64;
            }
            _ => q.failed += 1,
        }
    }
    q
}
