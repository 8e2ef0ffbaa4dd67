//! Replay-blob compatibility: `SIMCHECK_REPLAY` artifacts recorded against
//! an earlier engine must drive the current engine through byte-identical
//! schedules.
//!
//! The golden data below was captured by running the fixed scenario on an
//! engine whose pending events sat in one `BinaryHeap` keyed by
//! `(time, seq)`, with each blob installed as a `ReplayPolicy`, recording
//! the resulting choice log and observed message order. Any event-queue
//! change must preserve that `(time, seq)` pop order exactly, and the
//! re-insertion of policy-deferred events under their original keys, so
//! the same blobs must keep producing the same logs forever.

use molecule_simcheck::explore::{decode_replay, encode_replay};
use molecule_simcheck::ReplayPolicy;

use hetsim::engine::{ChoicePoint, Simulation};

/// The fixed scenario: four same-instant writers racing into one channel,
/// one reader consuming all four messages. Returns `(choice_log, order)`.
fn run_with_blob(blob: &str) -> (Vec<(u32, u32)>, Vec<u32>) {
    let choices = decode_replay(blob).unwrap_or_else(|e| panic!("bad blob {blob:?}: {e}"));
    let mut sim = Simulation::new();
    sim.set_schedule_policy(Box::new(ReplayPolicy::new(choices)));
    let (tx, rx) = sim.channel::<u32>();
    for i in 0..4u32 {
        let tx = tx.clone();
        sim.spawn(&format!("w{i}"), move |_| tx.send(i).unwrap());
    }
    drop(tx);
    let h = sim.spawn("reader", move |ctx| {
        let mut got = Vec::new();
        while let Ok(v) = rx.recv(ctx) {
            got.push(v);
        }
        got
    });
    sim.run().unwrap();
    let log: Vec<(u32, u32)> =
        sim.take_choice_log().iter().map(|c: &ChoicePoint| (c.arity, c.chosen)).collect();
    (log, h.take_result().unwrap())
}

/// Pre-refactor golden: `(blob, expected choice log, expected order)`.
/// Captured on the seed engine; do not regenerate after engine changes —
/// divergence here means recorded replay artifacts broke.
type Golden = (&'static str, &'static [(u32, u32)], &'static [u32]);
const GOLDENS: &[Golden] = &[
    ("v1:0:", &[(5, 0), (4, 0), (3, 0), (2, 0)], &[0, 1, 2, 3]),
    ("v1:16:0.3", &[(5, 3), (4, 0), (3, 0), (2, 0)], &[3, 0, 1, 2]),
    ("v1:16:1.2,3.1", &[(5, 0), (4, 2), (3, 0), (2, 1)], &[0, 3, 1, 2]),
    ("v1:16:0.4,2.2,5.1", &[(5, 4), (4, 0), (4, 2), (3, 0), (2, 0)], &[0, 3, 1, 2]),
];

#[test]
fn pre_refactor_blobs_replay_to_the_same_choice_log() {
    for (blob, want_log, want_order) in GOLDENS {
        let (log, order) = run_with_blob(blob);
        assert_eq!(&log, want_log, "choice log diverged for blob {blob}");
        assert_eq!(&order, want_order, "observed order diverged for blob {blob}");
    }
}

#[test]
fn replay_is_stable_across_reruns() {
    for (blob, _, _) in GOLDENS {
        assert_eq!(run_with_blob(blob), run_with_blob(blob), "blob {blob} not deterministic");
    }
}

#[test]
fn blob_roundtrip_still_works() {
    let blob = "v1:4:1.2,3.1";
    assert_eq!(encode_replay(&decode_replay(blob).unwrap()), blob);
}
