//! Cross-validation: the Wing–Gong search must agree with a brute-force
//! enumeration of all permutations on small histories, for random histories
//! both legal-ish and corrupted.

mod common;

use common::brute_force;
use lintime_adt::prelude::*;
use lintime_check::prelude::*;
use lintime_sim::rng::SplitMix64;

/// Generate a small queue history: random instances with random intervals,
/// values drawn from a tiny domain so collisions (and illegal histories) are
/// common. Deterministic in `seed`, so every case is reproducible.
fn arb_history(seed: u64) -> History {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(1usize..6);
    let mut tuples = Vec::new();
    for _ in 0..len {
        let pid = rng.gen_range(0usize..3);
        let op_sel = rng.gen_range(0usize..3);
        let v = rng.gen_range(0i64..3);
        let ti = rng.gen_range(0i64..40);
        let dur = rng.gen_range(1i64..40);
        let instance = match op_sel {
            0 => OpInstance::new("enqueue", v, ()),
            1 => OpInstance::new("dequeue", (), if v == 0 { Value::Unit } else { Value::Int(v) }),
            _ => OpInstance::new("peek", (), if v == 0 { Value::Unit } else { Value::Int(v) }),
        };
        tuples.push((pid, instance, ti, ti + dur));
    }
    History::from_tuples(tuples)
}

#[test]
fn checker_agrees_with_brute_force() {
    let spec = erase(FifoQueue::new());
    for seed in 0u64..300 {
        let h = arb_history(seed);
        let fast = check(&spec, &h).is_linearizable();
        let slow = brute_force(&spec, &h);
        assert_eq!(fast, slow, "seed {seed}, history: {h:?}");
    }
}

#[test]
fn hand_picked_disagreement_candidates() {
    // Histories engineered to stress the memoization and precedence logic.
    let spec = erase(FifoQueue::new());
    let cases = vec![
        // Same-instance twins, overlapping.
        History::from_tuples(vec![
            (0, OpInstance::new("enqueue", 1, ()), 0, 10),
            (1, OpInstance::new("enqueue", 1, ()), 5, 15),
            (2, OpInstance::new("dequeue", (), 1), 20, 30),
            (3, OpInstance::new("dequeue", (), 1), 40, 50),
        ]),
        // Dequeue of a value whose enqueue starts after it ends (illegal).
        History::from_tuples(vec![
            (0, OpInstance::new("dequeue", (), 7), 0, 10),
            (1, OpInstance::new("enqueue", 7, ()), 20, 30),
        ]),
        // Empty-dequeue racing an enqueue (legal: order dequeue first).
        History::from_tuples(vec![
            (0, OpInstance::new("dequeue", (), ()), 0, 30),
            (1, OpInstance::new("enqueue", 7, ()), 10, 20),
        ]),
    ];
    for h in cases {
        assert_eq!(check(&spec, &h).is_linearizable(), brute_force(&spec, &h), "{h:?}");
    }
}
