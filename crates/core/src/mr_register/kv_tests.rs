//! Unit tests of the kv-store instantiation of
//! [`crate::mr_register::MrNode`]. The module keeps the name of the per-key
//! kv-store node that `MrNode` replaced, so every test keeps its name. The
//! quorum checks shared with the register come from
//! `crate::mr_register::tests`; the tests after them are kv-only.
mod tests {
    use crate::mr_register::tests::*;
    use crate::mr_register::{MrMsg, MrNode, MrTs};
    use lintime_adt::spec::{erase, Invocation};
    use lintime_adt::types::KvStore;
    use lintime_adt::value::Value;
    use lintime_sim::delay::DelaySpec;
    use lintime_sim::engine::{simulate, SimConfig};
    use lintime_sim::schedule::Schedule;
    use lintime_sim::time::{Pid, Time};

    #[test]
    fn put_get_latencies_match_the_register() {
        check_round_trip_latencies(kv());
    }

    #[test]
    fn survives_minority_crashes() {
        check_survives_minority_crashes(kv());
    }

    #[test]
    fn majority_crash_blocks_instead_of_lying() {
        check_majority_crash_blocks(kv());
    }

    #[test]
    fn duplicated_replies_cannot_fake_a_quorum() {
        check_duplicated_replies(kv());
    }

    #[test]
    fn single_process_cluster_is_its_own_quorum() {
        check_single_process_quorum(kv());
    }

    #[test]
    fn observed_node_counts_quorum_metrics() {
        check_observed_metrics(kv());
    }

    #[test]
    fn del_makes_the_key_absent() {
        let p = params5();
        let spec = erase(KvStore::new());
        let cfg = SimConfig::new(p, DelaySpec::AllMax).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), put(3, 30))
                .at(Pid(1), Time(100_000), Invocation::new("del", 3))
                .at(Pid(2), Time(200_000), Invocation::new("get", 3))
                .at(Pid(2), Time(300_000), Invocation::new("get", 99)),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[2].ret, Some(Value::Unit), "deleted key must read absent");
        assert_eq!(run.ops[3].ret, Some(Value::Unit), "never-written key reads absent");
    }

    #[test]
    fn distinct_keys_are_independent_registers() {
        let p = params5();
        let spec = erase(KvStore::new());
        // Concurrent puts on distinct keys, then gets of both: each key's
        // register holds its own value, untouched by the other's traffic.
        let cfg = SimConfig::new(p, DelaySpec::UniformRandom { seed: 13 }).with_schedule(
            Schedule::new()
                .at(Pid(0), Time(0), put(1, 10))
                .at(Pid(1), Time(5), put(2, 20))
                .at(Pid(2), Time(100_000), Invocation::new("get", 1))
                .at(Pid(3), Time(100_000), Invocation::new("get", 2)),
        );
        let run = simulate(&cfg, mk(&spec, p.n));
        assert!(run.complete(), "{run}");
        assert_eq!(run.ops[2].ret, Some(Value::Int(10)));
        assert_eq!(run.ops[3].ret, Some(Value::Int(20)));
    }

    #[test]
    fn wire_bytes_stay_constant_per_message() {
        // The whole point of the per-key composition: message size never
        // depends on how many keys the store holds.
        let ts = MrTs { seq: 1, pid: Pid(0) };
        let small = MrMsg::Store { rid: 1, key: Some(1), ts, val: Value::Int(1) };
        let tombstone = MrMsg::Store { rid: 1, key: Some(1), ts, val: Value::Unit };
        assert_eq!(small.wire_bytes(), 9 + 8 + 12 + 1 + 8);
        assert_eq!(tombstone.wire_bytes(), 9 + 8 + 12 + 1);
        // The register names no key, so it pays no key bytes.
        let register = MrMsg::Store { rid: 1, key: None, ts, val: Value::Int(1) };
        assert_eq!(register.wire_bytes(), 9 + 12 + 1 + 8);
    }

    #[test]
    #[should_panic(expected = "kv-store")]
    fn non_kv_spec_is_refused() {
        let spec = erase(lintime_adt::types::Counter::new());
        let _ = MrNode::new(Pid(0), spec, 4);
    }
}
