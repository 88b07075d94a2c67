//! Sequential data-type specifications (Section 2.1 of the paper).
//!
//! The paper specifies a data type `T` by its operations `OPS(T)` and the set
//! `L(T)` of legal sequences of operation instances, constrained to be
//! prefix-closed, complete, and deterministic. Every such specification is
//! equivalently a *deterministic state machine*: a set of states, an initial
//! state, and a transition function `apply(state, op, arg) -> (state', ret)`
//! where `ret` is the unique legal return value. That is the representation
//! implemented here ([`DataType`]).
//!
//! Two layers are provided:
//!
//! * [`DataType`] — the typed state-machine trait; used by the classifier
//!   ([`crate::classify`]) which needs to enumerate and compare states.
//! * [`ObjectSpec`] / [`ObjState`] — an object-safe erased layer; used by the
//!   simulator, the algorithm nodes, and the linearizability checker, which
//!   must be generic over data types at runtime.

use crate::value::Value;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// The three-way classification used by Algorithm 1 (Section 5 of the paper).
///
/// Every operation of every type we consider is at least one of accessor or
/// mutator (operations that are neither "accomplish nothing" and are excluded
/// by the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpClass {
    /// An accessor that is not a mutator (`AOP`): observes but never changes
    /// the state. Responds in `d - X` under Algorithm 1.
    PureAccessor,
    /// A mutator that is not an accessor (`MOP`): changes the state but its
    /// return value carries no information (always `ACK`). Responds in `X + ε`.
    PureMutator,
    /// Both accessor and mutator (`OOP` in the paper, "mixed"). Responds in
    /// `d + ε`.
    Mixed,
}

impl OpClass {
    /// True iff operations of this class change the object state.
    pub fn is_mutator(self) -> bool {
        matches!(self, OpClass::PureMutator | OpClass::Mixed)
    }

    /// True iff operations of this class observe the object state.
    pub fn is_accessor(self) -> bool {
        matches!(self, OpClass::PureAccessor | OpClass::Mixed)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::PureAccessor => write!(f, "pure accessor"),
            OpClass::PureMutator => write!(f, "pure mutator"),
            OpClass::Mixed => write!(f, "mixed"),
        }
    }
}

/// Structural identity of a data type, used by the linearizability checker's
/// fast-path dispatcher (`lintime-check`'s `monitor` module) to route
/// histories to a type-specialized monitor instead of the general Wing–Gong
/// search.
///
/// This is deliberately coarser than [`DataType::name`]: it names the
/// *abstract* specification a type implements, so a semantically-equivalent
/// reimplementation can opt into the same fast path by returning the same
/// kind. Types with no specialized monitor report [`SpecKind::Other`] and are
/// always checked by the general search.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum SpecKind {
    /// Read/write register (`read`, `write`).
    Register,
    /// Read-modify-write register (`read`, `write`, `rmw`).
    RmwRegister,
    /// FIFO queue (`enqueue`, `dequeue`, `peek`).
    FifoQueue,
    /// LIFO stack (`push`, `pop`, `peek`).
    Stack,
    /// Grow-only / add-remove set (`add`, `remove`, `contains`).
    GrowSet,
    /// Counter (`increment`, `add`, `read`, `fetch_inc`).
    Counter,
    /// Priority queue (`insert`, `extract_min`, `min`).
    PriorityQueue,
    /// Key-value store (`put`, `get`, `del`).
    KvStore,
    /// Rooted tree.
    RootedTree,
    /// Product of named component objects ([`crate::product::ProductSpec`]).
    Product,
    /// Any type without a declared structural identity.
    Other,
}

/// Static metadata for one operation of a data type.
#[derive(Clone, Debug)]
pub struct OpMeta {
    /// Operation name (unique within the type), e.g. `"enqueue"`.
    pub name: &'static str,
    /// The declared classification, used by Algorithm 1 to pick timers.
    /// Cross-checked against the executable definitions by the classifier.
    pub class: OpClass,
    /// Whether invocations carry an argument (`write(v)`) or not (`read(-)`).
    pub has_arg: bool,
    /// Whether responses carry a return value (`read -> v`) or are bare acks.
    pub has_ret: bool,
}

impl OpMeta {
    /// Shorthand constructor.
    pub const fn new(name: &'static str, class: OpClass, has_arg: bool, has_ret: bool) -> Self {
        OpMeta { name, class, has_arg, has_ret }
    }
}

/// An operation invocation: name plus argument (`OP.inv(arg)`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Invocation {
    /// Operation name; must match an [`OpMeta::name`] of the target type.
    pub op: &'static str,
    /// Argument value (`Value::Unit` for argument-less operations).
    pub arg: Value,
}

impl Invocation {
    /// Build an invocation.
    pub fn new(op: &'static str, arg: impl Into<Value>) -> Self {
        Invocation { op, arg: arg.into() }
    }

    /// Build an argument-less invocation.
    pub fn nullary(op: &'static str) -> Self {
        Invocation { op, arg: Value::Unit }
    }

    /// Estimated serialized size in bytes (operation name plus argument),
    /// for communication-cost accounting.
    pub fn wire_bytes(&self) -> usize {
        self.op.len() + self.arg.wire_bytes()
    }
}

impl fmt::Debug for Invocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?})", self.op, self.arg)
    }
}

/// An operation instance `OP(arg, ret)`: an invocation bundled with its
/// (unique, by determinism) response.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct OpInstance {
    /// Operation name.
    pub op: &'static str,
    /// Argument value.
    pub arg: Value,
    /// Return value (`Value::Unit` for bare acks).
    pub ret: Value,
}

impl OpInstance {
    /// Build an instance.
    pub fn new(op: &'static str, arg: impl Into<Value>, ret: impl Into<Value>) -> Self {
        OpInstance { op, arg: arg.into(), ret: ret.into() }
    }

    /// The invocation part of this instance.
    pub fn invocation(&self) -> Invocation {
        Invocation { op: self.op, arg: self.arg.clone() }
    }
}

impl fmt::Debug for OpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({:?}) -> {:?}", self.op, self.arg, self.ret)
    }
}

/// A deterministic sequential specification of a data type, as a state machine.
///
/// # Contract
///
/// * `apply` must be a pure function of `(state, op, arg)`.
/// * States must be *canonical*: two states are observationally equivalent
///   (no operation sequence distinguishes them) iff they are `==`. All the
///   concrete types in [`crate::types`] satisfy this; the property-test suite
///   cross-checks it with bounded bisimulation (see [`crate::equiv`]).
/// * `apply` must be **total** (the paper's Completeness property): any
///   operation may be invoked in any state and must produce a return value.
pub trait DataType: Send + Sync + 'static {
    /// The state of the object.
    type State: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// Human-readable type name, e.g. `"fifo-queue"`.
    fn name(&self) -> &'static str;

    /// Structural identity for fast-path checker dispatch. The default is
    /// [`SpecKind::Other`] (no specialized monitor); concrete types override.
    fn kind(&self) -> SpecKind {
        SpecKind::Other
    }

    /// Metadata for every operation in `OPS(T)`.
    fn ops(&self) -> &[OpMeta];

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Apply one operation: returns the successor state and the unique legal
    /// return value.
    fn apply(&self, state: &Self::State, op: &'static str, arg: &Value) -> (Self::State, Value);

    /// Apply one operation *in place*, returning the response. Semantically
    /// `(state, ret) = apply(state, op, arg)`; the default routes through
    /// [`DataType::apply`] (one full state clone inside `apply` plus a move).
    /// Concrete container types override this with the O(1)/O(log n) direct
    /// mutation, which is what makes the linearizability checker's replay
    /// paths linear instead of quadratic in the history size.
    fn apply_inplace(&self, state: &mut Self::State, op: &'static str, arg: &Value) -> Value {
        let (next, ret) = self.apply(state, op, arg);
        *state = next;
        ret
    }

    /// Apply one operation in place **iff** its response equals `expected`;
    /// on mismatch the state is left untouched and `false` is returned.
    ///
    /// This is the checker's candidate probe: the Wing–Gong search asks "can
    /// op `i` with its recorded response go here?" at every node, and a
    /// rejected candidate must leave the object ready for the next one.
    /// Overrides can usually *peek* the response (front of a queue, top of a
    /// stack) and only then commit, making rejection O(1) with no state
    /// clone; the default pays one `apply` (which clones internally).
    fn apply_if(
        &self,
        state: &mut Self::State,
        op: &'static str,
        arg: &Value,
        expected: &Value,
    ) -> bool {
        let (next, ret) = self.apply(state, op, arg);
        if ret == *expected {
            *state = next;
            true
        } else {
            false
        }
    }

    /// A canonical [`Value`] encoding of a state, used for memoization keys in
    /// the linearizability checker. Must be injective on reachable states.
    fn canonical(&self, state: &Self::State) -> Value;

    /// A small set of representative argument values for `op`, used by the
    /// classifier and by workload generators. Should contain at least
    /// `k` pairwise-distinct values for operations claimed last-sensitive
    /// with parameter `k`.
    fn suggested_args(&self, op: &'static str) -> Vec<Value>;

    /// Look up metadata for an operation by name.
    fn op_meta(&self, op: &str) -> Option<&OpMeta> {
        self.ops().iter().find(|m| m.name == op)
    }
}

/// Extension helpers available on every [`DataType`].
pub trait DataTypeExt: DataType {
    /// Run a sequence of invocations from the initial state, returning the
    /// final state and each instance (invocation + response).
    fn run(&self, invocations: &[Invocation]) -> (Self::State, Vec<OpInstance>) {
        let mut state = self.initial();
        let mut out = Vec::with_capacity(invocations.len());
        for inv in invocations {
            let (next, ret) = self.apply(&state, inv.op, &inv.arg);
            out.push(OpInstance { op: inv.op, arg: inv.arg.clone(), ret });
            state = next;
        }
        (state, out)
    }

    /// Run a sequence of instances checking legality: every instance's
    /// recorded return value must equal the unique legal one. Returns the
    /// final state on success, or the index of the first illegal instance.
    fn check_legal(&self, instances: &[OpInstance]) -> Result<Self::State, usize> {
        let mut state = self.initial();
        for (i, inst) in instances.iter().enumerate() {
            let (next, ret) = self.apply(&state, inst.op, &inst.arg);
            if ret != inst.ret {
                return Err(i);
            }
            state = next;
        }
        Ok(state)
    }
}

impl<T: DataType + ?Sized> DataTypeExt for T {}

/// Object-safe erased view of a data type, for runtime-generic consumers
/// (simulator nodes, checker, benchmarks).
pub trait ObjectSpec: Send + Sync {
    /// Type name.
    fn name(&self) -> &'static str;
    /// Structural identity for fast-path checker dispatch (see [`SpecKind`]).
    fn kind(&self) -> SpecKind {
        SpecKind::Other
    }
    /// Operation metadata.
    fn ops(&self) -> &[OpMeta];
    /// Metadata lookup by name.
    fn op_meta(&self, op: &str) -> Option<&OpMeta>;
    /// A fresh object in the initial state.
    fn new_object(&self) -> Box<dyn ObjState>;
    /// Representative arguments for an operation (see
    /// [`DataType::suggested_args`]).
    fn suggested_args(&self, op: &'static str) -> Vec<Value>;

    /// Execute a history of invocations from the initial state, returning the
    /// responses. This is exactly the paper's `execute_Locally` applied to a
    /// whole `history` variable.
    fn run_history(&self, invocations: &[Invocation]) -> Vec<Value> {
        let mut obj = self.new_object();
        invocations.iter().map(|inv| obj.apply(inv.op, &inv.arg)).collect()
    }

    /// Check that a sequence of instances is legal (each recorded return
    /// equals the unique legal one). Returns the index of the first illegal
    /// instance, if any.
    fn first_illegal(&self, instances: &[OpInstance]) -> Option<usize> {
        let mut obj = self.new_object();
        for (i, inst) in instances.iter().enumerate() {
            if obj.apply(inst.op, &inst.arg) != inst.ret {
                return Some(i);
            }
        }
        None
    }

    /// True iff the instance sequence is legal.
    fn is_legal(&self, instances: &[OpInstance]) -> bool {
        self.first_illegal(instances).is_none()
    }
}

/// A mutable erased object: state plus transition function.
pub trait ObjState: Send {
    /// Apply one operation, mutating the state and returning the unique legal
    /// return value.
    fn apply(&mut self, op: &'static str, arg: &Value) -> Value;
    /// Apply one operation **iff** its response equals `expected`; on
    /// mismatch the state must be left observably unchanged and `false`
    /// returned. The checker probes every search candidate through this, so
    /// a rejection must not require the caller to re-clone the object. The
    /// default trial-runs a snapshot (correct for any implementation, since
    /// `apply` is deterministic, but pays a clone); [`Erased`] objects
    /// forward to the typed [`DataType::apply_if`] instead.
    fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
        let mut trial = self.clone_box();
        if trial.apply(op, arg) == *expected {
            self.apply(op, arg);
            true
        } else {
            false
        }
    }
    /// Clone the object (state snapshot).
    fn clone_box(&self) -> Box<dyn ObjState>;
    /// Canonical encoding of the current state (injective on reachable states).
    fn canonical(&self) -> Value;
    /// A 64-bit hash of the current state, equal whenever [`Self::canonical`]
    /// is equal. Used by the checker's memo table (hash compaction) so hot
    /// paths avoid materializing a `Value` per search node. The default hashes
    /// the canonical encoding; implementations with a cheaper `Hash` state
    /// should override.
    fn state_hash(&self) -> u64 {
        crate::fxhash::hash64(&self.canonical())
    }
}

impl Clone for Box<dyn ObjState> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Wraps a typed [`DataType`] as an erased [`ObjectSpec`].
pub struct Erased<T: DataType> {
    inner: Arc<T>,
}

impl<T: DataType> Erased<T> {
    /// Wrap a data type.
    pub fn new(inner: T) -> Self {
        Erased { inner: Arc::new(inner) }
    }

    /// Access the typed specification.
    pub fn typed(&self) -> &T {
        &self.inner
    }
}

impl<T: DataType> Clone for Erased<T> {
    fn clone(&self) -> Self {
        Erased { inner: Arc::clone(&self.inner) }
    }
}

struct ErasedState<T: DataType> {
    spec: Arc<T>,
    state: T::State,
}

impl<T: DataType> ObjState for ErasedState<T> {
    fn apply(&mut self, op: &'static str, arg: &Value) -> Value {
        self.spec.apply_inplace(&mut self.state, op, arg)
    }

    fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
        self.spec.apply_if(&mut self.state, op, arg, expected)
    }

    fn clone_box(&self) -> Box<dyn ObjState> {
        Box::new(ErasedState { spec: Arc::clone(&self.spec), state: self.state.clone() })
    }

    fn canonical(&self) -> Value {
        self.spec.canonical(&self.state)
    }

    fn state_hash(&self) -> u64 {
        // `State: Eq + Hash` and canonical states (observational equivalence
        // iff `==`, see the `DataType` contract) make hashing the typed state
        // directly equivalent to hashing `canonical()` — without allocating
        // the `Value` encoding.
        crate::fxhash::hash64(&self.state)
    }
}

impl<T: DataType> ObjectSpec for Erased<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> SpecKind {
        self.inner.kind()
    }

    fn ops(&self) -> &[OpMeta] {
        self.inner.ops()
    }

    fn op_meta(&self, op: &str) -> Option<&OpMeta> {
        self.inner.op_meta(op)
    }

    fn new_object(&self) -> Box<dyn ObjState> {
        Box::new(ErasedState { spec: Arc::clone(&self.inner), state: self.inner.initial() })
    }

    fn suggested_args(&self, op: &'static str) -> Vec<Value> {
        self.inner.suggested_args(op)
    }
}

/// Convenience: erase a data type into a shareable `Arc<dyn ObjectSpec>`.
pub fn erase<T: DataType>(t: T) -> Arc<dyn ObjectSpec> {
    Arc::new(Erased::new(t))
}

/// A history-based object: the literal `execute_Locally` of the paper's
/// Algorithm 1 (lines 30–33), which stores the executed operation sequence
/// and derives each return value as "the unique `ret` such that
/// `history.op(arg, ret)` is legal".
///
/// Functionally identical to the state-based [`ObjState`] (the paper notes
/// the history "can be optimized to contain only the currently-relevant
/// information" — which is exactly what a canonical state is); this wrapper
/// exists to validate that equivalence executably and to match the
/// pseudocode line for line.
pub struct HistoryObject {
    spec: Arc<dyn ObjectSpec>,
    history: Vec<Invocation>,
}

impl HistoryObject {
    /// An empty-history object over `spec`.
    pub fn new(spec: Arc<dyn ObjectSpec>) -> Self {
        HistoryObject { spec, history: Vec::new() }
    }

    /// The executed operation sequence so far.
    pub fn history(&self) -> &[Invocation] {
        &self.history
    }
}

impl ObjState for HistoryObject {
    fn apply(&mut self, op: &'static str, arg: &Value) -> Value {
        // Line 31: let ret be the unique return value such that
        // history.op(arg, ret) is legal — computed by replaying the history.
        self.history.push(Invocation { op, arg: arg.clone() });
        self.spec.run_history(&self.history).pop().expect("non-empty history")
    }

    fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
        if self.apply(op, arg) == *expected {
            true
        } else {
            // Un-append: the history representation makes rollback a pop.
            self.history.pop();
            false
        }
    }

    fn clone_box(&self) -> Box<dyn ObjState> {
        Box::new(HistoryObject { spec: Arc::clone(&self.spec), history: self.history.clone() })
    }

    fn canonical(&self) -> Value {
        // Replay to the canonical state (History Oblivion: only the sequence
        // matters, and equal sequences give equal states).
        let mut obj = self.spec.new_object();
        for inv in &self.history {
            obj.apply(inv.op, &inv.arg);
        }
        obj.canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::queue::FifoQueue;
    use crate::types::register::Register;

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::PureMutator.is_mutator());
        assert!(!OpClass::PureMutator.is_accessor());
        assert!(OpClass::PureAccessor.is_accessor());
        assert!(!OpClass::PureAccessor.is_mutator());
        assert!(OpClass::Mixed.is_mutator() && OpClass::Mixed.is_accessor());
    }

    #[test]
    fn invocation_is_40_bytes() {
        assert_eq!(std::mem::size_of::<Invocation>(), 40);
    }

    #[test]
    fn run_and_check_legal_register() {
        let reg = Register::new(0);
        let invs = vec![
            Invocation::nullary("read"),
            Invocation::new("write", 7),
            Invocation::nullary("read"),
        ];
        let (state, insts) = reg.run(&invs);
        assert_eq!(state, 7);
        assert_eq!(insts[0].ret, Value::Int(0));
        assert_eq!(insts[2].ret, Value::Int(7));
        assert!(reg.check_legal(&insts).is_ok());

        let mut bad = insts.clone();
        bad[2].ret = Value::Int(99);
        assert_eq!(reg.check_legal(&bad), Err(2));
    }

    #[test]
    fn erased_round_trip_matches_typed() {
        let q = FifoQueue::new();
        let erased = erase(FifoQueue::new());
        let invs = vec![
            Invocation::new("enqueue", 1),
            Invocation::new("enqueue", 2),
            Invocation::nullary("dequeue"),
            Invocation::nullary("peek"),
        ];
        let (_, typed_insts) = q.run(&invs);
        let rets = erased.run_history(&invs);
        let erased_rets: Vec<_> = rets.into_iter().collect();
        let typed_rets: Vec<_> = typed_insts.iter().map(|i| i.ret.clone()).collect();
        assert_eq!(erased_rets, typed_rets);
    }

    #[test]
    fn erased_legality_checks() {
        let erased = erase(FifoQueue::new());
        let legal = vec![OpInstance::new("enqueue", 5, ()), OpInstance::new("peek", (), 5)];
        assert!(erased.is_legal(&legal));
        let illegal = vec![OpInstance::new("enqueue", 5, ()), OpInstance::new("peek", (), 6)];
        assert_eq!(erased.first_illegal(&illegal), Some(1));
    }

    #[test]
    fn erased_apply_if_commits_iff_response_matches() {
        let erased = erase(FifoQueue::new());
        let mut obj = erased.new_object();
        assert!(obj.apply_if("enqueue", &Value::Int(1), &Value::Unit));
        // Wrong expected response: rejected, state untouched.
        assert!(!obj.apply_if("dequeue", &Value::Unit, &Value::Int(9)));
        assert_eq!(obj.canonical(), Value::list([Value::Int(1)]));
        assert!(obj.apply_if("dequeue", &Value::Unit, &Value::Int(1)));
        assert!(obj.apply_if("dequeue", &Value::Unit, &Value::Unit));
    }

    #[test]
    fn inplace_apply_matches_pure_apply_across_types() {
        use crate::types::{GrowSet, KvStore, PriorityQueue, Stack};
        // Replay every type's suggested mutator/accessor mix two ways: the
        // pure `apply` (via `run`) and the erased in-place object (which uses
        // `apply_inplace`). Responses and final canonical states must agree.
        let specs: Vec<Arc<dyn ObjectSpec>> = vec![
            erase(FifoQueue::new()),
            erase(Stack::new()),
            erase(PriorityQueue::new()),
            erase(GrowSet::new()),
            erase(KvStore::new()),
        ];
        for spec in specs {
            let mut invs = Vec::new();
            for round in 0..3 {
                for m in spec.ops() {
                    for arg in spec.suggested_args(m.name).into_iter().skip(round).take(2) {
                        invs.push(Invocation { op: m.name, arg });
                    }
                }
            }
            let rets = spec.run_history(&invs); // in-place path
            let mut obj = spec.new_object();
            let mut via_if = Vec::new();
            for inv in &invs {
                // The conditional path must accept the known-legal response…
                let mut probe = obj.clone_box();
                assert!(
                    probe.apply_if(inv.op, &inv.arg, &rets[via_if.len()]),
                    "{}: apply_if rejected the legal response of {inv:?}",
                    spec.name()
                );
                // …and its committed state must match the plain apply.
                via_if.push(obj.apply(inv.op, &inv.arg));
                assert_eq!(probe.canonical(), obj.canonical(), "{}: {inv:?}", spec.name());
            }
            assert_eq!(rets, via_if, "{}", spec.name());
        }
    }

    #[test]
    fn erased_object_clone_is_snapshot() {
        let erased = erase(FifoQueue::new());
        let mut obj = erased.new_object();
        obj.apply("enqueue", &Value::Int(1));
        let snap = obj.clone_box();
        obj.apply("enqueue", &Value::Int(2));
        assert_ne!(obj.canonical(), snap.canonical());
    }
}
