//! Bounded instance universes and reachable-state enumeration.
//!
//! The paper's operation properties (mutator, accessor, transposable,
//! last-sensitive, pair-free, …) quantify over *all* legal sequences ρ and
//! *all* operation instances. To make them executable we bound both: a
//! [`Universe`] fixes a finite set of candidate invocations (per operation),
//! and [`reachable_states`] enumerates the states reachable by applying
//! universe invocations up to a depth limit. A property checked over these
//! bounds is a *certificate* for existential properties (a found witness is a
//! real witness) and a *bounded verification* for universal ones.

use crate::spec::{DataType, Invocation};
use std::collections::HashSet;

/// Exploration limits for state enumeration and property checking.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum length of the generating sequence ρ.
    pub max_depth: usize,
    /// Maximum number of distinct states to collect.
    pub max_states: usize,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits { max_depth: 4, max_states: 400 }
    }
}

impl ExploreLimits {
    /// A quick exploration for smoke tests and fast reports.
    pub fn quick() -> Self {
        ExploreLimits { max_depth: 3, max_states: 100 }
    }
}

/// A finite set of candidate invocations, grouped per operation.
#[derive(Clone, Debug, Default)]
pub struct Universe {
    invocations: Vec<Invocation>,
}

impl Universe {
    /// Build the default universe for a data type from its
    /// [`DataType::suggested_args`].
    pub fn for_type<T: DataType>(t: &T) -> Self {
        let mut invocations = Vec::new();
        for meta in t.ops() {
            for arg in t.suggested_args(meta.name) {
                invocations.push(Invocation { op: meta.name, arg });
            }
        }
        Universe { invocations }
    }

    /// All candidate invocations.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Candidate invocations of one operation.
    pub fn of_op<'a>(&'a self, op: &'a str) -> impl Iterator<Item = &'a Invocation> + 'a {
        self.invocations.iter().filter(move |inv| inv.op == op)
    }

    /// Candidate argument values of one operation.
    pub fn args_of<'a>(
        &'a self,
        op: &'a str,
    ) -> impl Iterator<Item = &'a crate::value::Value> + 'a {
        self.of_op(op).map(|inv| &inv.arg)
    }

    /// Number of candidate invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True if the universe has no invocations.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }
}

/// Enumerate states reachable from the initial state by applying universe
/// invocations, breadth-first, up to `limits.max_depth` steps and
/// `limits.max_states` distinct states. The initial state is always first.
pub fn reachable_states<T: DataType>(
    t: &T,
    universe: &Universe,
    limits: ExploreLimits,
) -> Vec<T::State> {
    let mut seen: HashSet<T::State> = HashSet::new();
    let mut order: Vec<T::State> = Vec::new();
    let initial = t.initial();
    seen.insert(initial.clone());
    order.push(initial.clone());
    let mut frontier = vec![initial];

    for _ in 0..limits.max_depth {
        if order.len() >= limits.max_states {
            break;
        }
        let mut next_frontier = Vec::new();
        for state in &frontier {
            for inv in universe.invocations() {
                if order.len() >= limits.max_states {
                    break;
                }
                let (next, _) = t.apply(state, inv.op, &inv.arg);
                if seen.insert(next.clone()) {
                    order.push(next.clone());
                    next_frontier.push(next);
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::queue::FifoQueue;
    use crate::types::register::Register;
    use crate::types::set::GrowSet;

    #[test]
    fn universe_covers_all_ops() {
        let q = FifoQueue::new();
        let u = Universe::for_type(&q);
        assert!(u.of_op("enqueue").count() >= 2);
        assert_eq!(u.of_op("dequeue").count(), 1);
        assert_eq!(u.of_op("peek").count(), 1);
        assert!(!u.is_empty());
    }

    #[test]
    fn register_reachable_states_are_values() {
        let r = Register::new(0);
        let u = Universe::for_type(&r);
        let states = reachable_states(&r, &u, ExploreLimits::default());
        // Initial plus each writable value.
        assert!(states.contains(&0));
        assert!(states.contains(&7));
        assert_eq!(states.len(), 8); // writes of 0..8, 0 == initial
    }

    #[test]
    fn queue_reachable_states_grow_with_depth() {
        let q = FifoQueue::new();
        let u = Universe::for_type(&q);
        let shallow = reachable_states(&q, &u, ExploreLimits { max_depth: 1, max_states: 1000 });
        let deep = reachable_states(&q, &u, ExploreLimits { max_depth: 3, max_states: 1000 });
        assert!(deep.len() > shallow.len());
        // Depth 1: empty + 8 singletons.
        assert_eq!(shallow.len(), 9);
    }

    #[test]
    fn max_states_cap_is_respected() {
        let q = FifoQueue::new();
        let u = Universe::for_type(&q);
        let states = reachable_states(&q, &u, ExploreLimits { max_depth: 10, max_states: 50 });
        assert!(states.len() <= 50);
    }

    #[test]
    fn initial_state_is_first() {
        let s = GrowSet::new();
        let u = Universe::for_type(&s);
        let states = reachable_states(&s, &u, ExploreLimits::default());
        assert_eq!(states[0], s.initial());
    }
}
