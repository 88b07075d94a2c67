//! Products of data types: several named objects behind one specification.
//!
//! Section 2.3 of the paper recalls that "a run is linearizable if and only
//! if the restriction of the run to each individual object is linearizable"
//! — linearizability is *local*. This module provides the composition side:
//! a [`ProductSpec`] combines component specifications under namespaced
//! operation names (`"{prefix}/{op}"`), so any implementation of a single
//! linearizable object (Algorithm 1 included) transparently serves several.
//! The locality test in `tests/pipeline` projects a product run back onto
//! its components and checks each projection independently.

use crate::spec::{ObjState, ObjectSpec, OpMeta, SpecKind};
use crate::value::Value;
use std::sync::Arc;

/// A product of named component specifications.
pub struct ProductSpec {
    name: &'static str,
    components: Vec<(&'static str, Arc<dyn ObjectSpec>)>,
    /// Namespaced operation metadata (leaked once per product construction
    /// so `OpMeta::name` can stay `&'static str` across the workspace).
    ops: Vec<OpMeta>,
}

impl ProductSpec {
    /// Build a product of components, each reachable under
    /// `"{prefix}/{op}"`. Prefixes must be unique.
    ///
    /// Note: namespaced operation names are interned with `String::leak`, so
    /// build products once per configuration, not in a loop.
    pub fn new(name: &'static str, components: Vec<(&'static str, Arc<dyn ObjectSpec>)>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for (prefix, _) in &components {
            assert!(seen.insert(*prefix), "duplicate component prefix {prefix:?}");
            assert!(!prefix.contains('/'), "prefixes must not contain '/'");
        }
        let mut ops = Vec::new();
        for (prefix, spec) in &components {
            for meta in spec.ops() {
                let full: &'static str = String::leak(format!("{prefix}/{}", meta.name));
                ops.push(OpMeta::new(full, meta.class, meta.has_arg, meta.has_ret));
            }
        }
        ProductSpec { name, components, ops }
    }

    /// The component prefixes.
    pub fn prefixes(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.components.iter().map(|(p, _)| *p)
    }

    /// Look up a component by prefix.
    pub fn component(&self, prefix: &str) -> Option<&Arc<dyn ObjectSpec>> {
        self.components.iter().find(|(p, _)| *p == prefix).map(|(_, s)| s)
    }

    /// Split a namespaced operation name into `(prefix, inner op)`.
    pub fn split(op: &str) -> Option<(&str, &str)> {
        op.split_once('/')
    }

    fn component_index(&self, prefix: &str) -> Option<usize> {
        self.components.iter().position(|(p, _)| *p == prefix)
    }
}

struct ProductState {
    /// Component prefixes (shared ordering with `objects`).
    prefixes: Vec<&'static str>,
    objects: Vec<Box<dyn ObjState>>,
}

impl ObjState for ProductState {
    fn apply(&mut self, op: &'static str, arg: &Value) -> Value {
        // `op` is 'static, so its split halves are too.
        let (prefix, inner) = ProductSpec::split(op)
            .unwrap_or_else(|| panic!("product operation {op:?} lacks a 'prefix/' namespace"));
        let idx = self
            .prefixes
            .iter()
            .position(|p| *p == prefix)
            .unwrap_or_else(|| panic!("unknown component {prefix:?}"));
        self.objects[idx].apply(inner, arg)
    }

    fn apply_if(&mut self, op: &'static str, arg: &Value, expected: &Value) -> bool {
        let (prefix, inner) = ProductSpec::split(op)
            .unwrap_or_else(|| panic!("product operation {op:?} lacks a 'prefix/' namespace"));
        let idx = self
            .prefixes
            .iter()
            .position(|p| *p == prefix)
            .unwrap_or_else(|| panic!("unknown component {prefix:?}"));
        // Only the addressed component can change, so its own conditional
        // apply is the product's: a rejection leaves every component intact.
        self.objects[idx].apply_if(inner, arg, expected)
    }

    fn clone_box(&self) -> Box<dyn ObjState> {
        Box::new(ProductState {
            prefixes: self.prefixes.clone(),
            objects: self.objects.iter().map(|o| o.clone_box()).collect(),
        })
    }

    fn canonical(&self) -> Value {
        Value::list(
            self.prefixes.iter().zip(&self.objects).map(|(p, o)| Value::pair(*p, o.canonical())),
        )
    }
}

impl ObjectSpec for ProductSpec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> SpecKind {
        SpecKind::Product
    }

    fn ops(&self) -> &[OpMeta] {
        &self.ops
    }

    fn op_meta(&self, op: &str) -> Option<&OpMeta> {
        self.ops.iter().find(|m| m.name == op)
    }

    fn new_object(&self) -> Box<dyn ObjState> {
        Box::new(ProductState {
            prefixes: self.components.iter().map(|(p, _)| *p).collect(),
            objects: self.components.iter().map(|(_, s)| s.new_object()).collect(),
        })
    }

    fn suggested_args(&self, op: &'static str) -> Vec<Value> {
        let Some((prefix, inner)) = ProductSpec::split(op) else {
            return vec![Value::Unit];
        };
        let Some(idx) = self.component_index(prefix) else {
            return vec![Value::Unit];
        };
        let comp = &self.components[idx].1;
        comp.op_meta(inner)
            .map(|m| comp.suggested_args(m.name))
            .unwrap_or_else(|| vec![Value::Unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{erase, Invocation, OpClass};
    use crate::types::{FifoQueue, Register};

    fn product() -> ProductSpec {
        ProductSpec::new(
            "reg+queue",
            vec![("reg", erase(Register::new(0))), ("q", erase(FifoQueue::new()))],
        )
    }

    #[test]
    fn namespaced_ops_dispatch() {
        let p = product();
        let rets = p.run_history(&[
            Invocation::new("reg/write", 5),
            Invocation::new("q/enqueue", 9),
            Invocation::nullary("reg/read"),
            Invocation::nullary("q/peek"),
        ]);
        assert_eq!(rets[2], Value::Int(5));
        assert_eq!(rets[3], Value::Int(9));
    }

    #[test]
    fn components_are_independent() {
        let p = product();
        let mut obj = p.new_object();
        obj.apply(p.op_meta("reg/write").unwrap().name, &Value::Int(7));
        // Queue still empty.
        let peek = p.op_meta("q/peek").unwrap().name;
        assert_eq!(obj.apply(peek, &Value::Unit), Value::Unit);
    }

    #[test]
    fn op_metadata_is_namespaced() {
        let p = product();
        assert_eq!(p.ops().len(), 5); // 2 register + 3 queue
        assert_eq!(p.op_meta("q/dequeue").unwrap().class, OpClass::Mixed);
        assert_eq!(p.op_meta("reg/read").unwrap().class, OpClass::PureAccessor);
        assert!(p.op_meta("dequeue").is_none());
    }

    #[test]
    fn canonical_state_covers_all_components() {
        let p = product();
        let mut obj = p.new_object();
        obj.apply(p.op_meta("q/enqueue").unwrap().name, &Value::Int(1));
        let c = format!("{:?}", obj.canonical());
        assert!(c.contains("reg"), "{c}");
        assert!(c.contains("[1]"), "{c}");
    }

    #[test]
    #[should_panic(expected = "duplicate component prefix")]
    fn duplicate_prefix_rejected() {
        let _ = ProductSpec::new(
            "bad",
            vec![("x", erase(Register::new(0))), ("x", erase(FifoQueue::new()))],
        );
    }

    #[test]
    fn suggested_args_delegate() {
        let p = product();
        let enq = p.op_meta("q/enqueue").unwrap().name;
        assert!(!p.suggested_args(enq).is_empty());
    }
}
