//! Dynamic value model shared by all data-type specifications.
//!
//! Operation arguments, return values, and canonical state encodings are all
//! [`Value`]s. Keeping a single dynamic value type lets the simulator, the
//! linearizability checker, and the benchmark harness stay generic over data
//! types without a proliferation of type parameters.
//!
//! Every recorded operation carries two `Value`s (argument and return), so
//! the layout is kept tight: a `Value` is 24 bytes, and `Option<Value>` is
//! too (the `None` niche lives in the tag). `Str` and `List` hold boxed
//! slices (pointer + length, no spare capacity); `Pair` keeps two boxes,
//! which with its tag sets the 24-byte floor. Boxed slices hash, compare and
//! print exactly like the `String` / `Vec` they replace, so hashes,
//! ordering, `Debug` output and [`Value::wire_bytes`] do not depend on the
//! layout.

use std::fmt;

/// A dynamic value: operation argument, return value, or canonical state.
///
/// The total order (`Ord`) is structural and exists so values can be used as
/// keys (e.g. in the reachable-state sets of the classifier) and so the
/// timestamp tie-breaking in tests is deterministic. `Unit` sorts first.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Value {
    /// The absence of an argument or return value (`-` in the paper).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer; the workhorse for register values, queue items, node ids.
    Int(i64),
    /// A short string label.
    Str(Box<str>),
    /// An ordered pair, used for compound arguments such as `insert(child, parent)`.
    Pair(Box<Value>, Box<Value>),
    /// A sequence, used for canonical state encodings (queue contents, etc.).
    List(Box<[Value]>),
}

impl Value {
    /// Build a pair value.
    pub fn pair(a: impl Into<Value>, b: impl Into<Value>) -> Value {
        Value::Pair(Box::new(a.into()), Box::new(b.into()))
    }

    /// Build a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the two components, if this is a `Pair`.
    pub fn as_pair(&self) -> Option<(&Value, &Value)> {
        match self {
            Value::Pair(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// True iff this is `Unit`.
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Estimated serialized size in bytes, for communication-cost
    /// accounting: one tag byte plus the payload (8 bytes per integer,
    /// 1 per boolean, string length, recursive for compounds).
    pub fn wire_bytes(&self) -> usize {
        1 + match self {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Str(s) => s.len(),
            Value::Pair(a, b) => a.wire_bytes() + b.wire_bytes(),
            Value::List(items) => items.iter().map(Value::wire_bytes).sum(),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into_boxed_str())
    }
}

impl From<()> for Value {
    fn from(_: ()) -> Self {
        Value::Unit
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "-"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(a, b) => write!(f, "({a:?}, {b:?})"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item:?}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(()), Value::Unit);
        assert!(Value::Unit.is_unit());
        assert!(!Value::Int(0).is_unit());
    }

    #[test]
    fn pair_accessors() {
        let p = Value::pair(1, 2);
        let (a, b) = p.as_pair().unwrap();
        assert_eq!(a.as_int(), Some(1));
        assert_eq!(b.as_int(), Some(2));
        assert_eq!(Value::Int(3).as_pair(), None);
    }

    #[test]
    fn ordering_is_total_and_unit_first() {
        let mut vs = [
            Value::Int(5),
            Value::Unit,
            Value::Bool(false),
            Value::Int(-1),
            Value::list([Value::Int(1)]),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Unit);
        // Ints sorted among themselves.
        let ints: Vec<i64> = vs.iter().filter_map(Value::as_int).collect();
        assert_eq!(ints, vec![-1, 5]);
    }

    #[test]
    fn hashable_in_sets() {
        let mut s = HashSet::new();
        s.insert(Value::pair(1, Value::list([Value::Int(2)])));
        s.insert(Value::pair(1, Value::list([Value::Int(2)])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn layout_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Value::Unit), "-");
        assert_eq!(format!("{:?}", Value::Int(3)), "3");
        assert_eq!(format!("{:?}", Value::list([Value::Int(1), Value::Int(2)])), "[1, 2]");
        assert_eq!(format!("{:?}", Value::pair(1, 2)), "(1, 2)");
    }
}
