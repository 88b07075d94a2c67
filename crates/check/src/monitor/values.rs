//! Op values numbered densely, for the monitors' value matching.

use lintime_adt::fxhash::FxBuildHasher;
use lintime_adt::value::Value;
use std::collections::HashMap;

/// Op values, numbered densely in the order they are first interned.
/// Integers index a table directly while they span a range not much wider
/// than their count — what the harness writes — and are hashed as
/// themselves once they stop doing so; any other value is hashed by its
/// whole structure. Values come from the ops, which can come from outside:
/// a crafted trace can slow only its own check.
#[derive(Default)]
pub(crate) struct ValueIds<'a> {
    /// While `hashed` is false, `table[v - base]` is the id of
    /// `Value::Int(v)`, or `u32::MAX`.
    table: Vec<u32>,
    base: i64,
    /// Integers interned.
    ints: u32,
    hashed: bool,
    hashed_ints: HashMap<i64, u32, FxBuildHasher>,
    others: HashMap<&'a Value, u32, FxBuildHasher>,
    len: u32,
}

impl<'a> ValueIds<'a> {
    /// Number `values` in order; returns each position's id, the id of the
    /// value's first occurrence.
    pub(crate) fn number(values: &[&'a Value]) -> (Self, Vec<u32>) {
        let mut ids = ValueIds::default();
        let numbered = values.iter().map(|&v| ids.intern(v).0).collect();
        (ids, numbered)
    }

    /// `v`'s id, and whether `v` is new (it then gets the next id).
    pub(crate) fn intern(&mut self, v: &'a Value) -> (u32, bool) {
        let next = self.len;
        let id = match v {
            Value::Int(k) if self.slot(*k).is_some() || self.widen(*k) => {
                &mut self.table[(k - self.base) as usize]
            }
            Value::Int(k) => self.hashed_ints.entry(*k).or_insert(next),
            other => self.others.entry(other).or_insert(next),
        };
        if *id == u32::MAX {
            *id = next;
        }
        let new = *id == next;
        self.len += u32::from(new);
        self.ints += u32::from(new && matches!(v, Value::Int(_)));
        (*id, new)
    }

    /// `k`'s position in the table, if the table covers it (never once
    /// integers are hashed: the table is then empty).
    fn slot(&self, k: i64) -> Option<usize> {
        let slot = k.wrapping_sub(self.base) as u64;
        (slot < self.table.len() as u64).then_some(slot as usize)
    }

    /// Make the table cover `k` while it stays dense, or move every integer
    /// to the hash map once it would not; whether `k` has a table slot.
    fn widen(&mut self, k: i64) -> bool {
        if self.hashed {
            return false;
        }
        let (base, k) = (i128::from(self.base), i128::from(k));
        let end = base + self.table.len() as i128;
        if self.table.is_empty() {
            (self.base, self.table) = (k as i64, vec![u32::MAX]);
            return true;
        }
        if (base..end).contains(&k) {
            return true;
        }
        if end.max(k + 1) - base.min(k) <= 4 * i128::from(self.ints + 1) + 64 {
            if k >= end {
                self.table.resize((k - base) as usize + 1, u32::MAX);
            } else {
                // Room again as wide below, so a run of ever smaller values
                // costs amortized constant time per value.
                let low = (k - self.table.len() as i128).max(i128::from(i64::MIN));
                let mut table = vec![u32::MAX; (base - low) as usize];
                table.extend_from_slice(&self.table);
                (self.base, self.table) = (low as i64, table);
            }
            return true;
        }
        self.hashed = true;
        let table = std::mem::take(&mut self.table);
        let slots = table.into_iter().enumerate().filter(|&(_, id)| id != u32::MAX);
        self.hashed_ints.extend(slots.map(|(slot, id)| (self.base + slot as i64, id)));
        false
    }

    /// The id of `v`, if it was interned.
    pub(crate) fn get(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Int(k) if !self.hashed => {
                self.slot(*k).map(|slot| self.table[slot]).filter(|&id| id != u32::MAX)
            }
            Value::Int(k) => self.hashed_ints.get(k).copied(),
            other => self.others.get(other).copied(),
        }
    }

    /// The number of distinct values.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The ids in ascending value order, when every value interned is an
    /// integer of the table: a walk of the table, no sort.
    pub(crate) fn ascending_ints(&self) -> Option<impl Iterator<Item = u32> + '_> {
        let all_in_table = !self.hashed && self.others.is_empty();
        all_in_table.then(|| self.table.iter().copied().filter(|&id| id != u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintime_sim::rng::SplitMix64;

    /// Interning agrees with a plain map whatever the integers' spread: a
    /// compact run up and down (the table), then far-apart values (the
    /// switch to hashing), with non-integers throughout.
    #[test]
    fn ids_match_a_reference_map() {
        let mut rng = SplitMix64::seed_from_u64(0x1D5);
        let mut values: Vec<Value> = (0..300).map(|k| Value::Int(k % 7 * 40 - k)).collect();
        values
            .extend((0..300).map(|_| Value::Int(rng.gen_range(-1_000_000_000i64..1_000_000_000))));
        values.extend([i64::MIN, i64::MAX, 0, -1].map(Value::Int));
        for k in (0..values.len()).step_by(5) {
            values.insert(k, Value::pair(k as i64 % 3, 1));
        }
        let mut ids = ValueIds::default();
        let mut reference: HashMap<&Value, u32> = HashMap::new();
        for (step, v) in values.iter().enumerate() {
            let expected = reference.len() as u32;
            let id = *reference.entry(v).or_insert(expected);
            assert_eq!(ids.intern(v), (id, id == expected), "step {step}: {v:?}");
            assert_eq!(ids.len(), reference.len());
        }
        for v in &values {
            assert_eq!(ids.get(v), reference.get(v).copied());
        }
        for absent in [Value::Int(i64::MIN + 1), Value::Unit, Value::Int(5_000_000_000)] {
            assert_eq!(ids.get(&absent), None);
        }
        let (numbered, positions) = ValueIds::number(&values.iter().collect::<Vec<_>>());
        assert_eq!(numbered.len(), reference.len());
        assert!(positions.iter().zip(&values).all(|(&id, v)| reference[v] == id));
    }

    #[test]
    fn compact_integers_come_out_in_order() {
        let values: Vec<Value> = [5, 3, 9, 4, 8].map(Value::Int).to_vec();
        let (ids, _) = ValueIds::number(&values.iter().collect::<Vec<_>>());
        let ascending: Vec<u32> = ids.ascending_ints().expect("all in the table").collect();
        assert_eq!(ascending, vec![1, 3, 0, 4, 2]);
        let (mixed, _) = ValueIds::number(&[&Value::Int(1), &Value::Unit]);
        assert!(mixed.ascending_ints().is_none());
    }
}
