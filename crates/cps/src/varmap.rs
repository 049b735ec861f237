//! Tables keyed by variable, indexed by the variable's number.

use crate::cps::CVar;

/// Sets `table[v]`, growing the table with `fill` if `v` is past its end.
pub(crate) fn set<T: Copy>(table: &mut Vec<T>, v: CVar, x: T, fill: T) {
    let v = v as usize;
    if v >= table.len() {
        table.resize(v + 1, fill);
    }
    table[v] = x;
}

/// The slot of a variable with no entry.
const NONE: u32 = u32::MAX;

/// A map from variables to `T`: `slot[v]` indexes `entries`, so a lookup
/// is two array reads and no hash, and [`VarMap::clear`] costs what was
/// inserted, not the number of variables. The slot table grows to the
/// largest variable inserted and is kept across clears, so a phase that
/// reuses one map allocates it once.
pub(crate) struct VarMap<T> {
    slot: Vec<u32>,
    entries: Vec<(CVar, T)>,
}

impl<T> Default for VarMap<T> {
    fn default() -> Self {
        VarMap {
            slot: Vec::new(),
            entries: Vec::new(),
        }
    }
}

impl<T> VarMap<T> {
    /// The entry of `v`, if any.
    pub(crate) fn get(&self, v: CVar) -> Option<&T> {
        let i = *self.slot.get(v as usize)?;
        self.entries.get(i as usize).map(|(_, t)| t)
    }

    /// The entry of `v`, if any, for writing.
    pub(crate) fn get_mut(&mut self, v: CVar) -> Option<&mut T> {
        let i = *self.slot.get(v as usize)?;
        self.entries.get_mut(i as usize).map(|(_, t)| t)
    }

    /// Sets the entry of `v`, replacing any earlier one.
    pub(crate) fn insert(&mut self, v: CVar, t: T) {
        let at = v as usize;
        if at >= self.slot.len() {
            self.slot.resize(at + 1, NONE);
        }
        match self.slot[at] {
            NONE => {
                self.slot[at] = self.entries.len() as u32;
                self.entries.push((v, t));
            }
            i => self.entries[i as usize].1 = t,
        }
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        for (v, _) in self.entries.drain(..) {
            self.slot[v as usize] = NONE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_replace_and_clear_forgets() {
        let mut m = VarMap::default();
        assert_eq!(m.get(7), None);
        m.insert(7, "a");
        m.insert(2, "b");
        m.insert(7, "c");
        assert_eq!(
            (m.get(7), m.get(2), m.get(3), m.get(900)),
            (Some(&"c"), Some(&"b"), None, None)
        );
        *m.get_mut(2).expect("bound") = "d";
        assert_eq!(m.get(2), Some(&"d"));
        m.clear();
        assert_eq!((m.get(7), m.get(2)), (None, None));
        m.insert(2, "e");
        assert_eq!((m.get(2), m.get(7)), (Some(&"e"), None));
    }
}
