//! Global symbol interning.
//!
//! Identifiers occur everywhere in the compiler (AST, elaboration
//! environments, lambda-language structure fields), so we intern them once
//! into a process-global table and pass around copyable [`Symbol`] handles.
//! Interning is global (rather than per-compilation) because symbols carry
//! no compilation-unit state; this mirrors SML/NJ's global `Symbol` module.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned identifier.
///
/// Two `Symbol`s are equal iff they were interned from equal strings, so
/// equality and hashing are O(1).
///
/// # Examples
///
/// ```
/// use sml_ast::Symbol;
/// let a = Symbol::intern("map");
/// let b = Symbol::intern("map");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "map");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// How many numeric labels (`0 ..`) [`Symbol::numeric`] caches: wider
/// than any tuple or record the compiler builds in practice.
const NUMERIC_CACHE: usize = 64;

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its canonical handle.
    pub fn intern(s: &str) -> Symbol {
        let mut g = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = g.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = g.strings.len() as u32;
        g.strings.push(leaked);
        g.map.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        let g = interner().lock().expect("symbol interner poisoned");
        g.strings[self.0 as usize]
    }

    /// A numeric label symbol (`1`, `2`, ...) used for tuple fields.
    ///
    /// Labels below [`NUMERIC_CACHE`] are interned on their first use,
    /// as any symbol is, and then answered from a table without
    /// formatting or locking.
    pub fn numeric(n: usize) -> Symbol {
        static SMALL: [OnceLock<Symbol>; NUMERIC_CACHE] =
            [const { OnceLock::new() }; NUMERIC_CACHE];
        match SMALL.get(n) {
            Some(cell) => *cell.get_or_init(|| Symbol::intern(&n.to_string())),
            None => Symbol::intern(&n.to_string()),
        }
    }

    /// If this symbol is a numeric label, its value.
    pub fn as_numeric(self) -> Option<usize> {
        self.as_str().parse().ok()
    }

    /// The raw interner index (stable within a process run).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_identity() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        let c = Symbol::intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "foo");
        assert_eq!(c.as_str(), "bar");
    }

    #[test]
    fn numeric_labels() {
        let one = Symbol::numeric(1);
        assert_eq!(one.as_str(), "1");
        assert_eq!(one.as_numeric(), Some(1));
        assert_eq!(Symbol::intern("x").as_numeric(), None);
        // Cached and uncached labels are the symbols of their digits.
        for n in [0, NUMERIC_CACHE - 1, NUMERIC_CACHE, 1_000] {
            let s = Symbol::numeric(n);
            assert_eq!(s, Symbol::intern(&n.to_string()));
            assert_eq!(s, Symbol::numeric(n));
            assert_eq!(s.as_numeric(), Some(n));
        }
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("quux");
        assert_eq!(format!("{s}"), "quux");
        assert_eq!(format!("{s:?}"), "`quux`");
    }

    #[test]
    fn ordering_is_stable() {
        let a = Symbol::intern("stable-a");
        let b = Symbol::intern("stable-a");
        assert!(a.cmp(&b).is_eq());
    }
}
