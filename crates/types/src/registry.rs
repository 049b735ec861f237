//! The datatype registry: constructor descriptions and runtime
//! representations for every datatype in a compilation.
//!
//! Constructor representations follow SML/NJ (Appel, *Compiling with
//! Continuations*, ch. 4): nullary constructors become small tagged
//! integers; if exactly one constructor carries a value whose type is
//! certainly boxed, it is represented *transparently* (no tag record);
//! otherwise value-carrying constructors become `[tag, value]` records.

use crate::ty::{EqProp, Stamp, Tv, TvId, Ty, TyKind, TyStore, Tycon, TyconKind};
use sml_ast::FxHashMap;
use sml_ast::Symbol;

/// One datatype in a `register_batch` call: the type constructor,
/// its bound variables, and its `(constructor, payload)` list.
pub type DatatypeBatchItem = (Tycon, Vec<TvId>, Vec<(Symbol, Option<Ty>)>);

/// Runtime representation of a data constructor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConRep {
    /// Nullary constructor, represented as the tagged integer `n`.
    Constant(usize),
    /// Value-carrying constructor represented as a `[tag, value]` record.
    Tagged(usize),
    /// The only value-carrying constructor of its datatype, with a
    /// certainly-boxed payload: represented as the payload itself.
    Transparent,
    /// Exception constructor carrying a value: `[tag, value]` record at
    /// runtime, where `tag` is the exception's runtime tag object
    /// (allocated when the `exception` declaration is evaluated, so
    /// exceptions passed through functor parameters keep their identity).
    Exn,
    /// Constant exception constructor: represented by its runtime tag
    /// object itself.
    ExnConst,
}

/// Description of one data constructor.
#[derive(Clone, Debug)]
pub struct ConDef {
    /// Constructor name.
    pub name: Symbol,
    /// Payload type (in terms of the datatype's generic parameters), if
    /// value-carrying.
    pub payload: Option<Ty>,
    /// Runtime representation.
    pub rep: ConRep,
    /// Declaration index within the datatype.
    pub index: usize,
}

/// A registered datatype: its tycon, generic parameters, and constructors.
#[derive(Clone, Debug)]
pub struct DatatypeDef {
    /// The datatype's tycon (kind [`TyconKind::Data`]).
    pub tycon: Tycon,
    /// Generic parameter variables, marked [`Tv::Gen`]`(0..arity)`.
    pub params: Vec<TvId>,
    /// The constructors in declaration order.
    pub cons: Vec<ConDef>,
    /// Whether the datatype admits equality when its arguments do.
    pub admits_eq: bool,
}

/// True if every value of `ty` is certainly a heap pointer, so a
/// transparent constructor representation can be distinguished from
/// constant constructors by a boxity test.
pub fn certainly_boxed(store: &TyStore, ty: Ty) -> bool {
    match store.kind(ty) {
        TyKind::Record(fs) => !fs.is_empty(),
        TyKind::Arrow(..) => true,
        TyKind::Con(c, _) => matches!(
            c.kind,
            TyconKind::String
                | TyconKind::Ref
                | TyconKind::Array
                | TyconKind::Real
                | TyconKind::Exn
        ),
        TyKind::Var(_) => false,
    }
}

/// Assigns [`ConRep`]s to a list of `(name, payload)` constructor
/// declarations.
pub fn assign_reps(store: &TyStore, cons: &[(Symbol, Option<Ty>)]) -> Vec<ConDef> {
    let n_carrying = cons.iter().filter(|(_, p)| p.is_some()).count();
    let single_transparent = n_carrying == 1
        && cons
            .iter()
            .filter_map(|(_, p)| *p)
            .all(|p| certainly_boxed(store, p));
    let mut const_idx = 0;
    let mut tag_idx = 0;
    cons.iter()
        .enumerate()
        .map(|(index, (name, payload))| {
            let rep = match payload {
                None => {
                    let r = ConRep::Constant(const_idx);
                    const_idx += 1;
                    r
                }
                Some(_) if single_transparent => ConRep::Transparent,
                Some(_) => {
                    let r = ConRep::Tagged(tag_idx);
                    tag_idx += 1;
                    r
                }
            };
            ConDef {
                name: *name,
                payload: *payload,
                rep,
                index,
            }
        })
        .collect()
}

/// All datatypes known to a compilation, keyed by tycon stamp.
#[derive(Clone, Debug, Default)]
pub struct TyconRegistry {
    map: FxHashMap<Stamp, DatatypeDef>,
}

impl TyconRegistry {
    /// An empty registry (no built-ins; mostly for tests).
    pub fn new() -> TyconRegistry {
        TyconRegistry::default()
    }

    /// A registry pre-populated with `bool`, `'a list`, `'a option`, and
    /// `order`, their types made in `store`.
    pub fn with_builtins(store: &mut TyStore) -> TyconRegistry {
        let mut reg = TyconRegistry::new();

        // datatype bool = false | true  (false = 0, true = 1)
        reg.register_batch(
            store,
            vec![(
                Tycon::bool(),
                Vec::new(),
                vec![
                    (Symbol::intern("false"), None),
                    (Symbol::intern("true"), None),
                ],
            )],
        );

        // datatype 'a list = nil | :: of 'a * 'a list
        let p = store.new_tv(Tv::Gen(0));
        let elem = store.var_ty(p);
        let list = store.list(elem);
        let payload = store.pair(elem, list);
        reg.register_batch(
            store,
            vec![(
                Tycon::list(),
                vec![p],
                vec![
                    (Symbol::intern("nil"), None),
                    (Symbol::intern("::"), Some(payload)),
                ],
            )],
        );

        // datatype 'a option = NONE | SOME of 'a
        let p = store.new_tv(Tv::Gen(0));
        let elem = store.var_ty(p);
        reg.register_batch(
            store,
            vec![(
                Tycon::option(),
                vec![p],
                vec![
                    (Symbol::intern("NONE"), None),
                    (Symbol::intern("SOME"), Some(elem)),
                ],
            )],
        );

        // datatype order = LESS | EQUAL | GREATER
        reg.register_batch(
            store,
            vec![(
                Tycon::order(),
                Vec::new(),
                vec![
                    (Symbol::intern("LESS"), None),
                    (Symbol::intern("EQUAL"), None),
                    (Symbol::intern("GREATER"), None),
                ],
            )],
        );

        reg
    }

    /// Registers a (possibly mutually recursive) batch of datatypes,
    /// whose payload types are in `store`, assigning constructor
    /// representations and computing equality admission by fixpoint over
    /// the batch.
    pub fn register_batch(&mut self, store: &mut TyStore, batch: Vec<DatatypeBatchItem>) {
        let stamps: Vec<Stamp> = batch.iter().map(|(t, _, _)| t.stamp).collect();
        // Optimistically assume every member admits equality, then iterate.
        let mut admits: FxHashMap<Stamp, bool> = stamps.iter().map(|s| (*s, true)).collect();
        loop {
            let mut changed = false;
            for (tycon, _, cons) in &batch {
                if !admits[&tycon.stamp] {
                    continue;
                }
                let ok = cons
                    .iter()
                    .all(|(_, p)| p.is_none_or(|t| self.payload_admits_eq(store, t, &admits)));
                if !ok {
                    admits.insert(tycon.stamp, false);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (tycon, params, cons) in batch {
            let defs = assign_reps(store, &cons);
            let admits_eq = admits[&tycon.stamp];
            self.map.insert(
                tycon.stamp,
                DatatypeDef {
                    tycon,
                    params,
                    cons: defs,
                    admits_eq,
                },
            );
        }
    }

    /// Equality admission for a payload type, assuming generic parameters
    /// admit equality and using `pending` for members of the current batch.
    fn payload_admits_eq(
        &self,
        store: &mut TyStore,
        t: Ty,
        pending: &FxHashMap<Stamp, bool>,
    ) -> bool {
        let mut ok = true;
        store.walk(t, &mut |s, n| {
            ok &= match s.kind(n) {
                // Parameters are assumed to admit equality.
                TyKind::Var(_) | TyKind::Record(_) => true,
                TyKind::Arrow(..) => false,
                TyKind::Con(c, _) => match c.eq {
                    EqProp::Never => false,
                    // Arguments need not admit equality.
                    EqProp::Always => return false,
                    EqProp::IfArgs => {
                        c.kind != TyconKind::Data
                            || pending
                                .get(&c.stamp)
                                .copied()
                                .unwrap_or_else(|| self.datatype_admits_eq(c.stamp))
                    }
                },
            };
            ok
        });
        ok
    }

    /// Looks up a datatype by stamp.
    pub fn datatype(&self, stamp: Stamp) -> Option<&DatatypeDef> {
        self.map.get(&stamp)
    }

    /// Whether the datatype with `stamp` admits equality (false for
    /// unknown stamps, e.g. abstract tycons).
    pub fn datatype_admits_eq(&self, stamp: Stamp) -> bool {
        self.map.get(&stamp).is_some_and(|d| d.admits_eq)
    }

    /// Iterates over all registered datatypes.
    pub fn iter(&self) -> impl Iterator<Item = &DatatypeDef> {
        self.map.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builtins() -> (TyStore, TyconRegistry) {
        let mut s = TyStore::new();
        let r = TyconRegistry::with_builtins(&mut s);
        (s, r)
    }

    #[test]
    fn builtin_list_reps() {
        let (_, reg) = builtins();
        let list = reg.datatype(Tycon::list().stamp).unwrap();
        assert_eq!(list.cons[0].rep, ConRep::Constant(0), "nil");
        assert_eq!(
            list.cons[1].rep,
            ConRep::Transparent,
            "cons cell is transparent"
        );
        assert!(list.admits_eq);
    }

    #[test]
    fn builtin_bool_reps() {
        let (_, reg) = builtins();
        let b = reg.datatype(Tycon::bool().stamp).unwrap();
        assert_eq!(b.cons[0].name.as_str(), "false");
        assert_eq!(b.cons[0].rep, ConRep::Constant(0));
        assert_eq!(b.cons[1].rep, ConRep::Constant(1));
    }

    #[test]
    fn option_is_tagged() {
        // SOME's payload ('a) is not certainly boxed, so it gets a tag
        // record.
        let (_, reg) = builtins();
        let o = reg.datatype(Tycon::option().stamp).unwrap();
        assert_eq!(o.cons[1].rep, ConRep::Tagged(0));
    }

    #[test]
    fn multiple_carrying_cons_are_tagged() {
        let mut s = TyStore::new();
        let cons = vec![
            (Symbol::intern("A"), Some(s.pair(Ty::INT, Ty::INT))),
            (Symbol::intern("B"), Some(s.pair(Ty::REAL, Ty::REAL))),
            (Symbol::intern("C"), None),
        ];
        let defs = assign_reps(&s, &cons);
        assert_eq!(defs[0].rep, ConRep::Tagged(0));
        assert_eq!(defs[1].rep, ConRep::Tagged(1));
        assert_eq!(defs[2].rep, ConRep::Constant(0));
    }

    #[test]
    fn eq_admission_fixpoint() {
        // datatype t = F of int -> int   does not admit equality.
        let (mut s, mut reg) = builtins();
        let tycon = Tycon::fresh_data(Symbol::intern("t"), 0, EqProp::IfArgs);
        let f = s.arrow(Ty::INT, Ty::INT);
        reg.register_batch(
            &mut s,
            vec![(tycon, Vec::new(), vec![(Symbol::intern("F"), Some(f))])],
        );
        assert!(!reg.datatype_admits_eq(tycon.stamp));

        // Recursive datatype over ints admits equality.
        let t2 = Tycon::fresh_data(Symbol::intern("tree"), 0, EqProp::IfArgs);
        let rec_ty = s.con(t2, &[]);
        let node = s.pair(rec_ty, rec_ty);
        reg.register_batch(
            &mut s,
            vec![(
                t2,
                Vec::new(),
                vec![
                    (Symbol::intern("Leaf"), None),
                    (Symbol::intern("Node"), Some(node)),
                ],
            )],
        );
        assert!(reg.datatype_admits_eq(t2.stamp));

        // `ref` admits equality whatever it holds.
        let t3 = Tycon::fresh_data(Symbol::intern("cell"), 0, EqProp::IfArgs);
        let r = s.reference(f);
        reg.register_batch(
            &mut s,
            vec![(t3, Vec::new(), vec![(Symbol::intern("C"), Some(r))])],
        );
        assert!(reg.datatype_admits_eq(t3.stamp));
    }

    #[test]
    fn certainly_boxed_cases() {
        let mut s = TyStore::new();
        let p = s.pair(Ty::INT, Ty::INT);
        let f = s.arrow(Ty::INT, Ty::INT);
        let v = s.fresh_var(0);
        assert!(certainly_boxed(&s, p));
        assert!(certainly_boxed(&s, Ty::STRING));
        assert!(certainly_boxed(&s, Ty::REAL));
        assert!(certainly_boxed(&s, f));
        assert!(!certainly_boxed(&s, Ty::INT));
        assert!(!certainly_boxed(&s, Ty::BOOL));
        assert!(!certainly_boxed(&s, v));
    }
}
