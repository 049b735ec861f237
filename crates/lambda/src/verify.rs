//! The LEXP type checker: the one statement of the typed lambda
//! language's typing rules.
//!
//! [`verify_lexp`] re-derives the LTY of every term of a closed program
//! bottom-up against the hash-consed type table and reports the first
//! well-formedness violation as a structured [`LexpViolation`] with a
//! stable `rule` tag (schema in `docs/VERIFY_IR.md`). The unit tests
//! reach the same derivation through `lty_of`, which types an open term
//! under an environment for its free variables.
//!
//! Values flow along [`compat`]: one-word types stand in for each other,
//! but a raw `REAL` never reaches a one-word context without a `WRAP`.
//! On top of that the checker enforces **WRAP/UNWRAP pairing**: an
//! `UNWRAP` applied directly to a `WRAP` must agree on the wrapped
//! type. `UNWRAP(int, WRAP(real, e))` passes `compat` but is a
//! guaranteed miscompile (the float would be reinterpreted as a word).
//! (`SRecord` module-boundary fields are deliberately *not* forced to
//! one-word standard representation: under the unboxed-float variants,
//! flat float fields in structure records are exactly the optimization
//! being measured.)

use crate::lexp::{LVar, Lexp};
use crate::lty::{Lty, LtyInterner, LtyKind, PairWalk};
use crate::translate::Translation;
use sml_ast::FxHashMap;

/// A structured well-formedness violation found by [`verify_lexp`].
///
/// `rule` is a stable machine-readable identifier; `detail` is the
/// human-readable description (types shown via the interner).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexpViolation {
    /// Stable rule tag, e.g. `"wrap-unwrap-pair"`.
    pub rule: &'static str,
    /// What went wrong, with the offending types spelled out.
    pub detail: String,
}

impl std::fmt::Display for LexpViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Work counters reported by a successful [`verify_lexp`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LexpVerifySummary {
    /// LEXP nodes whose type was re-derived.
    pub nodes: u64,
    /// `WRAP`/`UNWRAP` coercions checked for pairing discipline.
    pub coercions: u64,
    /// Module-boundary (`SRecord`) fields re-typed.
    pub boundary_fields: u64,
}

/// Checks whether two lambda types are compatible at a value flow edge.
///
/// `BOXED` and `RBOXED` are one-word types interchangeable with any other
/// one-word type (the coercions that make this safe are explicit `WRAP`/
/// `UNWRAP` nodes). The crucial invariant is that `REAL` (an unboxed
/// float, living in float registers) never flows into a one-word context
/// without a `WRAP`.
pub fn compat(i: &mut LtyInterner, a: Lty, b: Lty) -> bool {
    if i.same(a, b) {
        return true;
    }
    if matches!(i.kind(a), LtyKind::Bottom) || matches!(i.kind(b), LtyKind::Bottom) {
        return true;
    }
    let a_word = i.is_word(a);
    let b_word = i.is_word(b);
    let a_box = matches!(i.kind(a), LtyKind::Boxed | LtyKind::RBoxed);
    let b_box = matches!(i.kind(b), LtyKind::Boxed | LtyKind::RBoxed);
    if (a_box && b_word) || (b_box && a_word) {
        return true;
    }
    // Compound pairs: the interner remembers each answer, so two types
    // that share subtrees are compared in their shared size.
    enum Next {
        Arrows([Lty; 4]),
        Fields(usize),
    }
    let next = match (i.kind(a), i.kind(b)) {
        (LtyKind::Arrow(a1, r1), LtyKind::Arrow(a2, r2)) => Next::Arrows([*a1, *a2, *r1, *r2]),
        (LtyKind::Record(x), LtyKind::Record(y)) | (LtyKind::SRecord(x), LtyKind::SRecord(y))
            if x.len() == y.len() =>
        {
            Next::Fields(x.len())
        }
        _ => return false,
    };
    i.pair_memo(PairWalk::Compat, a, b, |i| match next {
        Next::Arrows([a1, a2, r1, r2]) => compat(i, a1, a2) && compat(i, r1, r2),
        Next::Fields(n) => (0..n).all(|k| {
            let (p, q) = (i.field(a, k), i.field(b, k));
            compat(i, p, q)
        }),
    })
}

struct Check<'i> {
    i: &'i mut LtyInterner,
    sum: LexpVerifySummary,
    /// Every binder must be below this: the translation's variable
    /// count, which the back end sizes its per-variable tables by.
    n_vars: LVar,
}

fn violation(rule: &'static str, detail: String) -> LexpViolation {
    LexpViolation { rule, detail }
}

/// Verifies a translation: its program by every rule, `var-range`
/// included, against its own variable count.
///
/// Returns work counters on success and the first [`LexpViolation`]
/// otherwise. Never mutates the term; the interner is only extended
/// with derived types (hash-consing keeps that idempotent).
pub fn verify_translation(tr: &mut Translation) -> Result<LexpVerifySummary, LexpViolation> {
    check(&tr.lexp, &mut tr.interner, tr.n_vars)
}

/// Verifies a translated (and coercion-inserted) LEXP program by every
/// rule but `var-range`, which needs the translation's variable count
/// ([`verify_translation`] applies it).
///
/// Returns work counters on success and the first [`LexpViolation`]
/// otherwise. Never mutates the term; the interner is only extended
/// with derived types (hash-consing keeps that idempotent).
pub fn verify_lexp(e: &Lexp, i: &mut LtyInterner) -> Result<LexpVerifySummary, LexpViolation> {
    check(e, i, LVar::MAX)
}

/// Checks `e`, whose binders must be below `n_vars`.
fn check(e: &Lexp, i: &mut LtyInterner, n_vars: LVar) -> Result<LexpVerifySummary, LexpViolation> {
    let mut ck = Check {
        i,
        sum: LexpVerifySummary::default(),
        n_vars,
    };
    ck.infer(e, &mut FxHashMap::default())?;
    Ok(ck.sum)
}

/// Derives the type of `e` under `env`, which types its free variables,
/// by the rules [`verify_lexp`] applies to a closed program. Binders
/// inside `e` are added to `env`. The unit tests use it to assert on
/// derived types.
#[cfg(test)]
pub(crate) fn lty_of(
    e: &Lexp,
    env: &mut FxHashMap<LVar, Lty>,
    i: &mut LtyInterner,
) -> Result<Lty, LexpViolation> {
    Check {
        i,
        sum: LexpVerifySummary::default(),
        n_vars: LVar::MAX,
    }
    .infer(e, env)
}

impl Check<'_> {
    /// Brings binder `v` into scope at type `t`.
    fn bind(&self, env: &mut FxHashMap<LVar, Lty>, v: LVar, t: Lty) -> Result<(), LexpViolation> {
        if v >= self.n_vars {
            return Err(violation(
                "var-range",
                format!("binder lvar {v} is not below the {} variables", self.n_vars),
            ));
        }
        env.insert(v, t);
        Ok(())
    }

    fn infer(&mut self, e: &Lexp, env: &mut FxHashMap<LVar, Lty>) -> Result<Lty, LexpViolation> {
        self.sum.nodes += 1;
        match e {
            Lexp::Var(v) => env
                .get(v)
                .copied()
                .ok_or_else(|| violation("unbound-var", format!("unbound lvar {v}"))),
            Lexp::Int(_) => Ok(self.i.int()),
            Lexp::Real(_) => Ok(self.i.real()),
            Lexp::Str(_) => Ok(self.i.boxed()),
            Lexp::Fn(v, t, r, b) => {
                self.bind(env, *v, *t)?;
                let bt = self.infer(b, env)?;
                if !compat(self.i, bt, *r) {
                    return Err(violation(
                        "fn-result",
                        format!(
                            "fn body has {} but declares result {}",
                            self.i.show(bt),
                            self.i.show(*r)
                        ),
                    ));
                }
                Ok(self.i.arrow(*t, *r))
            }
            Lexp::App(f, a) => {
                let ft = self.infer(f, env)?;
                let at = self.infer(a, env)?;
                match *self.i.kind(ft) {
                    LtyKind::Arrow(p, r) => {
                        if !compat(self.i, at, p) {
                            return Err(violation(
                                "app-arg",
                                format!(
                                    "application argument {} does not match parameter {}",
                                    self.i.show(at),
                                    self.i.show(p)
                                ),
                            ));
                        }
                        Ok(r)
                    }
                    LtyKind::Boxed | LtyKind::RBoxed => Ok(self.i.rboxed()),
                    _ => Err(violation(
                        "app-non-function",
                        format!("applying non-function of type {}", self.i.show(ft)),
                    )),
                }
            }
            Lexp::Fix(fs, b) => {
                for (v, t, _) in fs {
                    self.bind(env, *v, *t)?;
                }
                for (v, t, body) in fs {
                    let bt = self.infer(body, env)?;
                    if !compat(self.i, bt, *t) {
                        return Err(violation(
                            "fix-binding",
                            format!(
                                "fix binding {v}: declared {} but body has {}",
                                self.i.show(*t),
                                self.i.show(bt)
                            ),
                        ));
                    }
                }
                self.infer(b, env)
            }
            Lexp::Let(v, a, b) => {
                let at = self.infer(a, env)?;
                self.bind(env, *v, at)?;
                self.infer(b, env)
            }
            Lexp::Record(es) => {
                let ts = es
                    .iter()
                    .map(|e| self.infer(e, env))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.i.record(ts))
            }
            Lexp::SRecord(es) => {
                let ts = es
                    .iter()
                    .map(|e| self.infer(e, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.sum.boundary_fields += ts.len() as u64;
                Ok(self.i.srecord(ts))
            }
            Lexp::Select(idx, e) => {
                let t = self.infer(e, env)?;
                match self.i.kind(t).clone() {
                    LtyKind::Record(fs) | LtyKind::SRecord(fs) => {
                        fs.get(*idx).copied().ok_or_else(|| {
                            violation(
                                "select-bounds",
                                format!("select {idx} out of bounds for {}", self.i.show(t)),
                            )
                        })
                    }
                    LtyKind::PRecord(fs) => fs
                        .iter()
                        .find(|(s, _)| s == idx)
                        .map(|(_, t)| *t)
                        .ok_or_else(|| {
                            violation(
                                "select-bounds",
                                format!("select {idx} not in partial record"),
                            )
                        }),
                    LtyKind::Boxed | LtyKind::RBoxed => Ok(self.i.rboxed()),
                    _ => Err(violation(
                        "select-non-record",
                        format!("select from non-record {}", self.i.show(t)),
                    )),
                }
            }
            Lexp::PrimApp(op, es) => {
                let ts = es
                    .iter()
                    .map(|e| self.infer(e, env))
                    .collect::<Result<Vec<_>, _>>()?;
                let (want, res) = op.sig(self.i);
                if want.len() != ts.len() {
                    return Err(violation(
                        "prim-arity",
                        format!(
                            "{op:?} applied to {} arguments, expects {}",
                            ts.len(),
                            want.len()
                        ),
                    ));
                }
                for (got, want) in ts.iter().zip(&want) {
                    if !compat(self.i, *got, *want) {
                        return Err(violation(
                            "prim-arg",
                            format!(
                                "{op:?} argument {} does not match {}",
                                self.i.show(*got),
                                self.i.show(*want)
                            ),
                        ));
                    }
                }
                Ok(res)
            }
            Lexp::If(c, t, f) => {
                let ct = self.infer(c, env)?;
                let int = self.i.int();
                if !compat(self.i, ct, int) {
                    return Err(violation(
                        "if-cond",
                        format!("if condition has type {}", self.i.show(ct)),
                    ));
                }
                let tt = self.infer(t, env)?;
                let ft = self.infer(f, env)?;
                if !compat(self.i, tt, ft) {
                    return Err(violation(
                        "if-branches",
                        format!(
                            "if branches disagree: {} vs {}",
                            self.i.show(tt),
                            self.i.show(ft)
                        ),
                    ));
                }
                if matches!(self.i.kind(tt), LtyKind::Bottom) {
                    Ok(ft)
                } else {
                    Ok(tt)
                }
            }
            Lexp::SwitchInt(s, arms, d) => {
                let st = self.infer(s, env)?;
                let int = self.i.int();
                if !compat(self.i, st, int) {
                    return Err(violation(
                        "switch-scrutinee",
                        format!("switch scrutinee has type {}", self.i.show(st)),
                    ));
                }
                let mut out: Option<Lty> = None;
                for (_, arm) in arms {
                    let t = self.infer(arm, env)?;
                    if out.is_none() || matches!(self.i.kind(out.unwrap()), LtyKind::Bottom) {
                        out = Some(t);
                    }
                }
                if let Some(def) = d {
                    let t = self.infer(def, env)?;
                    if out.is_none() || matches!(self.i.kind(out.unwrap()), LtyKind::Bottom) {
                        out = Some(t);
                    }
                }
                out.ok_or_else(|| violation("switch-empty", "empty switch".into()))
            }
            Lexp::Wrap(t, e) => {
                self.sum.coercions += 1;
                let et = self.infer(e, env)?;
                if !compat(self.i, et, *t) && !self.i.same(et, *t) {
                    return Err(violation(
                        "wrap-type",
                        format!("wrap of {} at type {}", self.i.show(et), self.i.show(*t)),
                    ));
                }
                Ok(self.i.boxed())
            }
            Lexp::Unwrap(t, e) => {
                self.sum.coercions += 1;
                // Pairing discipline: a directly nested WRAP must agree
                // on the coerced type, or the unwrap reads back a
                // different representation than was stored.
                if let Lexp::Wrap(wt, _) = &**e {
                    if !compat(self.i, *wt, *t) {
                        return Err(violation(
                            "wrap-unwrap-pair",
                            format!(
                                "unwrap at {} of value wrapped at {}",
                                self.i.show(*t),
                                self.i.show(*wt)
                            ),
                        ));
                    }
                }
                let et = self.infer(e, env)?;
                let boxed = self.i.boxed();
                if !compat(self.i, et, boxed) {
                    return Err(violation(
                        "unwrap-non-boxed",
                        format!("unwrap of non-boxed {}", self.i.show(et)),
                    ));
                }
                Ok(*t)
            }
            Lexp::Raise(e, t) => {
                let et = self.infer(e, env)?;
                let boxed = self.i.boxed();
                if !compat(self.i, et, boxed) {
                    return Err(violation(
                        "raise-non-exn",
                        format!("raise of non-exception {}", self.i.show(et)),
                    ));
                }
                Ok(*t)
            }
            Lexp::Handle(e, h) => {
                let et = self.infer(e, env)?;
                let ht = self.infer(h, env)?;
                match *self.i.kind(ht) {
                    LtyKind::Arrow(_, r) => {
                        if !compat(self.i, r, et) {
                            return Err(violation(
                                "handle-result",
                                format!(
                                    "handler result {} does not match body {}",
                                    self.i.show(r),
                                    self.i.show(et)
                                ),
                            ));
                        }
                        Ok(et)
                    }
                    _ => Err(violation(
                        "handle-non-fn",
                        format!("handler is not a function: {}", self.i.show(ht)),
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coerce::CoerceStats;
    use crate::lexp::Primop;
    use crate::lty::InternMode;

    fn interner() -> LtyInterner {
        LtyInterner::new(InternMode::HashCons)
    }

    /// The type the checker derives for a closed, well-typed term.
    fn closed_lty(e: &Lexp, i: &mut LtyInterner) -> Lty {
        lty_of(e, &mut FxHashMap::default(), i).expect("well-typed")
    }

    #[test]
    fn literals() {
        let mut i = interner();
        assert_eq!(closed_lty(&Lexp::Int(3), &mut i), i.int());
        assert_eq!(closed_lty(&Lexp::Real(1.5), &mut i), i.real());
        assert_eq!(closed_lty(&Lexp::Str("s".into()), &mut i), i.boxed());
    }

    #[test]
    fn fn_and_app() {
        let mut i = interner();
        let int = i.int();
        // (fn x : int => x + 1) 41
        let e = Lexp::App(
            Box::new(Lexp::Fn(
                0,
                int,
                int,
                Box::new(Lexp::PrimApp(
                    Primop::IAdd,
                    vec![Lexp::Var(0), Lexp::Int(1)],
                )),
            )),
            Box::new(Lexp::Int(41)),
        );
        assert_eq!(closed_lty(&e, &mut i), int);
    }

    #[test]
    fn real_into_word_context_rejected() {
        // A raw REAL may not be used where a word is expected without a
        // WRAP.
        let mut i = interner();
        let e = Lexp::PrimApp(Primop::PolyEq, vec![Lexp::Real(1.0), Lexp::Real(2.0)]);
        assert_eq!(verify_lexp(&e, &mut i).unwrap_err().rule, "prim-arg");
        // With wraps it is fine.
        let real = i.real();
        let e = Lexp::PrimApp(
            Primop::PolyEq,
            vec![
                Lexp::Wrap(real, Box::new(Lexp::Real(1.0))),
                Lexp::Wrap(real, Box::new(Lexp::Real(2.0))),
            ],
        );
        assert_eq!(closed_lty(&e, &mut i), i.int());
    }

    #[test]
    fn records_and_select() {
        let mut i = interner();
        let e = Lexp::Select(
            1,
            Box::new(Lexp::Record(vec![Lexp::Int(1), Lexp::Real(2.0)])),
        );
        assert_eq!(closed_lty(&e, &mut i), i.real());
        let bad = Lexp::Select(5, Box::new(Lexp::Record(vec![Lexp::Int(1)])));
        assert_eq!(verify_lexp(&bad, &mut i).unwrap_err().rule, "select-bounds");
    }

    #[test]
    fn accepts_wrap_unwrap_roundtrip() {
        let mut i = interner();
        let real = i.real();
        let e = Lexp::Unwrap(real, Box::new(Lexp::Wrap(real, Box::new(Lexp::Real(1.5)))));
        let sum = verify_lexp(&e, &mut i).expect("well-formed");
        assert_eq!(sum.coercions, 2);
        assert!(sum.nodes >= 3);
        assert_eq!(closed_lty(&e, &mut i), real);
    }

    #[test]
    fn rejects_mismatched_wrap_unwrap_pair() {
        let mut i = interner();
        let real = i.real();
        let int = i.int();
        let e = Lexp::Unwrap(real, Box::new(Lexp::Wrap(int, Box::new(Lexp::Int(7)))));
        let v = verify_lexp(&e, &mut i).unwrap_err();
        assert_eq!(v.rule, "wrap-unwrap-pair");
    }

    #[test]
    fn accepts_raw_real_in_structure_record() {
        // Unboxed-float variants put flat REAL fields in structure
        // records; the verifier must re-type them, not reject them.
        let mut i = interner();
        let e = Lexp::SRecord(vec![Lexp::Int(1), Lexp::Real(2.0)]);
        verify_lexp(&e, &mut i).expect("flat float structure field is legal");
    }

    #[test]
    fn rejects_a_binder_at_or_above_the_variable_count() {
        let mut i = interner();
        let int = i.int();
        for lexp in [
            Lexp::Let(5, Box::new(Lexp::Int(1)), Box::new(Lexp::Var(5))),
            Lexp::Fn(5, int, int, Box::new(Lexp::Var(5))),
        ] {
            let mut tr = Translation {
                lexp,
                interner: interner(),
                stats: CoerceStats::default(),
                n_vars: 5,
                warnings: Vec::new(),
            };
            assert_eq!(verify_translation(&mut tr).unwrap_err().rule, "var-range");
            tr.n_vars = 6;
            verify_translation(&mut tr).expect("binder below the count");
            verify_lexp(&tr.lexp, &mut i).expect("no bound without a translation");
        }
    }

    #[test]
    fn rejects_unbound_variable_with_rule_tag() {
        let mut i = interner();
        let e = Lexp::Var(42);
        let v = verify_lexp(&e, &mut i).unwrap_err();
        assert_eq!(v.rule, "unbound-var");
    }

    #[test]
    fn rejects_select_out_of_bounds() {
        let mut i = interner();
        let e = Lexp::Select(5, Box::new(Lexp::Record(vec![Lexp::Int(1)])));
        let v = verify_lexp(&e, &mut i).unwrap_err();
        assert_eq!(v.rule, "select-bounds");
    }
}
