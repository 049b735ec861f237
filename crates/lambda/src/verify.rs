//! Post-translation LEXP verifier.
//!
//! Re-derives the LTY of every LEXP term bottom-up against the
//! hash-consed type table and reports the first well-formedness
//! violation as a structured [`LexpViolation`] with a stable `rule`
//! tag (schema in `docs/VERIFY_IR.md`). This is deliberately an
//! independent re-implementation of the derivation rather than a
//! wrapper over [`crate::lexp::type_of`]: a checker that shares code
//! with the phase it audits inherits that phase's bugs.
//!
//! On top of the plain type reconstruction the verifier enforces one
//! rule the legacy checker does not: **WRAP/UNWRAP pairing** — an
//! `UNWRAP` applied directly to a `WRAP` must agree on the wrapped
//! type; `UNWRAP(int, WRAP(real, e))` type-checks under the lenient
//! box/word compatibility relation but is a guaranteed miscompile (the
//! float would be reinterpreted as a word). (`SRecord` module-boundary
//! fields are deliberately *not* forced to one-word standard
//! representation: under the unboxed-float variants, flat float fields
//! in structure records are exactly the optimization being measured.)

use crate::lexp::{compat, LVar, Lexp};
use crate::lty::{Lty, LtyInterner, LtyKind};
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

struct Check<'i> {
    i: &'i mut LtyInterner,
    sum: LexpVerifySummary,
}

fn violation(rule: &'static str, detail: String) -> LexpViolation {
    LexpViolation { rule, detail }
}

/// Verifies a translated (and coercion-inserted) LEXP program.
///
/// Returns work counters on success and the first [`LexpViolation`]
/// otherwise. Never mutates the term; the interner is only extended
/// with derived types (hash-consing keeps that idempotent).
pub fn verify_lexp(e: &Lexp, i: &mut LtyInterner) -> Result<LexpVerifySummary, LexpViolation> {
    let mut ck = Check {
        i,
        sum: LexpVerifySummary::default(),
    };
    ck.infer(e, &mut FxHashMap::default())?;
    Ok(ck.sum)
}

impl Check<'_> {
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
                env.insert(*v, *t);
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
                    env.insert(*v, *t);
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
                env.insert(*v, at);
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
    use crate::lty::InternMode;

    fn interner() -> LtyInterner {
        LtyInterner::new(InternMode::HashCons)
    }

    #[test]
    fn accepts_wrap_unwrap_roundtrip() {
        let mut i = interner();
        let real = i.real();
        let e = Lexp::Unwrap(real, Box::new(Lexp::Wrap(real, Box::new(Lexp::Real(1.5)))));
        let sum = verify_lexp(&e, &mut i).expect("well-formed");
        assert_eq!(sum.coercions, 2);
        assert!(sum.nodes >= 3);
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
