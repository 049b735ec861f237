//! Compilation of pattern matches into tests on the lambda language
//! (part of the paper's Lambda Translator box, Figure 3).
//!
//! Rules are compiled in order with shared failure join points (one
//! `Fix`-bound continuation per remaining rule), so generated code is
//! linear in the pattern size. Constructor tests follow the runtime
//! representations assigned by the registry: constants are word
//! comparisons, tagged constructors test boxity and then the tag field,
//! transparent constructors test boxity only, and exception constructors
//! compare runtime tag pointers.

use crate::exhaustive::{check_rules, irrefutable};
use crate::lexp::{LVar, Lexp, Primop};
use crate::lty::{Lty, LtyKind};
use crate::translate::Translator;
use sml_elab::{ConInfo, TExp, TPat, TPatKind, TRule};
use sml_types::{ConRep, Ty};

impl<'tr> Translator<'tr> {
    /// Compiles a full match over `scrut` (already bound, with type
    /// `scrut_lty`); on no match, raises the exception `fail_tag`.
    pub(crate) fn compile_match(
        &mut self,
        scrut: LVar,
        scrut_lty: Lty,
        rules: &[TRule],
        fail_tag: Lexp,
        res_lty: Lty,
    ) -> Lexp {
        let (exhaustive, redundant) = check_rules(rules);
        if !exhaustive {
            self.warnings
                .push("warning: match nonexhaustive".to_owned());
        }
        for i in redundant {
            self.warnings
                .push(format!("warning: match rule {} is redundant", i + 1));
        }
        let bot = self.interner.bottom();
        let fail = Lexp::Raise(Box::new(fail_tag), bot);
        self.compile_rules(scrut, scrut_lty, rules, fail, res_lty)
    }

    /// Compiles an exception handler body over the packet variable `x`;
    /// unmatched packets are re-raised.
    pub(crate) fn compile_handler(&mut self, x: LVar, rules: &[TRule], res_lty: Lty) -> Lexp {
        let bot = self.interner.bottom();
        let fail = Lexp::Raise(Box::new(Lexp::Var(x)), bot);
        let boxed = self.interner.boxed();
        self.compile_rules(x, boxed, rules, fail, res_lty)
    }

    /// Compiles a `val pat = e` binding: on match, continue with `k`; on
    /// mismatch raise `Bind`.
    pub(crate) fn compile_bind(
        &mut self,
        scrut: LVar,
        scrut_lty: Lty,
        pat: &TPat,
        fail_tag: Lexp,
        k: &mut dyn FnMut(&mut Translator<'tr>) -> Lexp,
    ) -> Lexp {
        if !irrefutable(pat) {
            self.warnings
                .push("warning: binding nonexhaustive".to_owned());
        }
        let bot = self.interner.bottom();
        let fail = Lexp::Raise(Box::new(fail_tag), bot);
        self.match_tests(vec![(scrut, scrut_lty, pat)], &mut Rhs::Cont(k), &fail)
    }

    fn compile_rules(
        &mut self,
        scrut: LVar,
        scrut_lty: Lty,
        rules: &[TRule],
        final_fail: Lexp,
        res_lty: Lty,
    ) -> Lexp {
        if rules.is_empty() {
            return final_fail;
        }
        if let Some(e) = self.try_switch(scrut, rules, &final_fail) {
            return e;
        }
        if rules.len() == 1 {
            return self.match_tests(
                vec![(scrut, scrut_lty, &rules[0].pat)],
                &mut Rhs::Exp(&rules[0].exp),
                &final_fail,
            );
        }
        // Failure join points: f_i tries rule i.
        let joins: Vec<LVar> = (1..rules.len()).map(|_| self.vg.fresh()).collect();
        let int = self.interner.int();
        let join_ty = self.interner.arrow(int, res_lty);
        let mut bindings = Vec::new();
        for (i, rule) in rules.iter().enumerate().skip(1) {
            let fail = if i + 1 < rules.len() {
                Lexp::App(Box::new(Lexp::Var(joins[i])), Box::new(Lexp::Int(0)))
            } else {
                final_fail.clone()
            };
            let code = self.match_tests(
                vec![(scrut, scrut_lty, &rule.pat)],
                &mut Rhs::Exp(&rule.exp),
                &fail,
            );
            let dummy = self.vg.fresh();
            bindings.push((
                joins[i - 1],
                join_ty,
                Lexp::Fn(dummy, int, res_lty, Box::new(code)),
            ));
        }
        let first_fail = Lexp::App(Box::new(Lexp::Var(joins[0])), Box::new(Lexp::Int(0)));
        let first = self.match_tests(
            vec![(scrut, scrut_lty, &rules[0].pat)],
            &mut Rhs::Exp(&rules[0].exp),
            &first_fail,
        );
        Lexp::Fix(bindings, Box::new(first))
    }

    /// Integer switch compilation (paper §5.2: "pattern matches are
    /// compiled into switch statements"): when every rule tests an
    /// integer, character, or constant-constructor value — with at most a
    /// trailing irrefutable default — emit a dense `SwitchInt` instead of
    /// a comparison chain.
    fn try_switch(&mut self, scrut: LVar, rules: &[TRule], final_fail: &Lexp) -> Option<Lexp> {
        if rules.len() < 3 {
            return None;
        }
        let mut arms: Vec<(i64, &TExp)> = Vec::new();
        let mut default: Option<&TExp> = None;
        for (i, r) in rules.iter().enumerate() {
            match &r.pat.kind {
                TPatKind::Int(n) => arms.push((*n, &r.exp)),
                TPatKind::Char(c) => arms.push((*c as i64, &r.exp)),
                TPatKind::Con { con, arg: None, .. } => match con.rep {
                    ConRep::Constant(k) => arms.push((k as i64, &r.exp)),
                    _ => return None,
                },
                TPatKind::Wild if i + 1 == rules.len() => {
                    default = Some(&r.exp);
                }
                TPatKind::Var(v) if i + 1 == rules.len() => {
                    self.map_var(*v, scrut);
                    default = Some(&r.exp);
                }
                _ => return None,
            }
        }
        if arms.len() < 3 {
            return None;
        }
        // Distinct, reasonably dense values only (a sparse table would
        // waste space; the chain is fine there).
        let mut seen = std::collections::HashSet::new();
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (n, _) in &arms {
            if !seen.insert(*n) {
                return None; // redundant match arm; let the chain handle it
            }
            lo = lo.min(*n);
            hi = hi.max(*n);
        }
        if hi - lo >= 2 * arms.len() as i64 + 8 {
            return None;
        }
        let compiled: Vec<(i64, Lexp)> = arms.iter().map(|(n, e)| (*n, self.tr_exp(e))).collect();
        let def = match default {
            Some(e) => self.tr_exp(e),
            None => final_fail.clone(),
        };
        Some(Lexp::SwitchInt(
            Box::new(Lexp::Var(scrut)),
            compiled,
            Some(Box::new(def)),
        ))
    }

    /// Compiles a conjunction of pattern obligations; `rhs` is emitted
    /// when all succeed, `fail` (a small expression, cloned per test) when
    /// any fails.
    fn match_tests(
        &mut self,
        mut work: Vec<(LVar, Lty, &TPat)>,
        rhs: &mut Rhs<'_, '_, 'tr>,
        fail: &Lexp,
    ) -> Lexp {
        let Some((occ, occ_lty, pat)) = work.pop() else {
            return match rhs {
                Rhs::Exp(e) => self.tr_exp(e),
                Rhs::Cont(k) => k(self),
            };
        };
        match &pat.kind {
            TPatKind::Wild => self.match_tests(work, rhs, fail),
            TPatKind::Var(v) => {
                self.map_var(*v, occ);
                self.match_tests(work, rhs, fail)
            }
            TPatKind::As(v, inner) => {
                self.map_var(*v, occ);
                work.push((occ, occ_lty, inner));
                self.match_tests(work, rhs, fail)
            }
            TPatKind::Int(n) => {
                let rest = self.match_tests(work, rhs, fail);
                Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::IEq,
                        vec![Lexp::Var(occ), Lexp::Int(*n)],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            TPatKind::Char(c) => {
                let rest = self.match_tests(work, rhs, fail);
                Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::IEq,
                        vec![Lexp::Var(occ), Lexp::Int(*c as i64)],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            TPatKind::Str(s) => {
                let rest = self.match_tests(work, rhs, fail);
                Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::StrEq,
                        vec![Lexp::Var(occ), Lexp::Str(s.clone())],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            TPatKind::Record { fields, .. } => {
                // Bind each listed field, then continue.
                let Ty::Record(all) = pat.ty.zonk() else {
                    panic!("record pattern at non-record type {}", pat.ty.zonk())
                };
                let mut lets: Vec<(LVar, Lexp)> = Vec::new();
                for (lab, sub) in fields {
                    let idx = all
                        .iter()
                        .position(|(l, _)| l == lab)
                        .expect("field resolved by elaboration");
                    let field_lty = match self.interner.kind(occ_lty).clone() {
                        LtyKind::Record(fl) => fl[idx],
                        _ => self.interner.rboxed(),
                    };
                    let want = self.ltc(&sub.ty);
                    let sel = Lexp::Select(idx, Box::new(Lexp::Var(occ)));
                    let sel = self.coerce(sel, field_lty, want);
                    let v = self.vg.fresh();
                    lets.push((v, sel));
                    work.push((v, want, sub));
                }
                let mut body = self.match_tests(work, rhs, fail);
                for (v, e) in lets.into_iter().rev() {
                    body = Lexp::Let(v, Box::new(e), Box::new(body));
                }
                body
            }
            TPatKind::Con { con, arg, .. } => {
                self.con_test(occ, occ_lty, con, arg.as_deref(), work, rhs, fail)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn con_test(
        &mut self,
        occ: LVar,
        _occ_lty: Lty,
        con: &ConInfo,
        arg: Option<&TPat>,
        work: Vec<(LVar, Lty, &TPat)>,
        rhs: &mut Rhs<'_, '_, 'tr>,
        fail: &Lexp,
    ) -> Lexp {
        // Build the payload binding (if any) and the remaining tests.
        let inner = |me: &mut Self,
                     work: Vec<(LVar, Lty, &TPat)>,
                     rhs: &mut Rhs<'_, '_, 'tr>,
                     fail: &Lexp,
                     payload: Option<(Lexp, Lty)>|
         -> Lexp {
            match (payload, arg) {
                (Some((raw, raw_lty)), Some(sub)) => {
                    let want = me.ltc(&sub.ty);
                    let coerced = me.coerce(raw, raw_lty, want);
                    let v = me.vg.fresh();
                    let mut w = work;
                    w.push((v, want, sub));
                    let body = me.match_tests(w, rhs, fail);
                    Lexp::Let(v, Box::new(coerced), Box::new(body))
                }
                (None, None) => me.match_tests(work, rhs, fail),
                _ => panic!("constructor arity mismatch in pattern"),
            }
        };

        match con.rep {
            ConRep::Constant(k) => {
                debug_assert!(arg.is_none());
                let rest = inner(self, work, rhs, fail, None);
                if con.span == 1 {
                    return rest;
                }
                Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::IEq,
                        vec![Lexp::Var(occ), Lexp::Int(k as i64)],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            ConRep::Transparent => {
                // Cast to the precise payload representation so the
                // back end lays out selections correctly (flat float
                // records have raw fields).
                let rep = self.payload_rep(con);
                let raw = Lexp::Unwrap(rep, Box::new(Lexp::Var(occ)));
                let rest = inner(self, work, rhs, fail, Some((raw, rep)));
                if con.span == 1 {
                    return rest;
                }
                Lexp::If(
                    Box::new(Lexp::PrimApp(Primop::IsBoxed, vec![Lexp::Var(occ)])),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            ConRep::Tagged(tag) => {
                // The value is a `[tag, payload]` record; cast to its
                // precise shape so a raw-float payload is loaded from the
                // right offset.
                let rep = self.payload_rep(con);
                let int = self.interner.int();
                let rec_lty = self.interner.record(vec![int, rep]);
                let cv = self.vg.fresh();
                let raw = Lexp::Select(1, Box::new(Lexp::Var(cv)));
                let rest = inner(self, work, rhs, fail, Some((raw, rep)));
                let rest = Lexp::Let(
                    cv,
                    Box::new(Lexp::Unwrap(rec_lty, Box::new(Lexp::Var(occ)))),
                    Box::new(rest),
                );
                if con.span == 1 {
                    return rest;
                }
                let tag_test = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::IEq,
                        vec![
                            Lexp::Select(0, Box::new(Lexp::Var(occ))),
                            Lexp::Int(tag as i64),
                        ],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                );
                Lexp::If(
                    Box::new(Lexp::PrimApp(Primop::IsBoxed, vec![Lexp::Var(occ)])),
                    Box::new(tag_test),
                    Box::new(fail.clone()),
                )
            }
            ConRep::ExnConst => {
                let taga = con.tag.clone().expect("exception tag");
                let tag = self.tr_access(&taga);
                let rest = inner(self, work, rhs, fail, None);
                Lexp::If(
                    Box::new(Lexp::PrimApp(Primop::PtrEq, vec![Lexp::Var(occ), tag])),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
            ConRep::Exn => {
                let taga = con.tag.clone().expect("exception tag");
                let tag = self.tr_access(&taga);
                let rb = self.interner.rboxed();
                let raw = Lexp::Select(1, Box::new(Lexp::Var(occ)));
                let rest = inner(self, work, rhs, fail, Some((raw, rb)));
                // A carrying exception packet is [tag, value]; compare the
                // inner tag pointer. Constant exception values are tag
                // records themselves, whose field 0 is a string — never
                // pointer-equal to a tag.
                Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::PtrEq,
                        vec![Lexp::Select(0, Box::new(Lexp::Var(occ))), tag],
                    )),
                    Box::new(rest),
                    Box::new(fail.clone()),
                )
            }
        }
    }
}

/// The right-hand side of a match: either a typed expression or a
/// continuation producing the rest of a declaration sequence.
enum Rhs<'e, 'k, 'tr> {
    Exp(&'e TExp),
    Cont(&'k mut dyn FnMut(&mut Translator<'tr>) -> Lexp),
}
