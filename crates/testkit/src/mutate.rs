//! Seeded IR-corruption catalog for mutation-testing the verifiers.
//!
//! Each mutation is a deterministic, single-site corruption of one
//! intermediate representation — translated lambda ([`sml_lambda::Lexp`]),
//! CPS ([`sml_cps::CpsProgram`]), first-order CPS
//! ([`sml_cps::ClosedProgram`]), or bytecode
//! ([`sml_vm::MachineProgram`]) — chosen so the corresponding verifier
//! (`verify_translation`, `verify_cps`, `verify_closed_program`,
//! `verify_bytecode`) must reject the mutant. The harness in
//! `crates/core/tests/verify_ir.rs` applies every mutation to real
//! compiler output and asserts rejection at the introducing stage.
//!
//! `apply` returns `false` when the given IR has no applicable site
//! (e.g. no `Wrap` node to corrupt); the harness then tries the next
//! fixture program. When `expect_rule` is `Some`, the corruption
//! determines the violated rule exactly and the harness asserts the
//! reported rule tag too; `None` means the mutant trips one of several
//! rules depending on surrounding context, and only rejection itself is
//! asserted.

use sml_cps::{Bind, CVar, Cexp, ClosedProgram, CpsProgram, Cty, Exit, Value};
use sml_lambda::{Lexp, Lty, LtyInterner};
use sml_vm::isa::AllocKind;
use sml_vm::{Instr, MachineProgram};

/// A variable id far above anything a real translation allocates, used
/// to manufacture unbound references.
const FAR: u32 = 1_000_000;

// ---------------------------------------------------------------------
// Lambda (LEXP) mutations
// ---------------------------------------------------------------------

/// One seeded corruption of a translated lambda program.
pub struct LexpMutation {
    /// Stable mutation name (reported by the harness).
    pub name: &'static str,
    /// The exact rule tag the verifier must report, when determined.
    pub expect_rule: Option<&'static str>,
    /// Applies the corruption in place; `false` = no applicable site.
    pub apply: fn(&mut Lexp, &mut LtyInterner) -> bool,
}

/// Pre-order walk; stops at the first subexpression `f` rewrites.
fn walk_lexp(e: &mut Lexp, f: &mut dyn FnMut(&mut Lexp) -> bool) -> bool {
    f(e) || e.children_mut().any(|c| walk_lexp(c, f))
}

/// The word type least compatible with `t`: `REAL` unless `t` is
/// already `REAL`, in which case `INT` (`compat` never relates the two).
fn flip_lty(i: &mut LtyInterner, t: Lty) -> Lty {
    if i.same(t, i.real()) {
        i.int()
    } else {
        i.real()
    }
}

/// The full LEXP corruption catalog (12 mutations).
pub fn lexp_mutations() -> Vec<LexpMutation> {
    vec![
        LexpMutation {
            name: "lexp-unbound-var",
            expect_rule: Some("unbound-var"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Var(v) = x {
                        *v += FAR;
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-var-range",
            expect_rule: Some("var-range"),
            apply: |e, _| {
                // The first binder in pre-order moves past every
                // variable the translation allocated; the checker meets
                // it before any use of the old or the new number.
                walk_lexp(e, &mut |x| match x {
                    Lexp::Fn(v, ..) | Lexp::Let(v, ..) => {
                        *v += FAR;
                        true
                    }
                    _ => false,
                })
            },
        },
        LexpMutation {
            name: "lexp-wrap-unwrap-mismatch",
            expect_rule: Some("wrap-unwrap-pair"),
            apply: |e, i| {
                let mut flipped = None;
                let applied = walk_lexp(e, &mut |x| {
                    if let Lexp::Wrap(t, _) = x {
                        flipped = Some(*t);
                        return true;
                    }
                    false
                });
                if !applied {
                    return false;
                }
                // Rewrap the found node: WRAP(t, e) becomes
                // UNWRAP(t', WRAP(t, e)) with an incompatible t'.
                let t = flipped.unwrap();
                let bad = flip_lty(i, t);
                walk_lexp(e, &mut |x| {
                    if matches!(x, Lexp::Wrap(wt, _) if *wt == t) {
                        let inner = std::mem::replace(x, Lexp::Int(0));
                        *x = Lexp::Unwrap(bad, Box::new(inner));
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-if-cond-real",
            expect_rule: Some("if-cond"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::If(c, _, _) = x {
                        **c = Lexp::Real(0.5);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-prim-extra-arg",
            expect_rule: Some("prim-arity"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::PrimApp(_, args) = x {
                        args.push(Lexp::Int(0));
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-raise-real",
            expect_rule: Some("raise-non-exn"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Raise(p, _) = x {
                        **p = Lexp::Real(2.5);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-unwrap-real",
            expect_rule: Some("unwrap-non-boxed"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Unwrap(_, p) = x {
                        **p = Lexp::Real(3.5);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-switch-real",
            expect_rule: Some("switch-scrutinee"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::SwitchInt(s, _, _) = x {
                        **s = Lexp::Real(1.5);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            name: "lexp-app-non-function",
            expect_rule: Some("app-non-function"),
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::App(f, _) = x {
                        **f = Lexp::Int(7);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            // Depending on the record's width the select either runs
            // off the end (select-bounds) or the operand check fires.
            name: "lexp-select-oob",
            expect_rule: None,
            apply: |e, _| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Select(idx, _) = x {
                        *idx += 100;
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            // Flips a function's declared result type; trips fn-result
            // directly, or fix-binding when the Fn is a fix binding.
            name: "lexp-fn-result-flip",
            expect_rule: None,
            apply: |e, i| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Fn(_, _, rt, _) = x {
                        *rt = flip_lty(i, *rt);
                        return true;
                    }
                    false
                })
            },
        },
        LexpMutation {
            // Declares a fix binding at REAL; the binding check or any
            // recursive call through the binding rejects it.
            name: "lexp-fix-type-real",
            expect_rule: None,
            apply: |e, i| {
                walk_lexp(e, &mut |x| {
                    if let Lexp::Fix(binds, _) = x {
                        if binds.is_empty() {
                            return false;
                        }
                        binds[0].1 = i.real();
                        return true;
                    }
                    false
                })
            },
        },
    ]
}

// ---------------------------------------------------------------------
// CPS mutations
// ---------------------------------------------------------------------

/// One seeded corruption of a (pre-closure) CPS program.
pub struct CpsMutation {
    /// Stable mutation name.
    pub name: &'static str,
    /// The exact rule tag the verifier must report, when determined.
    pub expect_rule: Option<&'static str>,
    /// Applies the corruption in place; `false` = no applicable site.
    pub apply: fn(&mut CpsProgram) -> bool,
}

/// One CPS operator: a binding of a run, or the exit that ends it.
enum Node<'a> {
    Bind(&'a mut Bind),
    Exit(&'a mut Exit),
}

/// Pre-order walk over CPS operators (each binding, then the bodies of
/// a `Fix`; each exit, then its arms); stops at the first operator `f`
/// rewrites.
fn walk_cexp(e: &mut Cexp, f: &mut dyn FnMut(Node<'_>) -> bool) -> bool {
    for b in e.binds.iter_mut() {
        if f(Node::Bind(b)) {
            return true;
        }
        if let Bind::Fix { funs } = b {
            if funs.iter_mut().any(|fun| walk_cexp(&mut fun.body, f)) {
                return true;
            }
        }
    }
    f(Node::Exit(&mut e.exit)) || e.exit.arms_mut().any(|a| walk_cexp(a, f))
}

/// Pre-order walk over every [`Value`] position; stops at the first
/// value `f` rewrites.
fn walk_values(e: &mut Cexp, f: &mut dyn FnMut(&mut Value) -> bool) -> bool {
    walk_cexp(e, &mut |x| match x {
        Node::Bind(b) => b.operands_mut().any(&mut *f),
        Node::Exit(x) => x.operands_mut().any(&mut *f),
    })
}

/// Pre-order walk over every binding; stops at the first one `f`
/// rewrites.
fn walk_binds(e: &mut Cexp, f: &mut dyn FnMut(&mut Bind) -> bool) -> bool {
    walk_cexp(e, &mut |x| match x {
        Node::Bind(b) => f(b),
        Node::Exit(_) => false,
    })
}

/// Pre-order walk over every exit; stops at the first one `f` rewrites.
fn walk_exits(e: &mut Cexp, f: &mut dyn FnMut(&mut Exit) -> bool) -> bool {
    walk_cexp(e, &mut |x| match x {
        Node::Exit(x) => f(x),
        Node::Bind(_) => false,
    })
}

/// The full CPS corruption catalog (8 mutations).
pub fn cps_mutations() -> Vec<CpsMutation> {
    vec![
        CpsMutation {
            name: "cps-unbound-var",
            expect_rule: Some("unbound-var"),
            apply: |p| {
                walk_values(&mut p.body, &mut |v| {
                    if let Value::Var(x) = v {
                        *x += FAR;
                        return true;
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-var-range",
            expect_rule: Some("var-range"),
            apply: |p| {
                let limit = p.next_var;
                walk_binds(&mut p.body, &mut |b| {
                    if let Some(dst) = b.binder_mut() {
                        *dst = limit + 7;
                        return true;
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-rebinding",
            expect_rule: Some("rebinding"),
            apply: |p| {
                // Make the second binder in pre-order shadow the first;
                // pre-order guarantees it sits inside the first's scope.
                let mut first: Option<CVar> = None;
                walk_binds(&mut p.body, &mut |b| {
                    if let Some(dst) = b.binder_mut() {
                        match first {
                            None => {
                                first = Some(*dst);
                                false
                            }
                            Some(a) => {
                                *dst = a;
                                true
                            }
                        }
                    } else {
                        false
                    }
                })
            },
        },
        CpsMutation {
            name: "cps-prim-extra-arg",
            expect_rule: Some("prim-arity"),
            apply: |p| {
                walk_binds(&mut p.body, &mut |b| {
                    if let Bind::Pure { args, .. } = b {
                        args.push(Value::Int(0));
                        return true;
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-pure-cty-flip",
            expect_rule: Some("pure-cty"),
            apply: |p| {
                walk_binds(&mut p.body, &mut |b| {
                    if let Bind::Pure { cty, .. } = b {
                        *cty = if cty.is_word() { Cty::Flt } else { Cty::Int };
                        return true;
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-param-dup",
            expect_rule: Some("param-dup"),
            apply: |p| {
                walk_binds(&mut p.body, &mut |b| {
                    if let Bind::Fix { funs } = b {
                        for fun in funs.iter_mut() {
                            if fun.params.len() >= 2 {
                                fun.params[1].0 = fun.params[0].0;
                                return true;
                            }
                        }
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-label-early",
            expect_rule: Some("label-before-closure"),
            apply: |p| {
                walk_exits(&mut p.body, &mut |x| {
                    if let Exit::Halt { v } = x {
                        *v = Value::Label(0);
                        return true;
                    }
                    false
                })
            },
        },
        CpsMutation {
            name: "cps-app-extra-arg",
            expect_rule: Some("app-arity"),
            apply: |p| {
                // Find a fix-bound function and a direct call to it,
                // then grow the call by one argument.
                let mut names: Vec<CVar> = Vec::new();
                walk_binds(&mut p.body, &mut |b| {
                    if let Bind::Fix { funs } = b {
                        names.extend(funs.iter().map(|fun| fun.name));
                    }
                    false
                });
                walk_exits(&mut p.body, &mut |x| {
                    if let Exit::App {
                        f: Value::Var(v),
                        args,
                    } = x
                    {
                        if names.contains(v) {
                            args.push(Value::Int(0));
                            return true;
                        }
                    }
                    false
                })
            },
        },
    ]
}

// ---------------------------------------------------------------------
// Closed (first-order) CPS mutations
// ---------------------------------------------------------------------

/// One seeded corruption of a closure-converted program.
pub struct ClosedMutation {
    /// Stable mutation name.
    pub name: &'static str,
    /// The exact rule tag the verifier must report, when determined.
    pub expect_rule: Option<&'static str>,
    /// Applies the corruption in place; `false` = no applicable site.
    pub apply: fn(&mut ClosedProgram) -> bool,
}

/// Walks entry then every function body.
fn walk_closed_values(p: &mut ClosedProgram, f: &mut dyn FnMut(&mut Value) -> bool) -> bool {
    if walk_values(&mut p.entry, f) {
        return true;
    }
    for fun in p.funs.iter_mut() {
        if walk_values(&mut fun.body, f) {
            return true;
        }
    }
    false
}

/// The full closed-program corruption catalog (5 mutations).
pub fn closed_mutations() -> Vec<ClosedMutation> {
    vec![
        ClosedMutation {
            name: "closed-fix-dup",
            expect_rule: Some("fix-dup"),
            apply: |p| {
                if p.funs.len() < 2 {
                    return false;
                }
                p.funs[1].name = p.funs[0].name;
                true
            },
        },
        ClosedMutation {
            name: "closed-entry-unbound",
            expect_rule: Some("unbound-var"),
            apply: |p| {
                p.entry = Exit::Halt {
                    v: Value::Var(p.next_var.saturating_sub(1)),
                }
                .into();
                true
            },
        },
        ClosedMutation {
            name: "closed-nested-fix",
            expect_rule: Some("nested-fix"),
            apply: |p| {
                let Some(fun) = p.funs.first_mut() else {
                    return false;
                };
                let fix = Bind::Fix { funs: Vec::new() };
                fun.body.binds.push_front(fix);
                true
            },
        },
        ClosedMutation {
            name: "closed-unknown-label",
            expect_rule: Some("unknown-label"),
            apply: |p| {
                let bad = p.funs.iter().map(|f| f.name).max().unwrap_or(0) + FAR;
                walk_closed_values(p, &mut |v| {
                    if let Value::Label(l) = v {
                        *l = bad;
                        return true;
                    }
                    false
                })
            },
        },
        ClosedMutation {
            name: "closed-label-extra-arg",
            expect_rule: Some("app-arity"),
            apply: |p| {
                let grow = |e: &mut Cexp| {
                    walk_exits(e, &mut |x| {
                        if let Exit::App {
                            f: Value::Label(_),
                            args,
                        } = x
                        {
                            args.push(Value::Int(0));
                            return true;
                        }
                        false
                    })
                };
                if grow(&mut p.entry) {
                    return true;
                }
                for fun in p.funs.iter_mut() {
                    if grow(&mut fun.body) {
                        return true;
                    }
                }
                false
            },
        },
    ]
}

// ---------------------------------------------------------------------
// Bytecode mutations
// ---------------------------------------------------------------------

/// One seeded corruption of a machine program.
pub struct BytecodeMutation {
    /// Stable mutation name.
    pub name: &'static str,
    /// The exact rule tag the verifier must report, when determined.
    pub expect_rule: Option<&'static str>,
    /// Applies the corruption in place; `false` = no applicable site.
    pub apply: fn(&mut MachineProgram) -> bool,
}

/// First instruction (in block order) matched by `f`.
fn walk_instrs(p: &mut MachineProgram, f: &mut dyn FnMut(&mut Instr) -> bool) -> bool {
    for b in p.blocks.iter_mut() {
        for i in b.instrs.iter_mut() {
            if f(i) {
                return true;
            }
        }
    }
    false
}

/// The full bytecode corruption catalog (9 mutations).
pub fn bytecode_mutations() -> Vec<BytecodeMutation> {
    vec![
        BytecodeMutation {
            name: "bc-entry-range",
            expect_rule: Some("entry-range"),
            apply: |p| {
                p.entry = p.blocks.len() as u32;
                true
            },
        },
        BytecodeMutation {
            name: "bc-missing-terminator",
            expect_rule: Some("block-terminator"),
            apply: |p| {
                let Some(b) = p.blocks.first_mut() else {
                    return false;
                };
                b.instrs.push(Instr::Move { d: 0, s: 0 });
                true
            },
        },
        BytecodeMutation {
            name: "bc-reg-range",
            expect_rule: Some("reg-range"),
            apply: |p| {
                walk_instrs(p, &mut |i| {
                    if let Instr::Move { d, .. } | Instr::LoadI { d, .. } = i {
                        *d = 200;
                        return true;
                    }
                    false
                })
            },
        },
        BytecodeMutation {
            name: "bc-branch-target",
            expect_rule: Some("branch-target"),
            apply: |p| {
                for b in p.blocks.iter_mut() {
                    let len = b.instrs.len() as u32;
                    for i in b.instrs.iter_mut() {
                        match i {
                            Instr::Branch { target, .. }
                            | Instr::FBranch { target, .. }
                            | Instr::SBranch { target, .. }
                            | Instr::PolyEqBranch { target, .. } => {
                                *target = len + 7;
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
                false
            },
        },
        BytecodeMutation {
            name: "bc-jump-range",
            expect_rule: Some("jump-range"),
            apply: |p| {
                let n = p.blocks.len() as u32;
                walk_instrs(p, &mut |i| {
                    if let Instr::Jump { label } = i {
                        *label = n + 3;
                        return true;
                    }
                    false
                })
            },
        },
        BytecodeMutation {
            name: "bc-pool-range",
            expect_rule: Some("pool-range"),
            apply: |p| {
                let n = p.pool.len() as u32;
                walk_instrs(p, &mut |i| {
                    if let Instr::LoadStr { pool, .. } = i {
                        *pool = n + 2;
                        return true;
                    }
                    false
                })
            },
        },
        BytecodeMutation {
            name: "bc-ref-shape",
            expect_rule: Some("ref-shape"),
            apply: |p| {
                walk_instrs(p, &mut |i| {
                    if let Instr::Alloc {
                        kind, words, flts, ..
                    } = i
                    {
                        if words.len() != 1 || !flts.is_empty() {
                            *kind = AllocKind::Ref;
                            return true;
                        }
                    }
                    false
                })
            },
        },
        BytecodeMutation {
            name: "bc-pool-string-size",
            expect_rule: Some("pool-string-size"),
            apply: |p| {
                let Some(s) = p.pool.first_mut() else {
                    return false;
                };
                *s = "x".repeat(40_000);
                true
            },
        },
        BytecodeMutation {
            name: "bc-alloc-descriptor",
            expect_rule: Some("alloc-descriptor"),
            apply: |p| {
                walk_instrs(p, &mut |i| {
                    if let Instr::Alloc { words, .. } = i {
                        // 40_000 scanned fields overflow the 15-bit
                        // descriptor length field.
                        *words = vec![0; 40_000];
                        return true;
                    }
                    false
                })
            },
        },
    ]
}
