//! CPS invariant checker.
//!
//! Validates the structural invariants the back end relies on, at three
//! points in the pipeline: right after CPS conversion, after each
//! optimizer pass, and (in first-order form) after closure conversion.
//! Violations carry a stable `rule` tag (schema in `docs/VERIFY_IR.md`).
//!
//! Checked invariants:
//!
//! * **Lexical scoping** — every `Var` occurrence is bound (by a `dst`,
//!   a parameter, or an enclosing `Fix`); no variable is rebound along
//!   a single control path; every bound id is below the program's
//!   `next_var` watermark (the optimizer's fresh-variable supply).
//! * **Application arity** — a call to a `Fix`-bound function (or, after
//!   closure conversion, to a label) passes exactly as many arguments as
//!   the callee declares; codegen's calling convention maps arguments to
//!   registers positionally, so an arity mismatch is a guaranteed
//!   miscompile.
//! * **Operator arity** — `Pure`/`Alloc`/`Look`/`Set`/`Branch` nodes
//!   carry exactly the operand count their operator consumes, and a
//!   `Pure` destination's CTY agrees with the operator's result on the
//!   word/float split (the register-file assignment).
//! * **Well-founded `Fix`** — distinct function names per `Fix`,
//!   distinct parameters per function; after closure conversion no
//!   `Fix` survives at all, every function is closed (free variables
//!   are gone), and `Label`s resolve to lifted functions. Before
//!   closure conversion no `Label` may exist yet.

use crate::closure::ClosedProgram;
use crate::convert::CpsProgram;
use crate::cps::*;
use sml_ast::{FxHashMap, FxHashSet};

/// A structured invariant violation found by [`verify_cps`] or
/// [`verify_closed_program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpsViolation {
    /// Stable rule tag, e.g. `"app-arity"`.
    pub rule: &'static str,
    /// What went wrong, naming the offending variable/operator.
    pub detail: String,
}

impl std::fmt::Display for CpsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Work counters reported by a successful verification run.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpsVerifySummary {
    /// CPS operators visited.
    pub ops: u64,
    /// Function definitions visited.
    pub funs: u64,
}

fn violation(rule: &'static str, detail: String) -> CpsViolation {
    CpsViolation { rule, detail }
}

fn pure_arity(op: PureOp) -> usize {
    use PureOp::*;
    match op {
        INeg | FNeg | FSqrt | FSin | FCos | FAtan | FExp | FLn | Floor | IntToReal | FWrap
        | FUnwrap | IWrap | IUnwrap | PWrap | PUnwrap | StrSize | IntToString | RealToString
        | ArrayLength => 1,
        IAdd | ISub | IMul | IDiv | IMod | FAdd | FSub | FMul | FDiv | StrSub | StrCat => 2,
    }
}

fn alloc_arity(op: AllocOp) -> usize {
    match op {
        AllocOp::MakeRef => 1,
        AllocOp::ArrayMake => 2,
    }
}

fn look_arity(op: LookOp) -> usize {
    match op {
        LookOp::GetHandler => 0,
        LookOp::Deref => 1,
        LookOp::ArraySub => 2,
    }
}

fn set_arity(op: SetOp) -> usize {
    match op {
        SetOp::Print | SetOp::SetHandler => 1,
        SetOp::Assign | SetOp::UnboxedAssign => 2,
        SetOp::ArrayUpdate | SetOp::UnboxedArrayUpdate => 3,
    }
}

fn branch_arity(op: BranchOp) -> usize {
    match op {
        BranchOp::IsBoxed => 1,
        _ => 2,
    }
}

struct Vfy {
    next_var: u32,
    /// After closure conversion: lifted function name → arity.
    labels: FxHashMap<CVar, usize>,
    /// Before closure conversion: in-scope `Fix`-bound name → arity.
    fn_arity: FxHashMap<CVar, usize>,
    closed: bool,
    sum: CpsVerifySummary,
}

impl Vfy {
    fn chk_val(&self, v: &Value, scope: &FxHashSet<CVar>) -> Result<(), CpsViolation> {
        match v {
            // Variables and labels are distinct namespaces after
            // closure conversion (codegen resolves a `Var` through its
            // register map and a `Label` through the block table), so a
            // `Var` is checked against lexical scope in both forms.
            Value::Var(x) => {
                if scope.contains(x) {
                    Ok(())
                } else {
                    Err(violation("unbound-var", format!("free variable v{x}")))
                }
            }
            Value::Label(x) => {
                if !self.closed {
                    Err(violation(
                        "label-before-closure",
                        format!("label L{x} before closure conversion"),
                    ))
                } else if self.labels.contains_key(x) {
                    Ok(())
                } else {
                    Err(violation("unknown-label", format!("unknown label L{x}")))
                }
            }
            _ => Ok(()),
        }
    }

    fn bind(&self, v: CVar, scope: &mut FxHashSet<CVar>) -> Result<(), CpsViolation> {
        if v >= self.next_var {
            return Err(violation(
                "var-range",
                format!("bound variable v{v} >= next_var {}", self.next_var),
            ));
        }
        if !scope.insert(v) {
            return Err(violation(
                "rebinding",
                format!("variable v{v} bound twice on one path"),
            ));
        }
        Ok(())
    }

    fn walk(&mut self, e: &Cexp, scope: &mut FxHashSet<CVar>) -> Result<(), CpsViolation> {
        self.sum.ops += 1;
        match e {
            Cexp::Record {
                fields, dst, rest, ..
            } => {
                for (v, _) in fields {
                    self.chk_val(v, scope)?;
                }
                self.bind(*dst, scope)?;
                self.walk(rest, scope)?;
                scope.remove(dst);
                Ok(())
            }
            Cexp::Select { rec, dst, rest, .. } => {
                self.chk_val(rec, scope)?;
                self.bind(*dst, scope)?;
                self.walk(rest, scope)?;
                scope.remove(dst);
                Ok(())
            }
            Cexp::Pure {
                op,
                args,
                dst,
                cty,
                rest,
            } => {
                if args.len() != pure_arity(*op) {
                    return Err(violation(
                        "prim-arity",
                        format!("{op:?} applied to {} operands", args.len()),
                    ));
                }
                if cty.is_word() != op.result_cty().is_word() {
                    return Err(violation(
                        "pure-cty",
                        format!("{op:?} destination v{dst} annotated {cty:?}"),
                    ));
                }
                for v in args {
                    self.chk_val(v, scope)?;
                }
                self.bind(*dst, scope)?;
                self.walk(rest, scope)?;
                scope.remove(dst);
                Ok(())
            }
            Cexp::Alloc {
                op,
                args,
                dst,
                rest,
            } => {
                if args.len() != alloc_arity(*op) {
                    return Err(violation(
                        "prim-arity",
                        format!("{op:?} applied to {} operands", args.len()),
                    ));
                }
                for v in args {
                    self.chk_val(v, scope)?;
                }
                self.bind(*dst, scope)?;
                self.walk(rest, scope)?;
                scope.remove(dst);
                Ok(())
            }
            Cexp::Look {
                op,
                args,
                dst,
                rest,
                ..
            } => {
                if args.len() != look_arity(*op) {
                    return Err(violation(
                        "prim-arity",
                        format!("{op:?} applied to {} operands", args.len()),
                    ));
                }
                for v in args {
                    self.chk_val(v, scope)?;
                }
                self.bind(*dst, scope)?;
                self.walk(rest, scope)?;
                scope.remove(dst);
                Ok(())
            }
            Cexp::Set { op, args, rest } => {
                if args.len() != set_arity(*op) {
                    return Err(violation(
                        "prim-arity",
                        format!("{op:?} applied to {} operands", args.len()),
                    ));
                }
                for v in args {
                    self.chk_val(v, scope)?;
                }
                self.walk(rest, scope)
            }
            Cexp::Switch {
                v, arms, default, ..
            } => {
                self.chk_val(v, scope)?;
                for arm in arms {
                    self.walk(arm, scope)?;
                }
                self.walk(default, scope)
            }
            Cexp::Branch { op, args, tru, fls } => {
                if args.len() != branch_arity(*op) {
                    return Err(violation(
                        "prim-arity",
                        format!("{op:?} applied to {} operands", args.len()),
                    ));
                }
                for v in args {
                    self.chk_val(v, scope)?;
                }
                self.walk(tru, scope)?;
                self.walk(fls, scope)
            }
            Cexp::Fix { funs, rest } => {
                if self.closed {
                    return Err(violation(
                        "nested-fix",
                        "nested Fix survived closure conversion".into(),
                    ));
                }
                for f in funs {
                    self.bind(f.name, scope)?;
                    self.fn_arity.insert(f.name, f.params.len());
                }
                for f in funs {
                    self.walk_fun(f, scope)?;
                }
                self.walk(rest, scope)?;
                for f in funs {
                    scope.remove(&f.name);
                    self.fn_arity.remove(&f.name);
                }
                Ok(())
            }
            Cexp::App { f, args } => {
                self.chk_val(f, scope)?;
                for v in args {
                    self.chk_val(v, scope)?;
                }
                // A closed-form `Var` call is an indirect jump through a
                // closure pointer; its target is not statically known, so
                // only direct (`Label` / `Fix`-bound) calls are checked.
                let declared = match f {
                    Value::Label(x) => self.labels.get(x),
                    Value::Var(x) if !self.closed => self.fn_arity.get(x),
                    _ => None,
                };
                if let Some(&n) = declared {
                    if n != args.len() {
                        return Err(violation(
                            "app-arity",
                            format!("call of {f} passes {} arguments, expects {n}", args.len()),
                        ));
                    }
                }
                Ok(())
            }
            Cexp::Halt { v } => self.chk_val(v, scope),
        }
    }

    fn walk_fun(&mut self, f: &FunDef, scope: &mut FxHashSet<CVar>) -> Result<(), CpsViolation> {
        self.sum.funs += 1;
        for (p, _) in &f.params {
            self.bind(*p, scope).map_err(|v| {
                violation(
                    if v.rule == "rebinding" {
                        "param-dup"
                    } else {
                        v.rule
                    },
                    format!("function {}: {}", f.name, v.detail),
                )
            })?;
        }
        self.walk(&f.body, scope)
            .map_err(|v| violation(v.rule, format!("function {}: {}", f.name, v.detail)))?;
        for (p, _) in &f.params {
            scope.remove(p);
        }
        Ok(())
    }
}

/// Verifies a higher-order CPS program (after conversion, and after
/// each optimizer pass).
///
/// Returns work counters on success and the first [`CpsViolation`]
/// otherwise. Never mutates the program.
pub fn verify_cps(prog: &CpsProgram) -> Result<CpsVerifySummary, CpsViolation> {
    let mut v = Vfy {
        next_var: prog.next_var,
        labels: FxHashMap::default(),
        fn_arity: FxHashMap::default(),
        closed: false,
        sum: CpsVerifySummary::default(),
    };
    v.walk(&prog.body, &mut FxHashSet::default())?;
    Ok(v.sum)
}

/// Verifies a first-order (closure-converted) CPS program: everything
/// [`verify_cps`] checks, plus closedness, label resolution, label-call
/// arity, and the absence of surviving `Fix` nodes.
///
/// This is the structured counterpart of
/// [`crate::closure::verify_closed`]; the pipeline verifier uses this
/// form so failures carry a machine-readable rule tag.
pub fn verify_closed_program(prog: &ClosedProgram) -> Result<CpsVerifySummary, CpsViolation> {
    let mut dup = FxHashSet::default();
    for f in &prog.funs {
        if !dup.insert(f.name) {
            return Err(violation(
                "fix-dup",
                format!("two lifted functions named L{}", f.name),
            ));
        }
    }
    let mut v = Vfy {
        next_var: prog.next_var,
        labels: prog.funs.iter().map(|f| (f.name, f.params.len())).collect(),
        fn_arity: FxHashMap::default(),
        closed: true,
        sum: CpsVerifySummary::default(),
    };
    for f in &prog.funs {
        v.walk_fun(f, &mut FxHashSet::default())?;
    }
    v.walk(&prog.entry, &mut FxHashSet::default())
        .map_err(|e| violation(e.rule, format!("entry: {}", e.detail)))?;
    Ok(v.sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn halt(v: CVar) -> Box<Cexp> {
        Box::new(Cexp::Halt { v: Value::Var(v) })
    }

    #[test]
    fn accepts_straightline_program() {
        let prog = CpsProgram {
            body: Cexp::Pure {
                op: PureOp::IAdd,
                args: vec![Value::Int(1), Value::Int(2)],
                dst: 0,
                cty: Cty::Int,
                rest: halt(0),
            },
            next_var: 1,
        };
        let sum = verify_cps(&prog).expect("well-formed");
        assert_eq!(sum.ops, 2);
    }

    #[test]
    fn rejects_unbound_variable() {
        let prog = CpsProgram {
            body: Cexp::Halt { v: Value::Var(7) },
            next_var: 8,
        };
        assert_eq!(verify_cps(&prog).unwrap_err().rule, "unbound-var");
    }

    #[test]
    fn rejects_var_above_watermark() {
        let prog = CpsProgram {
            body: Cexp::Pure {
                op: PureOp::INeg,
                args: vec![Value::Int(1)],
                dst: 9,
                cty: Cty::Int,
                rest: halt(9),
            },
            next_var: 3,
        };
        assert_eq!(verify_cps(&prog).unwrap_err().rule, "var-range");
    }

    #[test]
    fn rejects_operator_arity_mismatch() {
        let prog = CpsProgram {
            body: Cexp::Pure {
                op: PureOp::IAdd,
                args: vec![Value::Int(1)],
                dst: 0,
                cty: Cty::Int,
                rest: halt(0),
            },
            next_var: 1,
        };
        assert_eq!(verify_cps(&prog).unwrap_err().rule, "prim-arity");
    }

    #[test]
    fn rejects_known_call_arity_mismatch() {
        let f = FunDef {
            kind: FunKind::Known,
            name: 0,
            params: vec![(1, Cty::Int)],
            body: halt(1),
        };
        let prog = CpsProgram {
            body: Cexp::Fix {
                funs: vec![f],
                rest: Box::new(Cexp::App {
                    f: Value::Var(0),
                    args: vec![Value::Int(1), Value::Int(2)],
                }),
            },
            next_var: 2,
        };
        assert_eq!(verify_cps(&prog).unwrap_err().rule, "app-arity");
    }

    #[test]
    fn closed_form_rejects_nested_fix_and_free_vars() {
        let f = FunDef {
            kind: FunKind::Escape,
            name: 0,
            params: vec![(1, Cty::Int)],
            body: Box::new(Cexp::Halt { v: Value::Var(2) }),
        };
        let prog = ClosedProgram {
            funs: vec![f],
            entry: Cexp::Halt { v: Value::Int(0) },
            next_var: 3,
        };
        assert_eq!(
            verify_closed_program(&prog).unwrap_err().rule,
            "unbound-var"
        );
    }
}
