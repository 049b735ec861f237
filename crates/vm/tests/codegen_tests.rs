//! Direct codegen + VM tests on hand-built first-order CPS programs:
//! calling conventions, parallel moves, switches, records with raw float
//! fields, and the exception-handler register.

use sml_cps::{
    AllocOp, Bind, BranchOp, CVar, Cexp, Cty, Exit, FunDef, FunKind, LookOp, PureOp, SetOp, Value,
};
use sml_vm::{codegen, run, VmConfig, VmResult};

fn halted(prog: sml_cps::ClosedProgram) -> (VmResult, sml_vm::RunStats, String) {
    let m = codegen(&prog);
    let o = run(&m, &VmConfig::default());
    (o.result, o.stats, o.output)
}

fn var(v: CVar) -> Value {
    Value::Var(v)
}

fn halt(v: Value) -> Exit {
    Exit::Halt { v }
}

fn pure(op: PureOp, args: Vec<Value>, dst: CVar, cty: Cty) -> Bind {
    Bind::Pure { op, args, dst, cty }
}

fn select(rec: Value, word_off: usize, flt: bool, dst: CVar, cty: Cty) -> Bind {
    Bind::Select {
        rec,
        word_off,
        flt,
        dst,
        cty,
    }
}

#[test]
fn known_call_passes_extra_args() {
    // f(a, b) = a - b, called as a known function.
    let f = FunDef {
        kind: FunKind::Known,
        name: 10,
        params: vec![(1, Cty::Int), (2, Cty::Int)],
        body: Cexp::new(
            vec![pure(PureOp::ISub, vec![var(1), var(2)], 3, Cty::Int)],
            halt(var(3)),
        ),
    };
    let prog = sml_cps::ClosedProgram {
        funs: vec![f],
        entry: Exit::App {
            f: Value::Label(10),
            args: vec![Value::Int(50), Value::Int(8)],
        }
        .into(),
        next_var: 100,
    };
    let (r, _, _) = halted(prog);
    assert_eq!(r, VmResult::Value(42));
}

#[test]
fn flat_float_record_roundtrip() {
    // Build a record [word, float]; read both back.
    let binds = vec![
        Bind::Record {
            fields: vec![(Value::Int(7), Cty::Int), (Value::Real(2.5), Cty::Flt)],
            nflt: 1,
            dst: 1,
        },
        select(var(1), 1, true, 2, Cty::Flt),
        pure(PureOp::Floor, vec![var(2)], 3, Cty::Int),
        select(var(1), 0, false, 4, Cty::Int),
        pure(PureOp::IAdd, vec![var(3), var(4)], 5, Cty::Int),
    ];
    let entry = Cexp::new(binds, halt(var(5)));
    let prog = sml_cps::ClosedProgram {
        funs: vec![],
        entry,
        next_var: 100,
    };
    let (r, stats, _) = halted(prog);
    assert_eq!(r, VmResult::Value(9)); // floor 2.5 + 7
    assert!(stats.alloc_words >= 4, "desc + word + 2 float words");
}

#[test]
fn switch_dispatch() {
    let arm = |v: i64| Cexp::from(halt(Value::Int(v)));
    let entry = Exit::Switch {
        v: Value::Int(7),
        lo: 5,
        arms: vec![arm(50), arm(60), arm(70), arm(80)],
        default: Box::new(arm(-1)),
    }
    .into();
    let prog = sml_cps::ClosedProgram {
        funs: vec![],
        entry,
        next_var: 100,
    };
    assert_eq!(halted(prog).0, VmResult::Value(70));

    let entry = Exit::Switch {
        v: Value::Int(99),
        lo: 5,
        arms: vec![arm(50), arm(60)],
        default: Box::new(arm(-1)),
    }
    .into();
    let prog = sml_cps::ClosedProgram {
        funs: vec![],
        entry,
        next_var: 100,
    };
    assert_eq!(halted(prog).0, VmResult::Value(-1));
}

#[test]
fn refs_arrays_and_barriers() {
    // r := 5; a[2] := !r; halt a[2] + alength a
    let binds = vec![
        Bind::Alloc {
            op: AllocOp::MakeRef,
            args: vec![Value::Int(0)],
            dst: 1,
        },
        Bind::Set {
            op: SetOp::Assign,
            args: vec![var(1), Value::Int(5)],
        },
        Bind::Alloc {
            op: AllocOp::ArrayMake,
            args: vec![Value::Int(4), Value::Int(9)],
            dst: 2,
        },
        Bind::Look {
            op: LookOp::Deref,
            args: vec![var(1)],
            dst: 3,
            cty: Cty::Int,
        },
        Bind::Set {
            op: SetOp::UnboxedArrayUpdate,
            args: vec![var(2), Value::Int(2), var(3)],
        },
        Bind::Look {
            op: LookOp::ArraySub,
            args: vec![var(2), Value::Int(2)],
            dst: 4,
            cty: Cty::Int,
        },
        pure(PureOp::ArrayLength, vec![var(2)], 5, Cty::Int),
        pure(PureOp::IAdd, vec![var(4), var(5)], 6, Cty::Int),
    ];
    let entry = Cexp::new(binds, halt(var(6)));
    let prog = sml_cps::ClosedProgram {
        funs: vec![],
        entry,
        next_var: 100,
    };
    assert_eq!(halted(prog).0, VmResult::Value(9));
}

#[test]
fn handler_register_roundtrip() {
    // Install a handler closure, raise into it, confirm the packet
    // arrives.
    let handler = FunDef {
        kind: FunKind::Escape,
        name: 20,
        params: vec![(1, Cty::Ptr(None)), (2, Cty::Int)],
        body: halt(var(2)).into(),
    };
    let binds = vec![
        Bind::Record {
            fields: vec![(Value::Label(20), Cty::Fun)],
            nflt: 0,
            dst: 3,
        },
        Bind::Set {
            op: SetOp::SetHandler,
            args: vec![var(3)],
        },
        Bind::Look {
            op: LookOp::GetHandler,
            args: vec![],
            dst: 4,
            cty: Cty::Fun,
        },
        select(var(4), 0, false, 5, Cty::Fun),
    ];
    let raise = Exit::App {
        f: var(5),
        args: vec![var(4), Value::Int(123)],
    };
    let entry = Cexp::new(binds, raise);
    let prog = sml_cps::ClosedProgram {
        funs: vec![handler],
        entry,
        next_var: 100,
    };
    assert_eq!(halted(prog).0, VmResult::Value(123));
}

#[test]
fn string_runtime_ops() {
    let foo_bar = vec![Value::Str("foo".into()), Value::Str("bar".into())];
    let binds = vec![
        pure(PureOp::StrCat, foo_bar, 1, Cty::Ptr(None)),
        Bind::Set {
            op: SetOp::Print,
            args: vec![var(1)],
        },
        pure(PureOp::StrSize, vec![var(1)], 2, Cty::Int),
    ];
    let test = Exit::Branch {
        op: BranchOp::StrEq,
        args: vec![var(1), Value::Str("foobar".into())],
        tru: Box::new(halt(var(2)).into()),
        fls: Box::new(halt(Value::Int(-1)).into()),
    };
    let entry = Cexp::new(binds, test);
    let prog = sml_cps::ClosedProgram {
        funs: vec![],
        entry,
        next_var: 100,
    };
    let (r, _, out) = halted(prog);
    assert_eq!(r, VmResult::Value(6));
    assert_eq!(out, "foobar");
}

#[test]
fn many_params_pack_into_spill_record() {
    // A known function with 30 parameters: codegen must pack the
    // overflow and still compute the right sum.
    let n = 30usize;
    let params: Vec<(CVar, Cty)> = (1..=n as u32).map(|i| (i, Cty::Int)).collect();
    // body: acc_i = acc_{i-1} + p_i, acc_0 = 0; halt with acc_n.
    let mut prev: Value = Value::Int(0);
    let mut chain = Vec::new();
    for i in 1..=n as u32 {
        chain.push(pure(PureOp::IAdd, vec![prev, var(i)], 100 + i, Cty::Int));
        prev = var(100 + i);
    }
    let f = FunDef {
        kind: FunKind::Known,
        name: 200,
        params,
        body: Cexp::new(chain, halt(prev)),
    };
    let args: Vec<Value> = (1..=n as i64).map(Value::Int).collect();
    let prog = sml_cps::ClosedProgram {
        funs: vec![f],
        entry: Exit::App {
            f: Value::Label(200),
            args,
        }
        .into(),
        next_var: 1000,
    };
    let (r, _, _) = halted(prog);
    assert_eq!(r, VmResult::Value((1..=n as i64).sum()));
}

/// One straight-line run of 100,000 operators the optimizer cannot
/// delete passes every phase from `verify_cps` to the threaded-code
/// verifier, and is dropped, on a 2 MiB stack: no walker recurses per
/// operator of a run.
#[test]
fn long_straight_line_runs_need_no_stack() {
    const OPS: usize = 100_000;
    let phases = || {
        let print = Bind::Set {
            op: SetOp::Print,
            args: vec![Value::Str("x".into())],
        };
        let mut cps = sml_cps::CpsProgram {
            body: Cexp::new(vec![print; OPS], halt(Value::Int(0))),
            next_var: 0,
        };
        sml_cps::verify_cps(&cps).expect("the run is well formed");
        sml_cps::optimize(&mut cps, &sml_cps::OptConfig::default());
        assert_eq!(cps.body.size(), OPS + 1, "every print survives");
        let closed = sml_cps::close(cps);
        sml_cps::verify_closed_program(&closed).expect("closure conversion keeps it well formed");
        let m = codegen(&closed);
        sml_vm::verify_bytecode(&m).expect("codegen emits verified bytecode");
        sml_vm::verify_threaded(&m).expect("the threaded stream verifies");
        m.code_size()
    };
    let code_size = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(phases)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("the phases finish");
    assert!(code_size > OPS, "one print instruction per operator");
}
