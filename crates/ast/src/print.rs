//! Pretty-printing of the raw AST back to parseable source.
//!
//! `parse(print(parse(src)))` must equal `parse(src)` — the round-trip
//! property checked by the test suite. Output is fully parenthesized, so
//! printing does not need to reason about fixity.

use crate::ast::*;
use std::fmt::Write;

/// Renders a program as parseable source text.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for d in &p.decs {
        dec_into(d, &mut out);
        out.push('\n');
    }
    out
}

/// Renders one expression (fully parenthesized).
pub fn print_exp(e: &Exp) -> String {
    let mut out = String::new();
    exp(e, &mut out);
    out
}

fn escape_str(s: &str, out: &mut String) {
    out.push('"');
    for b in s.bytes() {
        match b {
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\\' => out.push_str("\\\\"),
            b'"' => out.push_str("\\\""),
            0x20..=0x7e => out.push(b as char),
            other => {
                let _ = write!(out, "\\{other:03}");
            }
        }
    }
    out.push('"');
}

fn vid(name: crate::Symbol, out: &mut String) {
    let s = name.as_str();
    let alpha = s.chars().next().is_some_and(|c| c.is_ascii_alphabetic());
    if alpha {
        out.push_str(s);
    } else {
        let _ = write!(out, "op {s}");
    }
}

fn exp(e: &Exp, out: &mut String) {
    match &e.kind {
        ExpKind::Int(n) => {
            if *n < 0 {
                let _ = write!(out, "~{}", n.unsigned_abs());
            } else {
                let _ = write!(out, "{n}");
            }
        }
        ExpKind::Real(x) => {
            let s = format!("{x:?}");
            out.push_str(&s.replace('-', "~"));
        }
        ExpKind::Str(s) => escape_str(s, out),
        ExpKind::Char(c) => {
            out.push('#');
            escape_str(&(*c as char).to_string(), out);
        }
        ExpKind::Var(p) => {
            if p.is_simple() {
                vid(p.name, out);
            } else {
                let _ = write!(out, "{p}");
            }
        }
        ExpKind::Tuple(es) => {
            out.push('(');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                exp(e, out);
            }
            out.push(')');
        }
        ExpKind::Record(fs) => {
            out.push('{');
            for (i, (l, e)) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l} = ");
                exp(e, out);
            }
            out.push('}');
        }
        ExpKind::Selector(l) => {
            let _ = write!(out, "#{l}");
        }
        ExpKind::List(es) => {
            out.push('[');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                exp(e, out);
            }
            out.push(']');
        }
        ExpKind::App(f, a) => {
            out.push('(');
            exp(f, out);
            out.push(' ');
            exp(a, out);
            out.push(')');
        }
        ExpKind::Fn(rules) => {
            out.push_str("(fn ");
            print_rules(rules, out);
            out.push(')');
        }
        ExpKind::Case(s, rules) => {
            out.push_str("(case ");
            exp(s, out);
            out.push_str(" of ");
            print_rules(rules, out);
            out.push(')');
        }
        ExpKind::If(c, t, e2) => {
            out.push_str("(if ");
            exp(c, out);
            out.push_str(" then ");
            exp(t, out);
            out.push_str(" else ");
            exp(e2, out);
            out.push(')');
        }
        ExpKind::Andalso(a, b) => {
            out.push('(');
            exp(a, out);
            out.push_str(" andalso ");
            exp(b, out);
            out.push(')');
        }
        ExpKind::Orelse(a, b) => {
            out.push('(');
            exp(a, out);
            out.push_str(" orelse ");
            exp(b, out);
            out.push(')');
        }
        ExpKind::While(c, b) => {
            out.push_str("(while ");
            exp(c, out);
            out.push_str(" do ");
            exp(b, out);
            out.push(')');
        }
        ExpKind::Seq(es) => {
            out.push('(');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                exp(e, out);
            }
            out.push(')');
        }
        ExpKind::Let(decs, body) => {
            out.push_str("let ");
            for d in decs {
                dec_into(d, out);
                out.push(' ');
            }
            out.push_str("in ");
            exp(body, out);
            out.push_str(" end");
        }
        ExpKind::Raise(e2) => {
            out.push_str("(raise ");
            exp(e2, out);
            out.push(')');
        }
        ExpKind::Handle(e2, rules) => {
            out.push('(');
            exp(e2, out);
            out.push_str(" handle ");
            print_rules(rules, out);
            out.push(')');
        }
        ExpKind::Constraint(e2, t) => {
            out.push('(');
            exp(e2, out);
            out.push_str(" : ");
            ty(t, out);
            out.push(')');
        }
    }
}

fn print_rules(rules: &[Rule], out: &mut String) {
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        pat(&r.pat, out);
        out.push_str(" => ");
        exp(&r.exp, out);
    }
}

fn pat(p: &Pat, out: &mut String) {
    match &p.kind {
        PatKind::Wild => out.push('_'),
        PatKind::Var(pth) => {
            if pth.is_simple() {
                vid(pth.name, out);
            } else {
                let _ = write!(out, "{pth}");
            }
        }
        PatKind::Int(n) => {
            if *n < 0 {
                let _ = write!(out, "~{}", n.unsigned_abs());
            } else {
                let _ = write!(out, "{n}");
            }
        }
        PatKind::Str(s) => escape_str(s, out),
        PatKind::Char(c) => {
            out.push('#');
            escape_str(&(*c as char).to_string(), out);
        }
        PatKind::Con(pth, arg) => {
            // `::` must print infix (the pattern grammar has no nonfix
            // symbolic constructor application).
            if pth.is_simple() && pth.name.as_str() == "::" {
                if let PatKind::Tuple(parts) = &arg.kind {
                    if parts.len() == 2 {
                        out.push('(');
                        pat(&parts[0], out);
                        out.push_str(" :: ");
                        pat(&parts[1], out);
                        out.push(')');
                        return;
                    }
                }
            }
            out.push('(');
            let _ = write!(out, "{pth} ");
            pat(arg, out);
            out.push(')');
        }
        PatKind::Tuple(ps) => {
            out.push('(');
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                pat(p, out);
            }
            out.push(')');
        }
        PatKind::Record { fields, flexible } => {
            out.push('{');
            for (i, (l, p)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l} = ");
                pat(p, out);
            }
            if *flexible {
                if !fields.is_empty() {
                    out.push_str(", ");
                }
                out.push_str("...");
            }
            out.push('}');
        }
        PatKind::List(ps) => {
            out.push('[');
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                pat(p, out);
            }
            out.push(']');
        }
        PatKind::As(n, inner) => {
            let _ = write!(out, "{n} as ");
            pat(inner, out);
        }
        PatKind::Constraint(inner, t) => {
            out.push('(');
            pat(inner, out);
            out.push_str(" : ");
            ty(t, out);
            out.push(')');
        }
    }
}

fn ty(t: &Ty, out: &mut String) {
    match &t.kind {
        TyKind::Var(v) => out.push_str(v.as_str()),
        TyKind::Con(p, args) => {
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    ty(a, out);
                }
                out.push_str(") ");
            }
            let _ = write!(out, "{p}");
        }
        TyKind::Tuple(parts) => {
            out.push('(');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(" * ");
                }
                ty(p, out);
            }
            out.push(')');
        }
        TyKind::Record(fs) => {
            out.push('{');
            for (i, (l, t2)) in fs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l} : ");
                ty(t2, out);
            }
            out.push('}');
        }
        TyKind::Arrow(a, b) => {
            out.push('(');
            ty(a, out);
            out.push_str(" -> ");
            ty(b, out);
            out.push(')');
        }
    }
}

fn tyvarseq(tvs: &[crate::Symbol], out: &mut String) {
    match tvs.len() {
        0 => {}
        1 => {
            let _ = write!(out, "{} ", tvs[0]);
        }
        _ => {
            out.push('(');
            for (i, tv) in tvs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(tv.as_str());
            }
            out.push_str(") ");
        }
    }
}

fn dec_into(d: &Dec, out: &mut String) {
    match &d.kind {
        DecKind::Val {
            tyvars,
            pat: p,
            exp: e,
        } => {
            out.push_str("val ");
            tyvarseq(tyvars, out);
            pat(p, out);
            out.push_str(" = ");
            exp(e, out);
        }
        DecKind::Fun { tyvars, funs } => {
            out.push_str("fun ");
            tyvarseq(tyvars, out);
            for (i, f) in funs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                for (j, c) in f.clauses.iter().enumerate() {
                    if j > 0 {
                        out.push_str(" | ");
                    }
                    vid(f.name, out);
                    for p in &c.pats {
                        out.push(' ');
                        pat(p, out);
                    }
                    if let Some(rt) = &c.ret_ty {
                        out.push_str(" : ");
                        ty(rt, out);
                    }
                    out.push_str(" = ");
                    exp(&c.body, out);
                }
            }
        }
        DecKind::Type(binds) => {
            out.push_str("type ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                tyvarseq(&b.tyvars, out);
                let _ = write!(out, "{} = ", b.name);
                ty(&b.ty, out);
            }
        }
        DecKind::Datatype(binds) => {
            out.push_str("datatype ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                databind(b, out);
            }
        }
        DecKind::Exception(binds) => {
            out.push_str("exception ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                vid(b.name, out);
                if let Some(t) = &b.ty {
                    out.push_str(" of ");
                    ty(t, out);
                }
            }
        }
        DecKind::Structure(binds) => {
            out.push_str("structure ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                out.push_str(b.name.as_str());
                if let Some((se, opaque)) = &b.ascription {
                    out.push_str(if *opaque { " :> " } else { " : " });
                    sigexp(se, out);
                }
                out.push_str(" = ");
                strexp(&b.def, out);
            }
        }
        DecKind::Signature(binds) => {
            out.push_str("signature ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                let _ = write!(out, "{} = ", b.name);
                sigexp(&b.def, out);
            }
        }
        DecKind::Functor(binds) => {
            out.push_str("functor ");
            for (i, b) in binds.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                let _ = write!(out, "{} ({} : ", b.name, b.param);
                sigexp(&b.param_sig, out);
                out.push(')');
                if let Some((se, opaque)) = &b.result_sig {
                    out.push_str(if *opaque { " :> " } else { " : " });
                    sigexp(se, out);
                }
                out.push_str(" = ");
                strexp(&b.body, out);
            }
        }
    }
}

fn databind(b: &DataBind, out: &mut String) {
    tyvarseq(&b.tyvars, out);
    let _ = write!(out, "{} = ", b.name);
    for (i, (c, t)) in b.cons.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        vid(*c, out);
        if let Some(t) = t {
            out.push_str(" of ");
            ty(t, out);
        }
    }
}

fn strexp(s: &StrExp, out: &mut String) {
    match s {
        StrExp::Var(p) => {
            let _ = write!(out, "{p}");
        }
        StrExp::Struct(decs, _) => {
            out.push_str("struct ");
            for d in decs {
                dec_into(d, out);
                out.push(' ');
            }
            out.push_str("end");
        }
        StrExp::App(f, a, _) => {
            let _ = write!(out, "{f} (");
            strexp(a, out);
            out.push(')');
        }
        StrExp::Ascribe(inner, se, opaque) => {
            strexp(inner, out);
            out.push_str(if *opaque { " :> " } else { " : " });
            sigexp(se, out);
        }
    }
}

fn sigexp(s: &SigExp, out: &mut String) {
    match s {
        SigExp::Var(n) => out.push_str(n.as_str()),
        SigExp::Sig(specs, _) => {
            out.push_str("sig ");
            for sp in specs {
                spec(sp, out);
                out.push(' ');
            }
            out.push_str("end");
        }
    }
}

fn spec(sp: &Spec, out: &mut String) {
    match sp {
        Spec::Val(n, t) => {
            out.push_str("val ");
            vid(*n, out);
            out.push_str(" : ");
            ty(t, out);
        }
        Spec::Type {
            tyvars,
            name,
            eq,
            def,
        } => {
            out.push_str(if *eq { "eqtype " } else { "type " });
            tyvarseq(tyvars, out);
            out.push_str(name.as_str());
            if let Some(t) = def {
                out.push_str(" = ");
                ty(t, out);
            }
        }
        Spec::Datatype(b) => {
            out.push_str("datatype ");
            databind(b, out);
        }
        Spec::Exception(n, t) => {
            out.push_str("exception ");
            vid(*n, out);
            if let Some(t) = t {
                out.push_str(" of ");
                ty(t, out);
            }
        }
        Spec::Structure(n, se) => {
            let _ = write!(out, "structure {n} : ");
            sigexp(se, out);
        }
    }
}
