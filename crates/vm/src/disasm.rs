//! A textual disassembler for [`MachineProgram`]s.
//!
//! Registers print as `r0..r31` (hardware), `s32..s63` (spill-modelled),
//! and `f0..f31` (float). Branch targets print as local instruction
//! indices, which the listing shows in the left margin, so generated
//! code can be read the way the paper's appendix examples are read.

use std::fmt;

use crate::isa::{
    AOp, AllocKind, BrOp, CodeBlock, FBrOp, FOp, FUOp, Instr, MachineProgram, RtOp, SBrOp, HW_REGS,
};

/// A displayable integer register: hardware registers as `rN`, spill
/// slots as `sN`.
struct R(u8);

impl fmt::Display for R {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < HW_REGS {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

/// A displayable float register.
struct F(u8);

impl fmt::Display for F {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for AOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            AOp::Add => "add",
            AOp::Sub => "sub",
            AOp::Mul => "mul",
            AOp::Div => "div",
            AOp::Mod => "mod",
        })
    }
}

impl fmt::Display for FOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            FOp::Add => "fadd",
            FOp::Sub => "fsub",
            FOp::Mul => "fmul",
            FOp::Div => "fdiv",
        })
    }
}

impl fmt::Display for FUOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            FUOp::Neg => "fneg",
            FUOp::Sqrt => "fsqrt",
            FUOp::Sin => "fsin",
            FUOp::Cos => "fcos",
            FUOp::Atan => "fatan",
            FUOp::Exp => "fexp",
            FUOp::Ln => "fln",
        })
    }
}

impl fmt::Display for BrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            BrOp::Lt => "lt",
            BrOp::Le => "le",
            BrOp::Gt => "gt",
            BrOp::Ge => "ge",
            BrOp::Eq => "eq",
            BrOp::Ne => "ne",
            BrOp::Boxed => "boxed",
        })
    }
}

impl fmt::Display for FBrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            FBrOp::Lt => "flt",
            FBrOp::Le => "fle",
            FBrOp::Gt => "fgt",
            FBrOp::Ge => "fge",
            FBrOp::Eq => "feq",
            FBrOp::Ne => "fne",
        })
    }
}

impl fmt::Display for SBrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            SBrOp::Eq => "seq",
            SBrOp::Ne => "sne",
            SBrOp::Lt => "slt",
            SBrOp::Le => "sle",
            SBrOp::Gt => "sgt",
            SBrOp::Ge => "sge",
        })
    }
}

impl fmt::Display for RtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            RtOp::StrCat => "strcat",
            RtOp::StrSize => "strsize",
            RtOp::StrSub => "strsub",
            RtOp::IntToString => "itos",
            RtOp::RealToString => "rtos",
        })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Move { d, s } => write!(f, "move    {}, {}", R(*d), R(*s)),
            Instr::FMove { d, s } => write!(f, "fmove   {}, {}", F(*d), F(*s)),
            Instr::LoadI { d, imm } => write!(f, "li      {}, {imm}", R(*d)),
            Instr::LoadF { d, imm } => write!(f, "lf      {}, {imm}", F(*d)),
            Instr::LoadStr { d, pool } => write!(f, "lstr    {}, pool[{pool}]", R(*d)),
            Instr::LoadLabel { d, label } => write!(f, "llabel  {}, L{label}", R(*d)),
            Instr::Arith { op, d, a, b } => {
                write!(f, "{op:<7} {}, {}, {}", R(*d), R(*a), R(*b))
            }
            Instr::FArith { op, d, a, b } => {
                write!(f, "{op:<7} {}, {}, {}", F(*d), F(*a), F(*b))
            }
            Instr::FUnary { op, d, a } => write!(f, "{op:<7} {}, {}", F(*d), F(*a)),
            Instr::Floor { d, a } => write!(f, "floor   {}, {}", R(*d), F(*a)),
            Instr::IntToReal { d, a } => write!(f, "i2r     {}, {}", F(*d), R(*a)),
            Instr::Load { d, base, off } => {
                write!(f, "lw      {}, {}[{off}]", R(*d), R(*base))
            }
            Instr::Store { s, base, off } => {
                write!(f, "sw      {}, {}[{off}]", R(*s), R(*base))
            }
            Instr::StoreWB { s, base, off } => {
                write!(f, "sw.wb   {}, {}[{off}]", R(*s), R(*base))
            }
            Instr::FLoad { d, base, off } => {
                write!(f, "lw.f    {}, {}[{off}]", F(*d), R(*base))
            }
            Instr::FStore { s, base, off } => {
                write!(f, "sw.f    {}, {}[{off}]", F(*s), R(*base))
            }
            Instr::LoadIdx { d, base, idx } => {
                write!(f, "lwx     {}, {}[{}]", R(*d), R(*base), R(*idx))
            }
            Instr::StoreIdx { s, base, idx } => {
                write!(f, "swx     {}, {}[{}]", R(*s), R(*base), R(*idx))
            }
            Instr::StoreIdxWB { s, base, idx } => {
                write!(f, "swx.wb  {}, {}[{}]", R(*s), R(*base), R(*idx))
            }
            Instr::Alloc {
                d,
                kind,
                words,
                flts,
            } => {
                let kind = match kind {
                    AllocKind::Record => "record",
                    AllocKind::Ref => "ref",
                };
                write!(f, "alloc   {}, {kind} [", R(*d))?;
                for (i, w) in words.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", R(*w))?;
                }
                for (i, fr) in flts.iter().enumerate() {
                    if i > 0 || !words.is_empty() {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}", F(*fr))?;
                }
                f.write_str("]")
            }
            Instr::AllocArr { d, len, init } => {
                write!(f, "allocarr {}, len={}, init={}", R(*d), R(*len), R(*init))
            }
            Instr::ArrLen { d, a } => write!(f, "arrlen  {}, {}", R(*d), R(*a)),
            Instr::FBox { d, s } => write!(f, "fbox    {}, {}", R(*d), F(*s)),
            Instr::FUnbox { d, s } => write!(f, "funbox  {}, {}", F(*d), R(*s)),
            Instr::Branch { op, a, b, target } => {
                write!(f, "br.!{op:<4} {}, {} -> @{target}", R(*a), R(*b))
            }
            Instr::FBranch { op, a, b, target } => {
                write!(f, "br.!{op:<4} {}, {} -> @{target}", F(*a), F(*b))
            }
            Instr::SBranch { op, a, b, target } => {
                write!(f, "br.!{op:<4} {}, {} -> @{target}", R(*a), R(*b))
            }
            Instr::PolyEqBranch { a, b, target } => {
                write!(f, "br.!peq {}, {} -> @{target}", R(*a), R(*b))
            }
            Instr::Switch {
                r,
                lo,
                table,
                default,
            } => {
                write!(f, "switch  {}, lo={lo} [", R(*r))?;
                for (i, t) in table.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "@{t}")?;
                }
                write!(f, "] default @{default}")
            }
            Instr::Jump { label } => write!(f, "j       L{label}"),
            Instr::JumpReg { r } => write!(f, "jr      {}", R(*r)),
            Instr::Rt { op, d, a, b, fa } => match op {
                RtOp::RealToString => write!(f, "rt.{op}  {}, {}", R(*d), F(*fa)),
                RtOp::StrSize | RtOp::IntToString => {
                    write!(f, "rt.{op}{}{}, {}", pad(op), R(*d), R(*a))
                }
                _ => write!(f, "rt.{op}{}{}, {}, {}", pad(op), R(*d), R(*a), R(*b)),
            },
            Instr::GetHdlr { d } => write!(f, "gethdlr {}", R(*d)),
            Instr::SetHdlr { s } => write!(f, "sethdlr {}", R(*s)),
            Instr::Print { s } => write!(f, "print   {}", R(*s)),
            Instr::Halt { s } => write!(f, "halt    {}", R(*s)),
            Instr::Uncaught { s } => write!(f, "uncaught {}", R(*s)),
        }
    }
}

/// Padding so `rt.<op>` mnemonics line operands up with the others.
fn pad(op: &RtOp) -> &'static str {
    match format!("{op}").len() {
        n if n >= 5 => " ",
        4 => "  ",
        _ => "     ",
    }
}

impl fmt::Display for CodeBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ins) in self.instrs.iter().enumerate() {
            writeln!(f, "  {i:>4}:  {ins}")?;
        }
        Ok(())
    }
}

impl fmt::Display for MachineProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.pool.is_empty() {
            writeln!(f, "; string pool")?;
            for (i, s) in self.pool.iter().enumerate() {
                writeln!(f, ";   pool[{i}] = {s:?}")?;
            }
            writeln!(f)?;
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let entry = if i as u32 == self.entry {
                "  ; entry"
            } else {
                ""
            };
            writeln!(f, "L{i}: <{}>{entry}", b.name)?;
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

// ----- parsing ------------------------------------------------------------

fn parse_reg(tok: &str) -> Result<u8, String> {
    let t = tok.trim().trim_end_matches(',');
    match t.as_bytes().first() {
        Some(b'r') | Some(b's') => t[1..].parse().map_err(|_| format!("bad register `{t}`")),
        _ => Err(format!("expected integer register, got `{t}`")),
    }
}

fn parse_freg(tok: &str) -> Result<u8, String> {
    let t = tok.trim().trim_end_matches(',');
    match t.as_bytes().first() {
        Some(b'f') => t[1..]
            .parse()
            .map_err(|_| format!("bad float register `{t}`")),
        _ => Err(format!("expected float register, got `{t}`")),
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str) -> Result<T, String> {
    tok.trim()
        .trim_end_matches(',')
        .parse()
        .map_err(|_| format!("bad number `{}`", tok.trim()))
}

/// Parses `base[off]` into the base-register token and the bracketed
/// text.
fn parse_indexed(tok: &str) -> Result<(&str, &str), String> {
    let t = tok.trim().trim_end_matches(',');
    let open = t
        .find('[')
        .ok_or_else(|| format!("expected `base[off]`, got `{t}`"))?;
    let close = t
        .rfind(']')
        .filter(|&c| c > open)
        .ok_or_else(|| format!("unterminated `[` in `{t}`"))?;
    Ok((&t[..open], &t[open + 1..close]))
}

fn parse_target(tok: &str) -> Result<u32, String> {
    let t = tok.trim().trim_end_matches(',');
    let t = t
        .strip_prefix('@')
        .ok_or_else(|| format!("expected `@target`, got `{t}`"))?;
    parse_num(t)
}

fn parse_label(tok: &str) -> Result<u32, String> {
    let t = tok.trim().trim_end_matches(',');
    let t = t
        .strip_prefix('L')
        .ok_or_else(|| format!("expected `L<label>`, got `{t}`"))?;
    parse_num(t)
}

/// Parses one instruction back from its [`Display`] rendering.
///
/// The disassembly grammar is regular, so every line the disassembler
/// prints re-parses to an instruction that renders identically. The
/// `disasm_roundtrip` test of `smlc-bench` checks that over every figure
/// program, which keeps the disassembly digest of `codegen_golden`
/// lossless. Leading whitespace and a `<pc>:` margin (as printed by
/// block listings) are accepted and ignored.
pub fn parse_instr(line: &str) -> Result<Instr, String> {
    let mut text = line.trim();
    // Strip the listing margin, e.g. `  12:  move ...`.
    if let Some((margin, rest)) = text.split_once(':') {
        if margin.chars().all(|c| c.is_ascii_digit()) && !margin.is_empty() {
            text = rest.trim_start();
        }
    }
    let (mn, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let rest = rest.trim();
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let tok = |i: usize| -> Result<&str, String> {
        toks.get(i)
            .copied()
            .ok_or_else(|| format!("missing operand {i} in `{line}`"))
    };

    match mn {
        "move" => Ok(Instr::Move {
            d: parse_reg(tok(0)?)?,
            s: parse_reg(tok(1)?)?,
        }),
        "fmove" => Ok(Instr::FMove {
            d: parse_freg(tok(0)?)?,
            s: parse_freg(tok(1)?)?,
        }),
        "li" => Ok(Instr::LoadI {
            d: parse_reg(tok(0)?)?,
            imm: parse_num(tok(1)?)?,
        }),
        "lf" => Ok(Instr::LoadF {
            d: parse_freg(tok(0)?)?,
            imm: parse_num(tok(1)?)?,
        }),
        "lstr" => {
            let (pool, ix) = parse_indexed(tok(1)?)?;
            if pool != "pool" {
                return Err(format!("expected `pool[..]`, got `{pool}`"));
            }
            Ok(Instr::LoadStr {
                d: parse_reg(tok(0)?)?,
                pool: parse_num(ix)?,
            })
        }
        "llabel" => Ok(Instr::LoadLabel {
            d: parse_reg(tok(0)?)?,
            label: parse_label(tok(1)?)?,
        }),
        "add" | "sub" | "mul" | "div" | "mod" => {
            let op = match mn {
                "add" => AOp::Add,
                "sub" => AOp::Sub,
                "mul" => AOp::Mul,
                "div" => AOp::Div,
                _ => AOp::Mod,
            };
            Ok(Instr::Arith {
                op,
                d: parse_reg(tok(0)?)?,
                a: parse_reg(tok(1)?)?,
                b: parse_reg(tok(2)?)?,
            })
        }
        "fadd" | "fsub" | "fmul" | "fdiv" => {
            let op = match mn {
                "fadd" => FOp::Add,
                "fsub" => FOp::Sub,
                "fmul" => FOp::Mul,
                _ => FOp::Div,
            };
            Ok(Instr::FArith {
                op,
                d: parse_freg(tok(0)?)?,
                a: parse_freg(tok(1)?)?,
                b: parse_freg(tok(2)?)?,
            })
        }
        "fneg" | "fsqrt" | "fsin" | "fcos" | "fatan" | "fexp" | "fln" => {
            let op = match mn {
                "fneg" => FUOp::Neg,
                "fsqrt" => FUOp::Sqrt,
                "fsin" => FUOp::Sin,
                "fcos" => FUOp::Cos,
                "fatan" => FUOp::Atan,
                "fexp" => FUOp::Exp,
                _ => FUOp::Ln,
            };
            Ok(Instr::FUnary {
                op,
                d: parse_freg(tok(0)?)?,
                a: parse_freg(tok(1)?)?,
            })
        }
        "floor" => Ok(Instr::Floor {
            d: parse_reg(tok(0)?)?,
            a: parse_freg(tok(1)?)?,
        }),
        "i2r" => Ok(Instr::IntToReal {
            d: parse_freg(tok(0)?)?,
            a: parse_reg(tok(1)?)?,
        }),
        "lw" | "sw" | "sw.wb" => {
            let (base, off) = parse_indexed(tok(1)?)?;
            let r = parse_reg(tok(0)?)?;
            let base = parse_reg(base)?;
            let off = parse_num(off)?;
            Ok(match mn {
                "lw" => Instr::Load { d: r, base, off },
                "sw" => Instr::Store { s: r, base, off },
                _ => Instr::StoreWB { s: r, base, off },
            })
        }
        "lw.f" | "sw.f" => {
            let (base, off) = parse_indexed(tok(1)?)?;
            let fr = parse_freg(tok(0)?)?;
            let base = parse_reg(base)?;
            let off = parse_num(off)?;
            Ok(if mn == "lw.f" {
                Instr::FLoad { d: fr, base, off }
            } else {
                Instr::FStore { s: fr, base, off }
            })
        }
        "lwx" | "swx" | "swx.wb" => {
            let (base, idx) = parse_indexed(tok(1)?)?;
            let r = parse_reg(tok(0)?)?;
            let base = parse_reg(base)?;
            let idx = parse_reg(idx)?;
            Ok(match mn {
                "lwx" => Instr::LoadIdx { d: r, base, idx },
                "swx" => Instr::StoreIdx { s: r, base, idx },
                _ => Instr::StoreIdxWB { s: r, base, idx },
            })
        }
        "alloc" => {
            let open = rest.find('[').ok_or("alloc without field list")?;
            let close = rest.rfind(']').ok_or("alloc without `]`")?;
            let head: Vec<&str> = rest[..open].split(',').map(str::trim).collect();
            if head.len() < 2 {
                return Err(format!("bad alloc head in `{line}`"));
            }
            let d = parse_reg(head[0])?;
            let kind = match head[1] {
                "record" => AllocKind::Record,
                "ref" => AllocKind::Ref,
                other => return Err(format!("unknown alloc kind `{other}`")),
            };
            let mut words = Vec::new();
            let mut flts = Vec::new();
            for field in rest[open + 1..close].split(',') {
                let field = field.trim();
                if field.is_empty() {
                    continue;
                }
                if field.starts_with('f') {
                    flts.push(parse_freg(field)?);
                } else {
                    words.push(parse_reg(field)?);
                }
            }
            Ok(Instr::Alloc {
                d,
                kind,
                words,
                flts,
            })
        }
        "allocarr" => {
            let len = tok(1)?
                .strip_prefix("len=")
                .ok_or_else(|| format!("expected `len=`, got `{}`", tok(1).unwrap_or("")))?;
            let init = tok(2)?
                .strip_prefix("init=")
                .ok_or_else(|| format!("expected `init=`, got `{}`", tok(2).unwrap_or("")))?;
            Ok(Instr::AllocArr {
                d: parse_reg(tok(0)?)?,
                len: parse_reg(len)?,
                init: parse_reg(init)?,
            })
        }
        "arrlen" => Ok(Instr::ArrLen {
            d: parse_reg(tok(0)?)?,
            a: parse_reg(tok(1)?)?,
        }),
        "fbox" => Ok(Instr::FBox {
            d: parse_reg(tok(0)?)?,
            s: parse_freg(tok(1)?)?,
        }),
        "funbox" => Ok(Instr::FUnbox {
            d: parse_freg(tok(0)?)?,
            s: parse_reg(tok(1)?)?,
        }),
        "switch" => {
            let open = rest.find('[').ok_or("switch without table")?;
            let close = rest.rfind(']').ok_or("switch without `]`")?;
            let head: Vec<&str> = rest[..open].split(',').map(str::trim).collect();
            if head.len() < 2 {
                return Err(format!("bad switch head in `{line}`"));
            }
            let r = parse_reg(head[0])?;
            let lo = parse_num(
                head[1]
                    .strip_prefix("lo=")
                    .ok_or_else(|| format!("expected `lo=`, got `{}`", head[1]))?,
            )?;
            let mut table = Vec::new();
            for t in rest[open + 1..close].split(',') {
                let t = t.trim();
                if !t.is_empty() {
                    table.push(parse_target(t)?);
                }
            }
            let tail: Vec<&str> = rest[close + 1..].split_whitespace().collect();
            if tail.first() != Some(&"default") || tail.len() != 2 {
                return Err(format!("bad switch default in `{line}`"));
            }
            let default = parse_target(tail[1])?;
            Ok(Instr::Switch {
                r,
                lo,
                table,
                default,
            })
        }
        "j" => Ok(Instr::Jump {
            label: parse_label(tok(0)?)?,
        }),
        "jr" => Ok(Instr::JumpReg {
            r: parse_reg(tok(0)?)?,
        }),
        "gethdlr" => Ok(Instr::GetHdlr {
            d: parse_reg(tok(0)?)?,
        }),
        "sethdlr" => Ok(Instr::SetHdlr {
            s: parse_reg(tok(0)?)?,
        }),
        "print" => Ok(Instr::Print {
            s: parse_reg(tok(0)?)?,
        }),
        "halt" => Ok(Instr::Halt {
            s: parse_reg(tok(0)?)?,
        }),
        "uncaught" => Ok(Instr::Uncaught {
            s: parse_reg(tok(0)?)?,
        }),
        _ if mn.starts_with("br.!") => {
            let op = &mn[4..];
            let (a, b) = (tok(0)?, tok(1)?);
            if tok(2)? != "->" {
                return Err(format!("expected `->` in `{line}`"));
            }
            let target = parse_target(tok(3)?)?;
            if op == "peq" {
                return Ok(Instr::PolyEqBranch {
                    a: parse_reg(a)?,
                    b: parse_reg(b)?,
                    target,
                });
            }
            if let Some(fop) = match op {
                "flt" => Some(FBrOp::Lt),
                "fle" => Some(FBrOp::Le),
                "fgt" => Some(FBrOp::Gt),
                "fge" => Some(FBrOp::Ge),
                "feq" => Some(FBrOp::Eq),
                "fne" => Some(FBrOp::Ne),
                _ => None,
            } {
                return Ok(Instr::FBranch {
                    op: fop,
                    a: parse_freg(a)?,
                    b: parse_freg(b)?,
                    target,
                });
            }
            if let Some(sop) = match op {
                "seq" => Some(SBrOp::Eq),
                "sne" => Some(SBrOp::Ne),
                "slt" => Some(SBrOp::Lt),
                "sle" => Some(SBrOp::Le),
                "sgt" => Some(SBrOp::Gt),
                "sge" => Some(SBrOp::Ge),
                _ => None,
            } {
                return Ok(Instr::SBranch {
                    op: sop,
                    a: parse_reg(a)?,
                    b: parse_reg(b)?,
                    target,
                });
            }
            let bop = match op {
                "lt" => BrOp::Lt,
                "le" => BrOp::Le,
                "gt" => BrOp::Gt,
                "ge" => BrOp::Ge,
                "eq" => BrOp::Eq,
                "ne" => BrOp::Ne,
                "boxed" => BrOp::Boxed,
                other => return Err(format!("unknown branch op `{other}`")),
            };
            Ok(Instr::Branch {
                op: bop,
                a: parse_reg(a)?,
                b: parse_reg(b)?,
                target,
            })
        }
        _ if mn.starts_with("rt.") => {
            let op = match &mn[3..] {
                "strcat" => RtOp::StrCat,
                "strsize" => RtOp::StrSize,
                "strsub" => RtOp::StrSub,
                "itos" => RtOp::IntToString,
                "rtos" => RtOp::RealToString,
                other => return Err(format!("unknown runtime op `{other}`")),
            };
            let d = parse_reg(tok(0)?)?;
            let (mut a, mut b, mut fa) = (0, 0, 0);
            match op {
                RtOp::RealToString => fa = parse_freg(tok(1)?)?,
                RtOp::StrSize | RtOp::IntToString => a = parse_reg(tok(1)?)?,
                _ => {
                    a = parse_reg(tok(1)?)?;
                    b = parse_reg(tok(2)?)?;
                }
            }
            Ok(Instr::Rt { op, d, a, b, fa })
        }
        other => Err(format!("unknown mnemonic `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_render_by_class() {
        assert_eq!(format!("{}", R(5)), "r5");
        assert_eq!(format!("{}", R(31)), "r31");
        assert_eq!(format!("{}", R(32)), "s32");
        assert_eq!(format!("{}", F(7)), "f7");
    }

    #[test]
    fn instr_rendering() {
        let i = Instr::Arith {
            op: AOp::Add,
            d: 3,
            a: 1,
            b: 2,
        };
        assert_eq!(format!("{i}"), "add     r3, r1, r2");
        let i = Instr::Branch {
            op: BrOp::Lt,
            a: 1,
            b: 2,
            target: 9,
        };
        assert_eq!(format!("{i}"), "br.!lt   r1, r2 -> @9");
        let i = Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 2],
            flts: vec![0],
        };
        assert_eq!(format!("{i}"), "alloc   r4, record [r1, r2, f0]");
        let i = Instr::Switch {
            r: 1,
            lo: 0,
            table: vec![3, 5],
            default: 7,
        };
        assert_eq!(format!("{i}"), "switch  r1, lo=0 [@3, @5] default @7");
    }

    #[test]
    fn parse_roundtrips_representative_instrs() {
        // Instr has no PartialEq (f64 fields), so round-trips compare
        // the re-rendered text.
        let cases = [
            "move    r1, r2",
            "fmove   f1, f2",
            "li      r1, -42",
            "lf      f3, 2.5",
            "lstr    r2, pool[7]",
            "llabel  r2, L9",
            "add     r3, r1, r2",
            "mod     r3, s33, r2",
            "fadd    f3, f1, f2",
            "fsqrt   f1, f2",
            "floor   r1, f2",
            "i2r     f1, r2",
            "lw      r1, r2[3]",
            "sw      r1, r2[3]",
            "sw.wb   r1, r2[3]",
            "lw.f    f1, r2[4]",
            "sw.f    f1, r2[4]",
            "lwx     r1, r2[r3]",
            "swx     r1, r2[r3]",
            "swx.wb  r1, r2[r3]",
            "alloc   r4, record [r1, r2, f0]",
            "alloc   r4, record []",
            "alloc   r4, ref [r1]",
            "allocarr r1, len=r2, init=r3",
            "arrlen  r1, r2",
            "fbox    r1, f2",
            "funbox  f1, r2",
            "br.!lt   r1, r2 -> @9",
            "br.!boxed r1, r1 -> @4",
            "br.!flt  f1, f2 -> @3",
            "br.!seq  r1, r2 -> @3",
            "br.!peq r1, r2 -> @3",
            "switch  r1, lo=0 [@3, @5] default @7",
            "switch  r1, lo=-2 [] default @1",
            "j       L2",
            "jr      r5",
            "rt.strcat r1, r2, r3",
            "rt.strsize  r1, r2",
            "rt.strsub r1, r2, r3",
            "rt.itos     r1, r2",
            "rt.rtos  r1, f2",
            "gethdlr r1",
            "sethdlr r1",
            "print   r1",
            "halt    r1",
            "uncaught r1",
        ];
        for line in cases {
            let ins = parse_instr(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let back = format!("{ins}");
            assert_eq!(
                back.split_whitespace().collect::<Vec<_>>(),
                line.split_whitespace().collect::<Vec<_>>(),
                "round-trip drift for `{line}`"
            );
        }
    }

    #[test]
    fn parse_accepts_listing_margin() {
        let ins = parse_instr("  12:  li      r1, 42").expect("margin stripped");
        assert_eq!(format!("{ins}"), "li      r1, 42");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_instr("frobnicate r1").is_err());
        assert!(parse_instr("br.!zz r1, r2 -> @0").is_err());
        assert!(parse_instr("li r1").is_err());
    }

    #[test]
    fn program_listing_shows_entry_and_pool() {
        let prog = MachineProgram {
            blocks: vec![CodeBlock {
                name: "main".into(),
                instrs: vec![Instr::LoadI { d: 1, imm: 42 }, Instr::Halt { s: 1 }],
            }],
            entry: 0,
            pool: vec!["hi".into()],
        };
        let s = format!("{prog}");
        assert!(s.contains("pool[0] = \"hi\""), "{s}");
        assert!(s.contains("L0: <main>  ; entry"), "{s}");
        assert!(s.contains("0:  li      r1, 42"), "{s}");
        assert!(s.contains("1:  halt    r1"), "{s}");
    }
}
