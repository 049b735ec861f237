//! Minimum typing derivations (paper §3, after Bjørner's algorithm M).
//!
//! After elaboration, every non-exported polymorphic binding is reassigned
//! the *least* general type scheme that covers all of its actual
//! instantiations. Because type annotations share the store's variables
//! with the binding's scheme, re-linking the scheme's generic variables
//! to the least common generalization (a [`Tv::Link`] set in the
//! elaboration's store) automatically constrains every annotation inside
//! the declaration body — exactly the paper's "the new type assigned to x
//! is propagated into x's declaration, constraining other variables
//! referenced by x". In particular, a polymorphic-equality instantiation
//! inside the body becomes monomorphic and is later specialized to a
//! primitive comparison by the lambda translator (the Life benchmark's
//! 10x speedup).

use crate::absyn::*;
use crate::elaborate::Elaboration;
use sml_types::{AntiUnifier, Generic, Scheme, Tv, Ty};

/// Runs minimum typing derivations over an elaborated program, in place.
///
/// Declarations are processed uses-before-defs (reverse declaration
/// order, nested `let`s after their enclosing declaration), so each
/// gathered instantiation is already in its final, minimized form.
///
/// Two walks of the program do the work of all sites: one gathers the
/// uses of every site's variables, and one puts every site's new
/// instantiation vectors in place. A site only ever rewrites the
/// vectors of its own uses, which no other site reads, and the types
/// it relinks are shared cells every gathered vector sees, so gathering
/// first and rewriting last gives what a walk per site would.
pub fn minimum_typing(elab: &mut Elaboration) {
    let mut sites: Vec<Site> = Vec::new();
    // `collect_sites` already records sites in uses-before-defs order.
    collect_sites(&elab.decs, &mut Vec::new(), &mut sites);
    let mut site_of = vec![NO_SITE; elab.vars.len()];
    for (s, site) in sites.iter().enumerate() {
        for v in &site.vars {
            site_of[v.0 as usize] = s as u32;
        }
    }
    let arity: Vec<usize> = sites
        .iter()
        .map(|site| elab.vars.scheme(site.vars[0]).arity())
        .collect();
    let mut g = Gather {
        site_of: &site_of,
        arity: &arity,
        inside: vec![0; sites.len()],
        uses: (0..sites.len()).map(|_| Vec::new()).collect(),
    };
    for dec in &elab.decs {
        g.dec(dec);
    }
    let uses = g.uses;
    let new_insts: Vec<Vec<Vec<Ty>>> = sites
        .iter()
        .zip(uses)
        .map(|(site, uses)| minimize_site(elab, site, uses))
        .collect();
    if new_insts.iter().all(Vec::is_empty) {
        return;
    }
    let mut r = Rewrite {
        site_of: &site_of,
        arity: &arity,
        new_insts: new_insts.into_iter().map(Vec::into_iter).collect(),
    };
    for dec in &mut elab.decs {
        r.dec(dec);
    }
}

/// `site_of`'s entry for a variable no candidate declaration binds.
const NO_SITE: u32 = u32::MAX;

/// The site a declaration binds the variables of, if it is one.
fn site_of_dec(dec: &TDec, site_of: &[u32]) -> Option<usize> {
    let var = match dec {
        TDec::PolyVal { var, .. } => var,
        TDec::Fun { vars, .. } => vars.first()?,
        _ => return None,
    };
    match site_of.get(var.0 as usize) {
        Some(&s) if s != NO_SITE => Some(s as usize),
        _ => None,
    }
}

/// The site whose variable a local `Var` occurrence with `n_inst` type
/// arguments uses, if that is the site's arity and not zero (a
/// monomorphic site has nothing to minimize).
fn site_of_use(access: &Access, n_inst: usize, site_of: &[u32], arity: &[usize]) -> Option<usize> {
    if !access.is_local() {
        return None;
    }
    let s = *site_of.get(access.root().0 as usize)?;
    (s != NO_SITE && n_inst > 0 && arity[s as usize] == n_inst).then_some(s as usize)
}

/// Identifies one candidate declaration by the variables it binds.
#[derive(Debug, Clone)]
struct Site {
    vars: Vec<VarId>,
}

/// Walks declarations, recording candidate sites in uses-before-defs
/// order: for a declaration list, later declarations first; for each
/// declaration, the declaration itself before the candidates nested
/// inside its right-hand side.
fn collect_sites(decs: &[TDec], path: &mut Vec<VarId>, out: &mut Vec<Site>) {
    for dec in decs.iter().rev() {
        match dec {
            TDec::PolyVal { var, exp } => {
                out.push(Site { vars: vec![*var] });
                collect_exp_sites(exp, out);
            }
            TDec::Fun { vars, exps } => {
                out.push(Site { vars: vars.clone() });
                for e in exps {
                    collect_exp_sites(e, out);
                }
            }
            TDec::Val { exp, .. } => collect_exp_sites(exp, out),
            TDec::Exception { .. } => {}
            TDec::Structure { def, .. } | TDec::Functor { body: def, .. } => {
                collect_str_sites(def, path, out)
            }
        }
    }
}

fn collect_str_sites(se: &TStrExp, path: &mut Vec<VarId>, out: &mut Vec<Site>) {
    match se {
        TStrExp::Struct { decs, .. } => collect_sites(decs, path, out),
        TStrExp::Access(_) => {}
        TStrExp::Thin { base, .. } => collect_str_sites(base, path, out),
        TStrExp::FctApp { arg, .. } => collect_str_sites(arg, path, out),
    }
}

fn collect_exp_sites(exp: &TExp, out: &mut Vec<Site>) {
    match &exp.kind {
        TExpKind::Let(decs, body) => {
            collect_exp_sites(body, out);
            collect_sites(decs, &mut Vec::new(), out);
        }
        TExpKind::Record(fs) => fs.iter().for_each(|(_, e)| collect_exp_sites(e, out)),
        TExpKind::Select { arg, .. } => collect_exp_sites(arg, out),
        TExpKind::App(f, a) => {
            collect_exp_sites(f, out);
            collect_exp_sites(a, out);
        }
        TExpKind::Fn { rules, .. } => rules.iter().for_each(|r| collect_exp_sites(&r.exp, out)),
        TExpKind::Case(s, rules) => {
            collect_exp_sites(s, out);
            rules.iter().for_each(|r| collect_exp_sites(&r.exp, out));
        }
        TExpKind::If(a, b, c) => {
            collect_exp_sites(a, out);
            collect_exp_sites(b, out);
            collect_exp_sites(c, out);
        }
        TExpKind::While(a, b) => {
            collect_exp_sites(a, out);
            collect_exp_sites(b, out);
        }
        TExpKind::Seq(es) => es.iter().for_each(|e| collect_exp_sites(e, out)),
        TExpKind::Raise(e) => collect_exp_sites(e, out),
        TExpKind::Handle(e, rules) => {
            collect_exp_sites(e, out);
            rules.iter().for_each(|r| collect_exp_sites(&r.exp, out));
        }
        _ => {}
    }
}

/// Gathered occurrence of a candidate variable: whether it lies inside the
/// candidate's own declaration (a recursive use).
struct Use {
    internal: bool,
    inst: Vec<Ty>,
}

/// Minimizes one site given all its uses, in the order the program
/// walk meets them; returns each use's new instantiation vector, or
/// nothing when the site keeps its scheme.
fn minimize_site(elab: &mut Elaboration, site: &Site, uses: Vec<Use>) -> Vec<Vec<Ty>> {
    let first = site.vars[0];
    let scheme = elab.vars.scheme(first).clone();
    if scheme.arity() == 0 {
        return Vec::new();
    }
    if site.vars.iter().any(|v| elab.vars.info(*v).exported) {
        return Vec::new();
    }

    // Pass 1 (done for every site at once): all uses.
    let externals: Vec<&Use> = uses.iter().filter(|u| !u.internal).collect();
    if externals.is_empty() {
        return Vec::new();
    }

    // Pass 2: per-position least common generalization over external
    // uses, with a shared disagreement table.
    let tys = &mut elab.types;
    let mut au = AntiUnifier::new(0);
    let subst: Vec<Ty> = (0..scheme.arity())
        .map(|i| {
            let col: Vec<Ty> = externals.iter().map(|u| u.inst[i]).collect();
            au.lcg(tys, &col)
        })
        .collect();
    let n_ext = externals.len();
    drop(externals);

    // Link the old generic variables to their LCGs; shared annotations
    // inside the declaration bodies update through the variables.
    for (g, &s) in scheme.generics().iter().zip(&subst) {
        tys.set_tv(g.cell, Tv::Link(s));
    }

    // The disagreement variables become the new generic variables.
    let disagreements = au.into_disagreements();
    let generics: Vec<Generic> = disagreements
        .iter()
        .enumerate()
        .map(|(k, d)| {
            tys.set_tv(d.var, Tv::Gen(k as u32));
            Generic {
                cell: d.var,
                eq: false,
            }
        })
        .collect();
    let identity: Vec<Ty> = generics.iter().map(|g| tys.var_ty(g.cell)).collect();
    let new_scheme = Scheme::poly(scheme.body, generics);
    for v in &site.vars {
        let info = elab.vars.info_mut(*v);
        info.scheme = new_scheme.with_body(info.scheme.body);
    }

    // Pass 3: new instantiation vectors. External use j gets the
    // disagreement values at j; internal (recursive) uses get the new
    // identity. The rewriting walk puts them in place.
    let mut new_insts: Vec<Vec<Ty>> = Vec::with_capacity(uses.len());
    let mut ext_idx = 0usize;
    for u in &uses {
        if u.internal {
            new_insts.push(identity.clone());
        } else {
            new_insts.push(disagreements.iter().map(|d| d.uses[ext_idx]).collect());
            ext_idx += 1;
        }
    }
    debug_assert_eq!(ext_idx, n_ext);
    new_insts
}

/// Immutable gathering walk: the uses of every site's variables, each
/// under its site. Visit order must match [`Rewrite`] exactly.
struct Gather<'a> {
    site_of: &'a [u32],
    arity: &'a [usize],
    /// How many declarations of each site the walk is inside.
    inside: Vec<u32>,
    uses: Vec<Vec<Use>>,
}

impl Gather<'_> {
    fn dec(&mut self, dec: &TDec) {
        let owner = site_of_dec(dec, self.site_of);
        if let Some(s) = owner {
            self.inside[s] += 1;
        }
        match dec {
            TDec::Val { exp, .. } | TDec::PolyVal { exp, .. } => self.exp(exp),
            TDec::Fun { exps, .. } => exps.iter().for_each(|e| self.exp(e)),
            TDec::Exception { .. } => {}
            TDec::Structure { def, .. } | TDec::Functor { body: def, .. } => self.strexp(def),
        }
        if let Some(s) = owner {
            self.inside[s] -= 1;
        }
    }

    fn strexp(&mut self, se: &TStrExp) {
        match se {
            TStrExp::Struct { decs, .. } => decs.iter().for_each(|d| self.dec(d)),
            TStrExp::Access(_) => {}
            TStrExp::Thin { base, .. } => self.strexp(base),
            TStrExp::FctApp { arg, .. } => self.strexp(arg),
        }
    }

    fn exp(&mut self, exp: &TExp) {
        match &exp.kind {
            TExpKind::Var { access, inst, .. } => {
                if let Some(s) = site_of_use(access, inst.len(), self.site_of, self.arity) {
                    self.uses[s].push(Use {
                        internal: self.inside[s] > 0,
                        inst: inst.clone(),
                    });
                }
            }
            TExpKind::Int(_)
            | TExpKind::Real(_)
            | TExpKind::Str(_)
            | TExpKind::Char(_)
            | TExpKind::Prim { .. }
            | TExpKind::Con { .. } => {}
            TExpKind::Record(fs) => fs.iter().for_each(|(_, e)| self.exp(e)),
            TExpKind::Select { arg, .. } => self.exp(arg),
            TExpKind::App(f, a) => {
                self.exp(f);
                self.exp(a);
            }
            TExpKind::Fn { rules, .. } => rules.iter().for_each(|r| self.exp(&r.exp)),
            TExpKind::Case(s, rules) => {
                self.exp(s);
                rules.iter().for_each(|r| self.exp(&r.exp));
            }
            TExpKind::If(a, b, c) => {
                self.exp(a);
                self.exp(b);
                self.exp(c);
            }
            TExpKind::While(a, b) => {
                self.exp(a);
                self.exp(b);
            }
            TExpKind::Seq(es) => es.iter().for_each(|e| self.exp(e)),
            TExpKind::Let(decs, body) => {
                decs.iter().for_each(|d| self.dec(d));
                self.exp(body);
            }
            TExpKind::Raise(e) => self.exp(e),
            TExpKind::Handle(e, rules) => {
                self.exp(e);
                rules.iter().for_each(|r| self.exp(&r.exp));
            }
        }
    }
}

/// Mutable rewriting walk; must visit uses in the same order as
/// [`Gather`]. Each use of a minimized site takes that site's next new
/// instantiation vector.
struct Rewrite<'a> {
    site_of: &'a [u32],
    arity: &'a [usize],
    new_insts: Vec<std::vec::IntoIter<Vec<Ty>>>,
}

impl Rewrite<'_> {
    fn dec(&mut self, dec: &mut TDec) {
        match dec {
            TDec::Val { exp, .. } | TDec::PolyVal { exp, .. } => self.exp(exp),
            TDec::Fun { exps, .. } => exps.iter_mut().for_each(|e| self.exp(e)),
            TDec::Exception { .. } => {}
            TDec::Structure { def, .. } | TDec::Functor { body: def, .. } => self.strexp(def),
        }
    }

    fn strexp(&mut self, se: &mut TStrExp) {
        match se {
            TStrExp::Struct { decs, .. } => decs.iter_mut().for_each(|d| self.dec(d)),
            TStrExp::Access(_) => {}
            TStrExp::Thin { base, .. } => self.strexp(base),
            TStrExp::FctApp { arg, .. } => self.strexp(arg),
        }
    }

    fn exp(&mut self, exp: &mut TExp) {
        match &mut exp.kind {
            TExpKind::Var { access, inst, .. } => {
                if let Some(s) = site_of_use(access, inst.len(), self.site_of, self.arity) {
                    if let Some(new) = self.new_insts[s].next() {
                        *inst = new;
                    }
                }
            }
            TExpKind::Int(_)
            | TExpKind::Real(_)
            | TExpKind::Str(_)
            | TExpKind::Char(_)
            | TExpKind::Prim { .. }
            | TExpKind::Con { .. } => {}
            TExpKind::Record(fs) => fs.iter_mut().for_each(|(_, e)| self.exp(e)),
            TExpKind::Select { arg, .. } => self.exp(arg),
            TExpKind::App(f, a) => {
                self.exp(f);
                self.exp(a);
            }
            TExpKind::Fn { rules, .. } => rules.iter_mut().for_each(|r| self.exp(&mut r.exp)),
            TExpKind::Case(s, rules) => {
                self.exp(s);
                rules.iter_mut().for_each(|r| self.exp(&mut r.exp));
            }
            TExpKind::If(a, b, c) => {
                self.exp(a);
                self.exp(b);
                self.exp(c);
            }
            TExpKind::While(a, b) => {
                self.exp(a);
                self.exp(b);
            }
            TExpKind::Seq(es) => es.iter_mut().for_each(|e| self.exp(e)),
            TExpKind::Let(decs, body) => {
                decs.iter_mut().for_each(|d| self.dec(d));
                self.exp(body);
            }
            TExpKind::Raise(e) => self.exp(e),
            TExpKind::Handle(e, rules) => {
                self.exp(e);
                rules.iter_mut().for_each(|r| self.exp(&mut r.exp));
            }
        }
    }
}
