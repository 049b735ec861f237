//! SCC partitioning of the top-level declaration dependency graph.
//!
//! [`partition`] builds a dependency graph over a program's top-level
//! declarations from the purely syntactic name extraction in
//! [`sml_ast::dec_names`], collapses it with Tarjan's SCC algorithm,
//! fuses each `signature` declaration into the component of the
//! declaration that follows it (a signature is inert until something is
//! ascribed to it), and normalizes the result into *contiguous,
//! source-ordered* declaration ranges. Mutual recursion via `and`
//! (`fun f .. and g ..`, `datatype t .. and u ..`) is a single
//! declaration in the AST, so it lands in one component by
//! construction; Tarjan guards the invariant for any cyclic shape the
//! extractor may report.
//!
//! The partition is an analysis only: elaboration always runs over the
//! whole program (see `docs/ARCHITECTURE.md` §5).

use sml_ast::{self as ast, dec_names, DecKind, Symbol};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The `components` object of the metrics schema (v5); see
/// `docs/OBSERVABILITY.md`.
///
/// Elaboration is whole-program, so every compile reports
/// `enabled: false` and zero counters. The type and its fields are kept
/// so v5 readers of `--stats=json` and of server responses keep their
/// shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentStats {
    /// Whether the compile ran a component-wise elaboration path;
    /// always false.
    pub enabled: bool,
    /// Number of components the compile partitioned into; always 0.
    pub scc_count: usize,
    /// Components re-elaborated this compile; always 0.
    pub recompiled: usize,
    /// Components served from cached checkpoints; always 0.
    pub cache_hits: usize,
    /// Length of the longest dependency chain; always 0.
    pub topo_depth: usize,
}

/// One component: a contiguous run of top-level declarations.
#[derive(Clone, Debug)]
pub struct Component {
    /// The half-open range of top-level declaration indices.
    pub decs: Range<usize>,
    /// Indices of earlier components this one references (deduplicated,
    /// ascending).
    pub deps: Vec<usize>,
}

/// The partition of a program into ordered components.
#[derive(Clone, Debug, Default)]
pub struct ComponentGraph {
    /// Components in source (and hence topological) order.
    pub components: Vec<Component>,
    /// Length of the longest dependency chain (0 for an empty program).
    pub topo_depth: usize,
}

impl ComponentGraph {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Dependency edges of each declaration on *earlier* declarations, from
/// the syntactic name extraction. Namespaced binder maps track the
/// latest declaration binding each name, so shadowing splits
/// components: a reference reaches the most recent binder only.
fn dec_edges(decs: &[ast::Dec]) -> Vec<Vec<usize>> {
    let names: Vec<_> = decs.iter().map(dec_names).collect();
    let mut latest_val: HashMap<Symbol, usize> = HashMap::new();
    let mut latest_ty: HashMap<Symbol, usize> = HashMap::new();
    let mut latest_str: HashMap<Symbol, usize> = HashMap::new();
    let mut latest_sig: HashMap<Symbol, usize> = HashMap::new();
    let mut latest_fct: HashMap<Symbol, usize> = HashMap::new();
    // Names currently bound as constructors (so a bare pattern name can
    // be recognized as a constructor *reference* rather than a binder).
    let mut cons: HashSet<Symbol> = HashSet::new();
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(decs.len());
    for (i, n) in names.iter().enumerate() {
        let mut dep: HashSet<usize> = HashSet::new();
        let reach = |map: &HashMap<Symbol, usize>, name: &Symbol| {
            map.get(name).copied().filter(|&j| j != i)
        };
        for name in &n.refs_vals {
            dep.extend(reach(&latest_val, name));
        }
        for name in &n.refs_tys {
            dep.extend(reach(&latest_ty, name));
        }
        for name in &n.refs_strs {
            dep.extend(reach(&latest_str, name));
        }
        for name in &n.refs_sigs {
            dep.extend(reach(&latest_sig, name));
        }
        for name in &n.refs_fcts {
            dep.extend(reach(&latest_fct, name));
        }
        for name in &n.pat_vars {
            if cons.contains(name) {
                dep.extend(reach(&latest_val, name));
            }
        }
        // Now install this declaration's binders (after resolving its
        // own references, so `val x = x + 1` reaches the previous x).
        for name in &n.binds_vals {
            // A bare pattern name that is a known constructor matches
            // rather than binds; it must not shadow the constructor.
            if n.pat_vars.contains(name) && cons.contains(name) && !n.binds_cons.contains(name) {
                continue;
            }
            latest_val.insert(*name, i);
            if n.binds_cons.contains(name) {
                cons.insert(*name);
            } else {
                cons.remove(name);
            }
        }
        for name in &n.binds_tys {
            latest_ty.insert(*name, i);
        }
        for name in &n.binds_strs {
            latest_str.insert(*name, i);
        }
        for name in &n.binds_sigs {
            latest_sig.insert(*name, i);
        }
        for name in &n.binds_fcts {
            latest_fct.insert(*name, i);
        }
        let mut dep: Vec<usize> = dep.into_iter().collect();
        dep.sort_unstable();
        edges.push(dep);
    }
    edges
}

/// Iterative Tarjan strongly-connected components. Returns each
/// declaration's SCC id; ids are arbitrary but equal within an SCC.
fn tarjan_sccs(edges: &[Vec<usize>]) -> Vec<usize> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc_of = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_scc = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*child) {
                *child += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    scc_of
}

/// Partitions a program into ordered components; see the module docs.
pub fn partition(prog: &ast::Program) -> ComponentGraph {
    let decs = &prog.decs;
    let edges = dec_edges(decs);
    let scc_of = tarjan_sccs(&edges);

    // Group declarations by SCC, then fuse each `signature` declaration
    // forward into the immediately following declaration's group.
    let mut group_of: Vec<usize> = scc_of.clone();
    for i in 0..decs.len() {
        if matches!(decs[i].kind, DecKind::Signature(_)) && i + 1 < decs.len() {
            let from = group_of[i];
            let to = group_of[i + 1];
            for g in group_of.iter_mut() {
                if *g == from {
                    *g = to;
                }
            }
        }
    }

    // Normalize to contiguous source-ordered ranges: every group spans
    // the interval [first member, last member]; interleaving groups have
    // overlapping intervals, so a standard interval-merge sweep yields
    // disjoint, contiguous, source-ordered components covering all decs.
    let mut span_of: HashMap<usize, (usize, usize)> = HashMap::new();
    for (i, &g) in group_of.iter().enumerate() {
        let span = span_of.entry(g).or_insert((i, i));
        span.1 = i;
    }
    let mut intervals: Vec<(usize, usize)> = span_of.values().copied().collect();
    intervals.sort_unstable();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        match ranges.last_mut() {
            Some(last) if last.end > lo => last.end = last.end.max(hi + 1),
            _ => ranges.push(lo..hi + 1),
        }
    }

    // Component-level dependency edges and depths.
    let mut comp_of_dec = vec![0usize; decs.len()];
    for (c, r) in ranges.iter().enumerate() {
        for d in r.clone() {
            comp_of_dec[d] = c;
        }
    }
    let mut components: Vec<Component> = Vec::with_capacity(ranges.len());
    let mut depth: Vec<usize> = Vec::with_capacity(ranges.len());
    let mut topo_depth = 0usize;
    for (c, r) in ranges.iter().enumerate() {
        let mut deps: HashSet<usize> = HashSet::new();
        for d in r.clone() {
            for &e in &edges[d] {
                let dc = comp_of_dec[e];
                if dc != c {
                    deps.insert(dc);
                }
            }
        }
        let mut deps: Vec<usize> = deps.into_iter().collect();
        deps.sort_unstable();
        let d = 1 + deps.iter().map(|&p| depth[p]).max().unwrap_or(0);
        depth.push(d);
        topo_depth = topo_depth.max(d);
        components.push(Component {
            decs: r.clone(),
            deps,
        });
    }
    ComponentGraph {
        components,
        topo_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> ComponentGraph {
        partition(&sml_ast::parse(src).unwrap())
    }

    #[test]
    fn independent_decs_are_separate_components() {
        let g = graph("val a = 1 val b = 2 val c = a + 1");
        assert_eq!(g.len(), 3);
        assert_eq!(g.components[2].deps, vec![0]);
        assert_eq!(g.topo_depth, 2);
    }

    #[test]
    fn signature_fuses_with_following_structure() {
        let g = graph(
            "val unrelated = 0 \
             signature SIG = sig val x : int end \
             structure S : SIG = struct val x = 1 end \
             val y = S.x",
        );
        assert_eq!(g.len(), 3, "sig + structure must form one component");
        assert_eq!(g.components[1].decs, 1..3);
        assert_eq!(g.components[2].deps, vec![1]);
    }
}
