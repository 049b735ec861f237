//! SCC partitioner edge cases, and the `components` object a
//! whole-program compile still reports.
//!
//! The partitioner groups declarations the way `docs/ARCHITECTURE.md`
//! specifies: mutual recursion fuses, shadowing splits, and signatures
//! fuse forward. Elaboration itself is whole-program, so every compile
//! reports the v5 `components` object disabled and zeroed.

use smlc::{partition, ComponentGraph, ComponentStats, Session};

fn graph(src: &str) -> ComponentGraph {
    partition(&sml_ast::parse(src).unwrap())
}

// ---------------------------------------------------------------------
// Partitioner edge cases
// ---------------------------------------------------------------------

#[test]
fn mutually_recursive_and_is_one_component() {
    let g = graph(
        "fun even n = if n = 0 then true else odd (n - 1) \
         and odd n = if n = 0 then false else even (n - 1) \
         val x = even 4",
    );
    assert_eq!(g.len(), 2, "an `and` group is one declaration, one SCC");
    assert_eq!(g.components[1].deps, vec![0]);
    assert_eq!(g.topo_depth, 2);
}

#[test]
fn mutually_recursive_datatypes_are_one_component() {
    let g = graph(
        "datatype tree = Leaf of int | Node of forest \
         and forest = Empty | Cons of tree * forest \
         fun size t = case t of Leaf _ => 1 | Node f => sizes f \
         and sizes f = case f of Empty => 0 | Cons (t, r) => size t + sizes r \
         val n = size (Node (Cons (Leaf 1, Empty)))",
    );
    assert_eq!(g.len(), 3);
    assert_eq!(
        g.components[1].deps,
        vec![0],
        "funs depend on the datatypes"
    );
    assert_eq!(
        g.components[2].deps,
        vec![0, 1],
        "the use site reads both the constructors and the funs"
    );
}

/// Shadowing: a redefinition of `x` reads the *previous* `x`, so the
/// partition must split at the rebinding (three components, each
/// depending only on its immediate predecessor), not fuse into one.
#[test]
fn shadowing_redefinition_splits_components() {
    let g = graph("val x = 1 val x = x + 1 val y = x");
    assert_eq!(g.len(), 3, "shadowing must not fuse declarations");
    assert_eq!(g.components[1].deps, vec![0]);
    assert_eq!(
        g.components[2].deps,
        vec![1],
        "the use of `x` resolves to the nearest (shadowing) binder"
    );
}

/// A `signature` has no runtime content; it fuses forward with the
/// `structure` (or `functor`) that first consumes it so a component
/// never splits an ascription from its signature.
#[test]
fn signature_fuses_with_structure_and_functor() {
    let g = graph(
        "signature SIG = sig val item : int end \
         structure S : SIG = struct val item = 3 end \
         val a = S.item \
         signature FSIG = sig val item : int end \
         functor F (X : FSIG) = struct val v = X.item + 1 end \
         structure T = F (S) \
         val b = T.v",
    );
    // sig+S | a | fsig+F | T | b
    assert_eq!(g.len(), 5, "each signature fuses with its consumer");
    assert_eq!(g.components[0].decs, 0..2);
    assert_eq!(g.components[2].decs, 3..5);
    assert_eq!(g.components[3].deps, vec![0, 2], "T = F(S) reads both");
}

// ---------------------------------------------------------------------
// The v5 `components` object
// ---------------------------------------------------------------------

#[test]
fn whole_program_session_reports_disabled_stats() {
    let s = Session::default();
    let c = s
        .compile("fun id x = x\nval a = id 1\nval _ = print (itos a)")
        .unwrap();
    assert_eq!(c.stats.components, ComponentStats::default());
    assert!(!c.stats.components.enabled);
}
