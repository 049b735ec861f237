//! Short programs whose types are exponentially large as trees but small
//! as shared DAGs: elaboration and minimum typing must work in
//! proportion to the shared type.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Parses, elaborates and minimum-types `src` on its own thread, and
/// returns the number of type nodes the compile's store holds, or fails
/// if that takes longer than `limit`.
fn type_nodes_within(src: String, limit: Duration) -> usize {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let prog = sml_ast::parse(&src).expect("parses");
        let mut elab = sml_elab::elaborate(&prog).expect("elaborates");
        sml_elab::minimum_typing(&mut elab);
        let _ = tx.send(elab.types.len());
    });
    rx.recv_timeout(limit)
        .expect("elaboration finishes in time")
}

/// `fun p x = (x, x)` applied `n` times: the type of `r` has `2^n`
/// leaves as a tree and `n` levels shared.
fn pair_tower(n: usize) -> String {
    format!(
        "fun p x = (x, x)\nval r = {}1{}",
        "p (".repeat(n),
        ")".repeat(n)
    )
}

#[test]
fn a_pair_tower_elaborates_in_its_shared_size() {
    let limit = Duration::from_secs(10);
    let nodes: Vec<usize> = [10, 20, 40]
        .iter()
        .map(|&n| type_nodes_within(pair_tower(n), limit))
        .collect();
    // Every application adds the same number of nodes.
    let (d1, d2) = (nodes[1] - nodes[0], nodes[2] - nodes[1]);
    assert_eq!(d2, 2 * d1, "nodes for n = 10, 20, 40: {nodes:?}");
}

#[test]
fn doubling_functions_elaborate_in_their_shared_size() {
    // f6's type has 2^32 leaves as a tree.
    let src = "fun f1 x = (x, x)\n\
               fun f2 x = f1 (f1 x)\n\
               fun f3 x = f2 (f2 x)\n\
               fun f4 x = f3 (f3 x)\n\
               fun f5 x = f4 (f4 x)\n\
               fun f6 x = f5 (f5 x)\n\
               val r = f6 1";
    let nodes = type_nodes_within(src.to_owned(), Duration::from_secs(10));
    assert!(nodes < 1_000, "{nodes} type nodes");
}
