//! Property tests for the heap and collector: random object graphs
//! survive collections intact.

use sml_testkit::{run_cases, Rng};
use sml_vm::heap::{tag_int, untag_int, GcKind, GcMode, Heap, HeapConfig, ObjKind};

/// A randomly configured heap: generational (with a small nursery and a
/// random promotion threshold, so collections promote eagerly) or the
/// semispace reference collector.
fn gen_heap(rng: &mut Rng) -> Heap {
    let generational = rng.range_usize(0, 4) > 0;
    Heap::new(&HeapConfig {
        mode: if generational {
            GcMode::Generational
        } else {
            GcMode::Semispace
        },
        // Large enough that building the graph plus garbage never fills
        // the nursery (the builder only collects explicitly).
        nursery_words: 1 << rng.range_usize(11, 14),
        tenured_words: 1 << 16,
        promote_after: rng.range_usize(1, 4) as u32,
        static_words: 1 << 10,
        max_pause_cycles: 0,
    })
}

/// A recipe for building a small object graph.
#[derive(Debug, Clone)]
enum Node {
    Int(i32),
    Float(f64),
    Record(Vec<Node>),
    Str(String),
}

fn gen_node(rng: &mut Rng, depth: usize) -> Node {
    if depth == 0 || rng.range_usize(0, 10) < 4 {
        return match rng.range_usize(0, 3) {
            0 => Node::Int(rng.range_i32(-1000, 1000)),
            1 => Node::Float(rng.f64_in(-1e6, 1e6)),
            _ => Node::Str(rng.lowercase_string(12)),
        };
    }
    let n = rng.range_usize(0, 4);
    Node::Record((0..n).map(|_| gen_node(rng, depth - 1)).collect())
}

/// Builds the graph in the heap; returns the root word.
fn build(h: &mut Heap, n: &Node) -> u32 {
    match n {
        Node::Int(i) => tag_int(*i as i64),
        Node::Float(x) => {
            let p = h.alloc(ObjKind::BoxedFloat, 0, 1).unwrap();
            h.store_f64(p, 0, *x);
            p
        }
        Node::Str(s) => h.alloc_string(s).unwrap(),
        Node::Record(fields) => {
            // Words first, floats raw after (the record layout).
            let words: Vec<&Node> = fields
                .iter()
                .filter(|f| !matches!(f, Node::Float(_)))
                .collect();
            let floats: Vec<&Node> = fields
                .iter()
                .filter(|f| matches!(f, Node::Float(_)))
                .collect();
            let built: Vec<u32> = words.iter().map(|f| build(h, f)).collect();
            let p = h
                .alloc(ObjKind::Record, words.len() as u32, floats.len() as u32)
                .unwrap();
            for (i, w) in built.iter().enumerate() {
                h.store(p, i, *w);
            }
            for (j, f) in floats.iter().enumerate() {
                let Node::Float(x) = f else { unreachable!() };
                h.store_f64(p, words.len() + 2 * j, *x);
            }
            p
        }
    }
}

/// Checks the graph against the recipe.
fn verify(h: &Heap, n: &Node, w: u32) -> Result<(), String> {
    match n {
        Node::Int(i) => {
            if untag_int(w) == *i as i64 {
                Ok(())
            } else {
                Err(format!("int {} != {}", untag_int(w), i))
            }
        }
        Node::Float(x) => {
            let got = h.load_f64(w, 0);
            if got == *x {
                Ok(())
            } else {
                Err(format!("float {got} != {x}"))
            }
        }
        Node::Str(s) => {
            let got = h.read_string(w);
            if &got == s {
                Ok(())
            } else {
                Err(format!("str {got:?} != {s:?}"))
            }
        }
        Node::Record(fields) => {
            let words: Vec<&Node> = fields
                .iter()
                .filter(|f| !matches!(f, Node::Float(_)))
                .collect();
            let floats: Vec<&Node> = fields
                .iter()
                .filter(|f| matches!(f, Node::Float(_)))
                .collect();
            for (i, f) in words.iter().enumerate() {
                verify(h, f, h.load(w, i))?;
            }
            for (j, f) in floats.iter().enumerate() {
                let Node::Float(x) = f else { unreachable!() };
                let got = h.load_f64(w, words.len() + 2 * j);
                if got != *x {
                    return Err(format!("raw float {got} != {x}"));
                }
            }
            Ok(())
        }
    }
}

#[test]
fn graphs_survive_collection() {
    run_cases("graphs_survive_collection", 48, |rng| {
        let n = gen_node(rng, 4);
        let garbage = rng.range_usize(0, 200);
        let mut h = gen_heap(rng);
        let mut root = build(&mut h, &n);
        // Interleave garbage.
        for i in 0..garbage {
            let g = h.alloc(ObjKind::Record, 1, 0).unwrap();
            h.store(g, 0, tag_int(i as i64));
        }
        // A random interleaving of minor and major collections (with
        // promotion in between) must preserve the whole graph.
        for _ in 0..rng.range_usize(2, 5) {
            let kind = if rng.range_usize(0, 3) == 0 {
                GcKind::Major
            } else {
                GcKind::Minor
            };
            assert!(h.collect([&mut root], kind), "collection overflowed");
            assert!(verify(&h, &n, root).is_ok(), "{:?}", verify(&h, &n, root));
        }
    });
}

#[test]
fn poly_eq_agrees_with_recipe_equality() {
    run_cases("poly_eq_agrees_with_recipe_equality", 48, |rng| {
        let a = gen_node(rng, 4);
        let b = gen_node(rng, 4);
        let mut h = gen_heap(rng);
        let wa = build(&mut h, &a);
        let wa2 = build(&mut h, &a);
        let wb = build(&mut h, &b);
        // Structural equality must at least be reflexive across copies.
        assert!(h.poly_eq(wa, wa2).0, "copies of the same recipe are equal");
        // And symmetric with b.
        assert_eq!(h.poly_eq(wa, wb).0, h.poly_eq(wb, wa).0);
    });
}
