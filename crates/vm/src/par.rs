//! The workspace's one worker pool: scoped threads on one documented
//! stack size. [`par_map`] drives `Session::compile_batch`, the bench
//! matrix's run phase and [`crate::VmScheduler::run_all`]'s run-ahead;
//! the compile server and the `smlc` CLI start their threads with
//! [`spawn_compile_thread`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// The stack size of every thread the workspace starts to work on: the
/// compile server's workers, the `smlc` CLI's thread and [`par_map`]'s
/// workers. The elaborator, `translate` and CPS conversion recurse once
/// per element of a flat source shape (an infix chain, a list literal,
/// a declaration sequence), so the stack bounds the widest program a
/// thread compiles. On std's 2 MiB default a release-built server
/// aborted on a 300-term `+` chain.
const COMPILE_STACK_BYTES: usize = 8 << 20;

/// Starts a scoped thread with an 8 MiB (`COMPILE_STACK_BYTES`) stack.
///
/// # Panics
///
/// Panics if the operating system cannot start the thread, as
/// `Scope::spawn` does.
pub fn spawn_compile_thread<'scope, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .stack_size(COMPILE_STACK_BYTES)
        .spawn_scoped(s, f)
        .expect("failed to spawn a compile thread")
}

/// Order-preserving parallel map over a slice: `workers` threads
/// (0 = available parallelism, capped at the item count) pull indices
/// from a shared atomic counter and results are reassembled in input
/// order, so the output is deterministic for a deterministic `f`. The
/// calling thread is one of the workers, so only `workers - 1` threads
/// start, each by [`spawn_compile_thread`]; with one worker
/// (or one item) this is a plain in-order loop on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers finish.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            out.push((i, f(i, &items[i])));
        }
        out
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers)
            .map(|_| spawn_compile_thread(s, work))
            .collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().expect("par_map worker panicked"));
        }
        done
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [0, 1, 3, 16] {
            let out = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }
}
