//! The process's global allocator: a per-thread cache of small blocks in
//! front of [`System`].
//!
//! A compile builds each IR as a tree of small nodes and drops the tree
//! whole once the next phase has read it: about 15,900 allocations per
//! figure compile, 96.6% of them at most 1 KiB. glibc's own per-thread
//! cache keeps 7 freed blocks per size, so most of those frees, and the
//! next phase's allocations, take the locked arena path. This allocator
//! keeps a free list per size class on each thread instead, so the next
//! node of a size takes the block the last dead node of that size left.
//!
//! - A layout of at most [`MAX_SMALL`] bytes and alignment at most
//!   [`MAX_ALIGN`] is *small*. It takes the head of its class's list on
//!   the calling thread, or a fresh block that [`System`] hands out at
//!   the class size.
//! - Every other layout goes straight to [`System`]. So does a large
//!   zeroed one: `calloc` leaves untouched pages unmapped, which the VM
//!   heap's mostly unused tenured space relies on.
//! - Every cached block is one that [`System`] handed out at its class
//!   size, so any block can go back to [`System`] at any time. A free
//!   pushes the block onto the freeing thread's list, whichever thread
//!   allocated it. A push that would take the thread past
//!   [`THREAD_CACHE_BYTES`] returns the block to [`System`] instead, and
//!   a thread's exit returns its whole cache.
//! - The class sizes are glibc's chunk payload sizes (24, 40, 56, …,
//!   1,032 bytes), so a class block occupies the same chunk as a
//!   `malloc` of any request it serves.
//!
//! The cache is a const-initialised thread-local reached only through
//! `try_with`: an allocation during or after the thread's TLS teardown
//! goes to [`System`]. Nothing here panics or allocates.
//!
//! Because `smlc` installs it with `#[global_allocator]`, every program
//! that links `smlc` allocates through it and cannot install another.
//! [`thread_allocations`] reads the calling thread's allocation counts.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;

/// The largest small request, in bytes.
const MAX_SMALL: usize = 1024;
/// The largest small alignment: what `malloc` guarantees on 64-bit
/// targets.
const MAX_ALIGN: usize = 16;
/// The smallest class size: the payload of glibc's smallest chunk.
const MIN_CLASS: usize = 24;
/// The step between class sizes: glibc's chunk granularity.
const CLASS_STEP: usize = 16;
/// The number of size classes: 24, 40, …, 1,032 bytes.
const CLASSES: usize = class_of(MAX_SMALL) + 1;

/// The most bytes of free blocks one thread keeps. A figure compile asks
/// for about 1.4 MB of small blocks in all; in `compile-cold` sweeps the
/// median compile fell 9.5% with a 256 KiB bound, 13% with 1 MiB and
/// 22–25% with 4 MiB.
const THREAD_CACHE_BYTES: usize = 4 << 20;

/// The class serving requests of `size` bytes (at most [`MAX_SMALL`]).
const fn class_of(size: usize) -> usize {
    size.saturating_sub(MIN_CLASS - CLASS_STEP + 1) / CLASS_STEP
}

/// The block size of `class`.
const fn class_size(class: usize) -> usize {
    MIN_CLASS + class * CLASS_STEP
}

/// The layout a class block is allocated and freed with in [`System`].
fn class_layout(class: usize) -> Layout {
    // SAFETY: MAX_ALIGN is a power of two and a class size is at most
    // 1,032 bytes, far from overflowing `isize` when rounded up.
    unsafe { Layout::from_size_align_unchecked(class_size(class), MAX_ALIGN) }
}

/// The class of a small layout; `None` for one that goes to [`System`].
fn small(size: usize, align: usize) -> Option<usize> {
    (size <= MAX_SMALL && align <= MAX_ALIGN).then(|| class_of(size))
}

/// One thread's cache.
struct Cache {
    /// The head of each class's free list. A listed block's first word
    /// holds the address of the next one (null ends the list).
    heads: [Cell<*mut u8>; CLASSES],
    /// Bytes held in the lists.
    held: Cell<usize>,
    /// `alloc`, `alloc_zeroed` and `realloc` calls made on this thread,
    /// and the bytes they asked for.
    counts: Cell<(u64, u64)>,
}

impl Cache {
    const fn new() -> Cache {
        Cache {
            heads: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            held: Cell::new(0),
            counts: Cell::new((0, 0)),
        }
    }

    fn count(&self, bytes: usize) {
        let (n, b) = self.counts.get();
        self.counts
            .set((n.wrapping_add(1), b.wrapping_add(bytes as u64)));
    }

    /// Takes a block of `class` off its list, or null if it is empty.
    fn pop(&self, class: usize) -> *mut u8 {
        let head = &self.heads[class];
        let block = head.get();
        if !block.is_null() {
            // SAFETY: a listed block is a free class block, at least 24
            // bytes and 16-aligned, whose first word `push` wrote.
            head.set(unsafe { block.cast::<*mut u8>().read() });
            self.held.set(self.held.get() - class_size(class));
        }
        block
    }

    /// Lists a free block of `class`; false, listing nothing, when that
    /// would take the thread past [`THREAD_CACHE_BYTES`].
    fn push(&self, class: usize, block: *mut u8) -> bool {
        let held = self.held.get() + class_size(class);
        if held > THREAD_CACHE_BYTES {
            return false;
        }
        let head = &self.heads[class];
        // SAFETY: the block is a class block, at least 24 bytes and
        // 16-aligned, that its owner has just given up.
        unsafe { block.cast::<*mut u8>().write(head.get()) };
        head.set(block);
        self.held.set(held);
        true
    }

    /// Returns every listed block to [`System`]; the bytes returned.
    fn release(&self) -> usize {
        let held = self.held.get();
        for class in 0..CLASSES {
            loop {
                let block = self.pop(class);
                if block.is_null() {
                    break;
                }
                // SAFETY: every class block came from `System` with its
                // class layout.
                unsafe { System.dealloc(block, class_layout(class)) };
            }
        }
        held
    }
}

impl Drop for Cache {
    /// A thread's exit returns its whole cache to [`System`].
    fn drop(&mut self) {
        let _returned = self.release();
        #[cfg(test)]
        if tests::TRACE_EXIT.with(Cell::get) {
            tests::RETURNED_AT_EXIT.fetch_add(_returned, std::sync::atomic::Ordering::SeqCst);
        }
    }
}

thread_local! {
    static CACHE: Cache = const { Cache::new() };
}

/// The calling thread's allocation counts: how many `alloc`,
/// `alloc_zeroed` and `realloc` calls it has made, and the bytes they
/// asked for (a `realloc` counts its new size). The cache's own calls
/// into the system allocator are not counted.
///
/// # Examples
///
/// ```
/// let (calls, _) = smlc::thread_allocations();
/// let v = std::hint::black_box(vec![0u8; 100]);
/// assert_eq!(smlc::thread_allocations().0, calls + 1);
/// drop(v);
/// ```
pub fn thread_allocations() -> (u64, u64) {
    CACHE.try_with(|c| c.counts.get()).unwrap_or((0, 0))
}

/// Counts one entry call on the calling thread, if its cache is alive.
fn count(bytes: usize) {
    let _ = CACHE.try_with(|c| c.count(bytes));
}

/// Counts an entry call asking for `size` bytes and pops a block of a
/// small layout's `class`, in one access to the calling thread's cache.
/// Null on a miss, for a large layout or after TLS teardown.
fn count_and_pop(size: usize, class: Option<usize>) -> *mut u8 {
    CACHE
        .try_with(|c| {
            c.count(size);
            class.map_or(ptr::null_mut(), |k| c.pop(k))
        })
        .unwrap_or(ptr::null_mut())
}

/// The global allocator (see the module docs).
struct SmallBlocks;

#[global_allocator]
static GLOBAL: SmallBlocks = SmallBlocks;

// SAFETY: a small layout gets a class block, which is at least its size
// and 16-aligned, and owned by nobody else until it is freed; every
// other layout is `System`'s, with the caller's own arguments.
unsafe impl GlobalAlloc for SmallBlocks {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let class = small(layout.size(), layout.align());
        let block = count_and_pop(layout.size(), class);
        if !block.is_null() {
            return block;
        }
        // SAFETY: the caller's layout, or the class layout serving it;
        // both have a non-zero size.
        unsafe { System.alloc(class.map_or(layout, class_layout)) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let class = small(layout.size(), layout.align());
        let block = count_and_pop(layout.size(), class);
        if block.is_null() {
            // SAFETY: as in `alloc`; a large layout gets `calloc`'s
            // unmapped zero pages.
            return unsafe { System.alloc_zeroed(class.map_or(layout, class_layout)) };
        }
        // SAFETY: a popped block is ours and at least `layout.size()`
        // bytes.
        unsafe { block.write_bytes(0, layout.size()) };
        block
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match (
            small(layout.size(), layout.align()),
            small(new_size, layout.align()),
        ) {
            (None, None) => {
                count(new_size);
                // SAFETY: the caller's arguments, as `GlobalAlloc` requires.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
            (Some(a), Some(b)) if a == b => {
                count(new_size);
                ptr
            }
            _ => {
                // SAFETY: `realloc`'s caller guarantees that `new_size`
                // is non-zero and, rounded up to the alignment, does not
                // overflow `isize`.
                let new_layout =
                    unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
                // The move's `alloc` is the call's one count.
                // SAFETY: a valid layout of non-zero size.
                let fresh = unsafe { self.alloc(new_layout) };
                if !fresh.is_null() {
                    // SAFETY: both blocks are live and distinct, and each
                    // holds at least the bytes copied; then the caller's
                    // block and layout are freed.
                    unsafe {
                        ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
                        self.dealloc(ptr, layout);
                    }
                }
                fresh
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let Some(class) = small(layout.size(), layout.align()) else {
            // SAFETY: the caller's block and layout.
            return unsafe { System.dealloc(ptr, layout) };
        };
        if !CACHE.try_with(|c| c.push(class, ptr)).unwrap_or(false) {
            // SAFETY: every class block came from `System` with its class
            // layout.
            unsafe { System.dealloc(ptr, class_layout(class)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;

    thread_local! {
        /// Set on the one thread whose exit `RETURNED_AT_EXIT` records.
        pub(super) static TRACE_EXIT: Cell<bool> = const { Cell::new(false) };
    }
    /// Bytes the cache of a `TRACE_EXIT` thread returned at its exit.
    pub(super) static RETURNED_AT_EXIT: AtomicUsize = AtomicUsize::new(0);

    // The allocator's own methods, as `GlobalAlloc` defines them and
    // with its safety contract: the optimizer may drop a
    // `std::alloc::alloc` whose block nothing reads, with its `dealloc`.

    unsafe fn alloc(l: Layout) -> *mut u8 {
        // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract.
        unsafe { GLOBAL.alloc(l) }
    }

    unsafe fn alloc_zeroed(l: Layout) -> *mut u8 {
        // SAFETY: the caller keeps `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { GLOBAL.alloc_zeroed(l) }
    }

    unsafe fn realloc(p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller keeps `GlobalAlloc::realloc`'s contract.
        unsafe { GLOBAL.realloc(p, l, new_size) }
    }

    unsafe fn dealloc(p: *mut u8, l: Layout) {
        // SAFETY: the caller keeps `GlobalAlloc::dealloc`'s contract.
        unsafe { GLOBAL.dealloc(p, l) }
    }

    fn held() -> usize {
        CACHE.with(|c| c.held.get())
    }

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    /// Runs `f` on a thread of its own, so that nothing else allocates
    /// on it between the test's calls, starting with an empty cache.
    fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        thread::spawn(|| {
            CACHE.with(Cache::release);
            f()
        })
        .join()
        .unwrap()
    }

    /// The `n` bytes at `p`.
    ///
    /// # Safety
    ///
    /// `p` is valid for reads and writes of `n` bytes, and nothing else
    /// uses them while the slice lives.
    unsafe fn bytes<'a>(p: *mut u8, n: usize) -> &'a mut [u8] {
        // SAFETY: the caller's guarantee.
        unsafe { std::slice::from_raw_parts_mut(p, n) }
    }

    fn fill(bytes: &mut [u8], seed: u8) {
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = seed.wrapping_add(i as u8);
        }
    }

    fn holds(bytes: &[u8], seed: u8) -> bool {
        bytes
            .iter()
            .enumerate()
            .all(|(i, &b)| b == seed.wrapping_add(i as u8))
    }

    fn is_zero(bytes: &[u8]) -> bool {
        bytes.iter().all(|&b| b == 0)
    }

    #[test]
    fn classes_are_glibc_payload_sizes_up_to_one_kib() {
        assert_eq!(CLASSES, 64);
        for size in [1, 16, 17, 24] {
            assert_eq!(class_of(size), 0, "{size} bytes");
        }
        assert_eq!(class_of(25), 1);
        assert_eq!(class_size(1), 40);
        assert_eq!(class_of(1024), CLASSES - 1);
        assert_eq!(class_size(CLASSES - 1), 1032);
        for size in 1..=MAX_SMALL {
            let c = class_of(size);
            assert!(class_size(c) >= size, "{size} bytes fit their class");
            assert!(c == 0 || class_size(c - 1) < size, "{size}: smallest class");
        }
        assert_eq!(small(1025, 8), None);
        assert_eq!(small(16, 32), None);
    }

    #[test]
    fn class_boundaries_reuse_and_the_large_range_goes_to_system() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            // 1, 16, 17 and 24 bytes share the 24-byte class: the freed
            // 1-byte block serves each of them next.
            let p = alloc(layout(1, 1));
            dealloc(p, layout(1, 1));
            assert_eq!(held(), 24);
            for size in [16, 17, 24] {
                let q = alloc(layout(size, 8));
                assert_eq!(q, p, "{size} bytes reuse the 24-byte block");
                assert_eq!(held(), 0);
                dealloc(q, layout(size, 8));
            }
            // 25 bytes is the next class.
            let q = alloc(layout(25, 8));
            assert_ne!(q, p);
            dealloc(q, layout(25, 8));
            assert_eq!(held(), 24 + 40);
            // 1,024 bytes is cached in the 1,032-byte class, 1,025 is not.
            let big = alloc(layout(1024, 16));
            fill(bytes(big, 1024), 3);
            dealloc(big, layout(1024, 16));
            assert_eq!(held(), 24 + 40 + 1032);
            let large = alloc(layout(1025, 16));
            assert_ne!(large, big);
            fill(bytes(large, 1025), 5);
            dealloc(large, layout(1025, 16));
            assert_eq!(held(), 24 + 40 + 1032, "1,025 bytes is System's");
            assert_eq!(alloc(layout(1020, 16)), big);
            dealloc(big, layout(1020, 16));
        });
    }

    #[test]
    fn over_aligned_layouts_go_to_system() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            let cached = alloc(layout(64, 16));
            dealloc(cached, layout(64, 16));
            for align in [32, 4096] {
                let p = alloc(layout(64, align));
                assert!((p as usize).is_multiple_of(align), "aligned to {align}");
                assert_ne!(p, cached, "not the cached 64-byte block");
                fill(bytes(p, 64), 7);
                let q = realloc(p, layout(64, align), 100);
                assert!((q as usize).is_multiple_of(align));
                assert!(holds(bytes(q, 64), 7));
                dealloc(q, layout(100, align));
                let z = alloc_zeroed(layout(64, align));
                assert!(is_zero(bytes(z, 64)));
                dealloc(z, layout(64, align));
                assert_eq!(held(), 72, "nothing cached at align {align}");
            }
        });
    }

    #[test]
    fn a_reused_block_reads_back_as_zero() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            let l = layout(200, 8);
            let p = alloc(l);
            p.write_bytes(0xff, 200);
            dealloc(p, l);
            let z = alloc_zeroed(l);
            assert_eq!(z, p, "the dirty block is reused");
            assert!(is_zero(bytes(z, 200)));
            dealloc(z, l);
        });
    }

    /// A large zeroed layout is `calloc`'s: its untouched pages stay
    /// unmapped.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_large_zeroed_block_maps_no_pages() {
        fn rss_kib() -> usize {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        }
        let l = layout(256 << 20, 8);
        let before = rss_kib();
        // SAFETY: a non-zero layout.
        let p = unsafe { alloc_zeroed(l) };
        assert!(!p.is_null());
        let grown = rss_kib().saturating_sub(before);
        // SAFETY: the block just allocated, with its layout.
        unsafe { dealloc(p, l) };
        assert!(grown < 64 << 10, "256 MiB zeroed mapped {grown} KiB");
    }

    #[test]
    fn realloc_keeps_contents_within_across_and_out_of_classes() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            let p = alloc(layout(20, 8));
            fill(bytes(p, 20), 1);
            // Within the 24-byte class: the same block.
            assert_eq!(realloc(p, layout(20, 8), 24), p);
            assert!(holds(bytes(p, 20), 1));
            fill(bytes(p, 24), 2);
            // Across classes: a new block, the old one cached.
            let q = realloc(p, layout(24, 8), 100);
            assert_ne!(q, p);
            assert!(holds(bytes(q, 24), 2));
            assert_eq!(held(), 24);
            fill(bytes(q, 100), 3);
            // Into the large range.
            let r = realloc(q, layout(100, 8), 5000);
            assert!(holds(bytes(r, 100), 3));
            assert_eq!(held(), 24 + 104);
            fill(bytes(r, 5000), 4);
            // Large to large: System's realloc.
            let s = realloc(r, layout(5000, 8), 2000);
            assert!(holds(bytes(s, 2000), 4));
            assert_eq!(held(), 24 + 104);
            // Out of the large range, into the 104-byte block cached above.
            let t = realloc(s, layout(2000, 8), 90);
            assert_eq!(t, q);
            assert!(holds(bytes(t, 90), 4));
            assert_eq!(held(), 24);
            dealloc(t, layout(90, 8));
        });
    }

    #[test]
    fn a_block_freed_on_another_thread_joins_that_threads_cache() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        let addr = on_fresh_thread(|| unsafe {
            let p = alloc(layout(48, 8));
            fill(bytes(p, 48), 9);
            p as usize
        });
        // SAFETY: the block came from the first thread, which gave it up.
        on_fresh_thread(move || unsafe {
            let p = addr as *mut u8;
            assert!(holds(bytes(p, 48), 9));
            dealloc(p, layout(48, 8));
            assert_eq!(held(), 56);
            assert_eq!(alloc(layout(50, 8)), p, "reused by the freeing thread");
            dealloc(p, layout(50, 8));
        });
    }

    #[test]
    fn a_threads_exit_returns_its_cache() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        let held_at_return = on_fresh_thread(|| unsafe {
            TRACE_EXIT.with(|t| t.set(true));
            let l = layout(300, 8);
            let blocks: Vec<_> = (0..100).map(|_| alloc(l)).collect();
            for &p in &blocks {
                dealloc(p, l);
            }
            assert_eq!(held(), 100 * 312);
            held()
        });
        // The thread's own teardown may free a few more blocks into its
        // cache after the closure returns.
        assert!(RETURNED_AT_EXIT.load(Ordering::SeqCst) >= held_at_return);
    }

    #[test]
    fn a_thread_holds_at_most_its_bound() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            let l = layout(MAX_SMALL, 16);
            let n = THREAD_CACHE_BYTES / 1032 + 100;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(alloc(l));
            }
            for &p in &blocks {
                dealloc(p, l);
                assert!(held() <= THREAD_CACHE_BYTES);
            }
            assert!(held() > THREAD_CACHE_BYTES - 1032, "the cache filled up");
        });
    }

    #[test]
    fn counts_one_per_entry_call_with_its_requested_bytes() {
        // SAFETY: each block is used within its size and freed once,
        // with the layout it was allocated with.
        on_fresh_thread(|| unsafe {
            let (n0, b0) = thread_allocations();
            let p = alloc(layout(10, 8));
            let z = alloc_zeroed(layout(3000, 8));
            let p = realloc(p, layout(10, 8), 2000);
            let p = realloc(p, layout(2000, 8), 30);
            dealloc(p, layout(30, 8));
            dealloc(z, layout(3000, 8));
            let counts = thread_allocations();
            assert_eq!(counts, (n0 + 4, b0 + 10 + 3000 + 2000 + 30));
        });
    }

    /// A live block of the stress test, sendable to another thread.
    struct Block {
        addr: usize,
        size: usize,
        align: usize,
        seed: u8,
    }

    impl Block {
        /// Checks the block's pattern and frees it.
        ///
        /// # Safety
        ///
        /// The block is live and owned by the caller.
        unsafe fn check_and_free(self) {
            let p = self.addr as *mut u8;
            // SAFETY: a live block of `size` bytes, freed with its layout.
            unsafe {
                assert!(
                    holds(bytes(p, self.size), self.seed),
                    "a block was corrupted"
                );
                std::alloc::dealloc(p, layout(self.size, self.align));
            }
        }
    }

    /// Four threads allocate, reallocate and free blocks of random sizes
    /// and alignments through the installed global allocator. Each block
    /// holds a pattern that is checked before it is freed and after it
    /// moves, and some blocks go to the next thread over a channel, to be
    /// checked and freed there.
    #[test]
    fn stress_threads_exchanging_blocks() {
        const THREADS: usize = 4;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel()).unzip();
        let workers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let tx = txs[(i + 1) % THREADS].clone();
                thread::spawn(move || stress(i as u64, tx, rx))
            })
            .collect();
        drop(txs);
        for w in workers {
            w.join().unwrap();
        }
    }

    /// One thread of the stress test: it hands blocks on through `tx`
    /// and frees the ones that arrive on `rx`.
    fn stress(seed: u64, tx: mpsc::Sender<Block>, rx: mpsc::Receiver<Block>) {
        const MAX_LIVE: usize = 1000;
        let ops = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let mut rng = sml_testkit::Rng::new(0xa110c + seed);
        let mut live: Vec<Block> = Vec::new();
        for op in 0..ops {
            for b in rx.try_iter() {
                // SAFETY: the sending thread gave the live block up.
                unsafe { b.check_and_free() };
            }
            let roll = match live.len() {
                0 => 0,
                n if n >= MAX_LIVE => rng.range_usize(45, 100),
                _ => rng.range_usize(0, 100),
            };
            if roll < 45 {
                let size = match rng.range_usize(0, 20) {
                    0 => rng.range_usize(MAX_SMALL + 1, 20_000),
                    1 => rng.range_usize(1, 8),
                    _ => rng.range_usize(1, MAX_SMALL + 1),
                };
                let align = *rng.pick(&[1, 2, 8, 8, 8, 16, 32, 64]);
                let zeroed = rng.flip();
                let l = layout(size, align);
                // SAFETY: a layout of non-zero size.
                let p = unsafe {
                    if zeroed {
                        std::alloc::alloc_zeroed(l)
                    } else {
                        std::alloc::alloc(l)
                    }
                };
                assert!(!p.is_null() && (p as usize).is_multiple_of(align));
                // SAFETY: the new block's `size` bytes are this thread's.
                let block = unsafe { bytes(p, size) };
                assert!(!zeroed || is_zero(block), "a zeroed block is dirty");
                let seed = op as u8;
                fill(block, seed);
                live.push(Block {
                    addr: p as usize,
                    size,
                    align,
                    seed,
                });
            } else if roll < 60 {
                let k = rng.range_usize(0, live.len());
                let b = &mut live[k];
                let new_size = rng.range_usize(1, 3 * MAX_SMALL);
                let old = layout(b.size, b.align);
                // SAFETY: a live block of this thread's with its layout,
                // and a non-zero size; the moved block's `new_size` bytes
                // are then this thread's.
                let moved = unsafe {
                    let p = std::alloc::realloc(b.addr as *mut u8, old, new_size);
                    assert!(!p.is_null());
                    bytes(p, new_size)
                };
                let kept = b.size.min(new_size);
                assert!(holds(&moved[..kept], b.seed), "realloc lost bytes");
                fill(moved, b.seed);
                b.addr = moved.as_mut_ptr() as usize;
                b.size = new_size;
            } else if roll < 67 {
                let k = rng.range_usize(0, live.len());
                tx.send(live.swap_remove(k)).unwrap();
            } else {
                let k = rng.range_usize(0, live.len());
                // SAFETY: a live block of this thread's.
                unsafe { live.swap_remove(k).check_and_free() };
            }
            assert!(held() <= THREAD_CACHE_BYTES);
        }
        for b in live {
            // SAFETY: a live block of this thread's.
            unsafe { b.check_and_free() };
        }
        drop(tx);
        for b in rx {
            // SAFETY: the sending thread gave the live block up.
            unsafe { b.check_and_free() };
        }
    }
}
