//! Allocation-count gate for the *parallel* hot path.
//!
//! The morsel engine's wall-clock contract extends DESIGN.md §10 to
//! worker threads: once the page pool and the per-worker tables are
//! warm, steady-state morsel processing — recycling pages through the
//! now thread-safe [`PagePool`] and updating resident groups through
//! [`ParTables`] — performs **zero heap allocations on any thread**.
//!
//! This must stay the ONLY test in this file: `cargo test` runs tests
//! in one process on multiple threads, and the global counter would
//! pick up allocations from unrelated tests. (The serial gate lives in
//! `alloc_hot_path.rs`, its own binary, for the same reason.)

use adaptagg::hashagg::{IntraMode, IntraStrategy, ParTables};
use adaptagg::model::{AggFunc, AggQuery, AggSpec, MemoryGrant, RowKind, Seed, Value};
use adaptagg::storage::{Page, PagePool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// System allocator wrapped with a counter of alloc + realloc calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const THREADS: usize = 4;
const GROUPS: i64 = 8;
const PAGE_BYTES: usize = 4096;

#[test]
fn parallel_steady_state_does_not_allocate() {
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let tables = ParTables::new(
        query,
        10_000,
        MemoryGrant::unlimited(),
        THREADS,
        IntraMode::Fixed(IntraStrategy::ThreadLocal),
    )
    .expect("2+ threads and a prefix key");
    let pool = PagePool::new();

    // Phase fences: [warm-up] → snapshot → [steady state] → snapshot.
    // The spawns, the warm-up inserts and the pool priming all allocate;
    // none of that is between the two counter reads. The measured window
    // retries up to ATTEMPTS times (std barriers are cyclic): the libtest
    // harness thread parks lazily at an arbitrary moment after spawning
    // this test, and its one-time parker/channel allocations would be
    // blamed on whichever window they land in. Lazy init drains after one
    // attempt; a genuinely allocating steady state allocates every
    // attempt and still fails.
    const ATTEMPTS: usize = 5;
    let warm = Barrier::new(THREADS + 1);
    let go = Barrier::new(THREADS + 1);
    let done = Barrier::new(THREADS + 1);
    let decide = Barrier::new(THREADS + 1);
    let stop = AtomicBool::new(false);

    let counted = std::thread::scope(|s| {
        for w in 0..THREADS {
            let (tables, pool) = (&tables, &pool);
            let (warm, go, done, decide) = (&warm, &go, &done, &decide);
            let stop = &stop;
            s.spawn(move || {
                // Warm-up: every group resident in this worker's local
                // table, one pooled page per worker in flight, a stash
                // page of the resident keys for the batched lane, and a
                // hash-scratch column sized by one batch-kernel round.
                for g in 0..GROUPS {
                    let row = [Value::Int(g), Value::Int(1)];
                    tables.insert(w, RowKind::Raw, &row, g as u64).expect("no abort");
                }
                pool.put(pool.get(PAGE_BYTES));
                let mut stash = Page::new(PAGE_BYTES);
                for g in 0..GROUPS {
                    assert!(stash.try_push(&[Value::Int(g), Value::Int(1)]).unwrap());
                }
                let mut hashes: Vec<u64> = Vec::new();
                stash.hash_rows(Seed::Table, 0..1, 0..stash.tuple_count(), &mut hashes);
                warm.wait();
                for _attempt in 0..ATTEMPTS {
                    go.wait();
                    // Steady state: morsel-shaped work — check a page out
                    // of the shared pool, fold a batch of rows into
                    // resident groups, recycle the page. Stack row
                    // buffers, in-place probes, lock-and-pop recycling:
                    // zero allocations. Half the rounds take the row
                    // lane, half the batched lane (vectorized key hash
                    // over the stash page's strips, prehashed inserts):
                    // both must be allocation-free.
                    for round in 0..1_000i64 {
                        let page = pool.get(PAGE_BYTES);
                        if round % 2 == 0 {
                            for g in 0..GROUPS {
                                let row = [Value::Int(g), Value::Int(round)];
                                tables
                                    .insert(w, RowKind::Raw, &row, (round * GROUPS + g) as u64)
                                    .expect("no abort");
                            }
                        } else {
                            stash.hash_rows(Seed::Table, 0..1, 0..stash.tuple_count(), &mut hashes);
                            for g in 0..GROUPS {
                                let row = [Value::Int(g), Value::Int(round)];
                                tables
                                    .insert_prehashed(
                                        w,
                                        RowKind::Raw,
                                        &row,
                                        (round * GROUPS + g) as u64,
                                        hashes[g as usize],
                                    )
                                    .expect("no abort");
                            }
                        }
                        pool.put(page);
                    }
                    done.wait();
                    decide.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
        }
        warm.wait();
        // Prime the pool beyond worst-case concurrent checkout, so no
        // steady-state `get` ever has to construct a fresh page.
        while pool.len() < 2 * THREADS {
            let extra: Vec<_> = (0..2 * THREADS).map(|_| pool.get(PAGE_BYTES)).collect();
            for p in extra {
                pool.put(p);
            }
        }
        let mut counted = u64::MAX;
        for _attempt in 0..ATTEMPTS {
            let before = ALLOCS.load(Ordering::Relaxed);
            go.wait();
            done.wait();
            counted = ALLOCS.load(Ordering::Relaxed) - before;
            if counted == 0 {
                stop.store(true, Ordering::Relaxed);
            }
            decide.wait();
            if counted == 0 {
                break;
            }
        }
        counted
    });

    assert_eq!(
        counted, 0,
        "parallel steady state allocated {counted} times across {THREADS} threads \
         × 1000 morsel rounds"
    );
}
