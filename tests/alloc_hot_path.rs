//! Allocation-count gate for the resident-group update hot path.
//!
//! The wall-clock optimization contract (ISSUE 3, DESIGN.md §10) says the
//! dominant aggregation step — updating an already-resident group via
//! `AggTable::insert_raw` — performs **zero heap allocations**. This test
//! enforces that with a counting global allocator: after warming the table
//! so every group is resident, a large batch of updates must not change
//! the allocation counter at all.
//!
//! This must stay the ONLY test in this file: `cargo test` runs tests in
//! one process on multiple threads, and a shared global counter would pick
//! up allocations from unrelated tests.

use adaptagg_algos::adaptive2p::ScanState;
use adaptagg_algos::common::QueryPlan;
use adaptagg_exec::{Exchange, NodeCtx};
use adaptagg_hashagg::AggTable;
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, CostParams, CountingTracker, NetworkKind, RowKind, Value,
};
use adaptagg_net::{Fabric, Payload};
use adaptagg_storage::{Page, SimDisk};
use adaptagg_workload::{default_query, RelationSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with a counter of alloc + realloc calls.
/// Deallocations are not counted: the claim is "no new heap memory", and
/// frees on the hot path would imply a matching earlier allocation anyway.
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

#[test]
fn resident_group_updates_do_not_allocate() {
    const GROUPS: i64 = 8;
    let query = AggQuery::new(vec![0], vec![AggSpec::over(AggFunc::Sum, 1)]);
    let mut table = AggTable::new(query, 10_000);
    let mut tracker = CountingTracker::new();

    // Warm-up: admit every group (this allocates — keys, agg states).
    for g in 0..GROUPS {
        table
            .insert_raw(&[Value::Int(g), Value::Int(1)], &mut tracker)
            .unwrap();
    }
    assert_eq!(table.len(), GROUPS as usize);

    // The libtest harness thread parks lazily after spawning this test:
    // its first park performs one-time channel/parker allocations at an
    // arbitrary moment, which the process-global counter would blame on
    // the measured window. Let it reach its steady park first, and retry
    // the window a few times — one-time lazy init drains after a single
    // attempt, whereas a genuinely allocating hot path allocates every
    // attempt and still fails.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // Hot path: 1000 update rounds over the resident groups. The row
    // buffer lives on the stack; the probe hashes the key columns in
    // place and combines into the existing state — zero allocations.
    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for round in 0..1000i64 {
            for g in 0..GROUPS {
                let row = [Value::Int(g), Value::Int(round)];
                table.insert_raw(&row, &mut tracker).unwrap();
            }
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }

    assert_eq!(
        counted,
        0,
        "resident-group insert_raw allocated {} times over {} updates",
        counted,
        1000 * GROUPS
    );
    assert_eq!(table.len(), GROUPS as usize, "no groups were added");

    // Batched hot path: the columnar fast lane (whole-page probe with the
    // vectorized hash kernel + deferred column-at-a-time updates) must be
    // allocation-free too once its pooled scratch vectors — the hash
    // column and the group-index column — are sized. The page is built
    // (and allocates) outside the window; one warm-up call sizes the
    // scratch pools.
    let mut page = Page::new(4096);
    for g in 0..GROUPS {
        assert!(page.try_push(&[Value::Int(g), Value::Int(2)]).unwrap());
    }
    let no_spill = |_: &mut CountingTracker, _: RowKind, _: &[Value]| -> Result<(), _> {
        panic!("resident groups never spill")
    };
    table
        .insert_page_batched(RowKind::Raw, &page, &mut tracker, no_spill)
        .unwrap();

    let mut counted = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        for _round in 0..1000 {
            table
                .insert_page_batched(RowKind::Raw, &page, &mut tracker, no_spill)
                .unwrap();
        }
        counted = ALLOCS.load(Ordering::Relaxed) - before;
        if counted == 0 {
            break;
        }
    }

    assert_eq!(
        counted,
        0,
        "batched resident-group updates allocated {} times over {} pages",
        counted,
        1000
    );
    assert_eq!(table.len(), GROUPS as usize, "no groups were added");

    // Page-at-a-time A-2P scan over base pages `(g, v, pad)` of resident
    // groups: a 1-node cluster whose exchange ships to itself. Every
    // window runs the batched scan arm page after page; after each page
    // the inbox is drained and the sealed message pages go back to the
    // pool, as the merge phase would return them. The in-process fabric's
    // message queue allocates one block per so many messages, whoever
    // sends them; the window is charged only for allocations beyond what
    // the bare fabric makes for the same message sequence.
    let base = RelationSpec::uniform(40, GROUPS as usize).generate_tuples();
    let mut base_page = Page::new(4096);
    for row in &base {
        assert!(base_page.try_push(row).unwrap());
    }
    let plan = QueryPlan::new(&default_query());
    let scan_window = |max_entries: usize, expect_switch: bool| -> i64 {
        let mut ctx = one_node_ctx();
        let mut ex = Exchange::new(1, 2048, plan.key_len(), RowKind::Partial);
        let mut scan = ScanState::new(&plan, max_entries);
        let mut events = Vec::new();
        let mut pass = |ctx: &mut NodeCtx, ex: &mut Exchange, scan: &mut ScanState| {
            assert!(scan.push_page(ctx, ex, &plan, &base_page, &mut events).unwrap());
            drain_to_pool(ctx);
        };
        // Warm-up: admits the groups (or fills the table and switches),
        // sizes the scratch vectors and stocks the page pool.
        for _ in 0..200 {
            pass(&mut ctx, &mut ex, &mut scan);
        }
        assert_eq!(scan.switched, expect_switch);
        let mut excess = i64::MAX;
        for _attempt in 0..5 {
            let sent_before = messages_sent(&ctx);
            let before = ALLOCS.load(Ordering::Relaxed);
            for _round in 0..1000 {
                pass(&mut ctx, &mut ex, &mut scan);
            }
            let counted = ALLOCS.load(Ordering::Relaxed) - before;
            let fabric = bare_fabric_allocs(sent_before, messages_sent(&ctx) - sent_before);
            excess = counted as i64 - fabric as i64;
            if excess == 0 {
                break;
            }
        }
        excess
    };
    let before_switch = scan_window(10_000, false);
    assert_eq!(
        before_switch, 0,
        "A-2P page scan on resident groups allocated {before_switch} extra times over 1000 pages"
    );
    let after_switch = scan_window(GROUPS as usize / 2, true);
    assert_eq!(
        after_switch, 0,
        "A-2P page scan after the switch allocated {after_switch} extra times over 1000 pages"
    );
}

fn one_node_ctx() -> NodeCtx {
    let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
    NodeCtx::new(eps.pop().unwrap(), SimDisk::new(), CostParams::paper_default())
}

/// Receive every arrived message, returning data pages to the pool.
fn drain_to_pool(ctx: &mut NodeCtx) {
    while let Some(msg) = ctx.try_recv().unwrap() {
        if let Payload::Data { page, .. } = msg.payload {
            ctx.page_pool.put(page);
        }
    }
}

fn messages_sent(ctx: &NodeCtx) -> u64 {
    let net = ctx.net_stats();
    net.raw_pages_sent + net.partial_pages_sent + net.control_sent
}

/// Allocations a fresh 1-node fabric makes sending itself messages
/// `warm..warm + window` of a pooled-page message sequence (counted over
/// the window only): the queue's own share of a scan window that sent
/// the same messages.
fn bare_fabric_allocs(warm: u64, window: u64) -> u64 {
    if window == 0 {
        return 0;
    }
    assert!(warm > 0, "the warm-up stocks the page pool");
    let mut ctx = one_node_ctx();
    let send = |ctx: &mut NodeCtx| {
        let mut page = ctx.page_pool.get(2048);
        assert!(page.try_push(&[Value::Int(1), Value::Int(2)]).unwrap());
        ctx.send_page(0, RowKind::Raw, page).unwrap();
        drain_to_pool(ctx);
    };
    for _ in 0..warm {
        send(&mut ctx);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..window {
        send(&mut ctx);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}
