//! Cost-model invariance pins.
//!
//! The wall-clock optimisation work (allocation-free hot path,
//! page-batched operators) treats the cost model as its correctness
//! contract: every `CostEvent` count and virtual-time figure must be
//! bit-identical to the pre-optimisation implementation. The constants
//! below were captured from the unoptimised code (commit 893d349) by
//! the `print_pins` test; they must never move under perf work.
//!
//! What makes these stable by construction:
//! - the component harness feeds the aggregator an explicit row
//!   sequence, so the resident/spilled split is order-controlled;
//! - the cluster figures are 1- and 2-node runs, where message arrival
//!   order is deterministic (each receiver has at most one peer).
//!
//! To recapture after an *intentional* cost-model change (never a perf
//! change):  cargo test --test cost_invariance print_pins -- --ignored --nocapture

use adaptagg_algos::{reference_aggregate, run_algorithm, AdaptEvent, AlgorithmKind};
use adaptagg_exec::{Clock, ClusterConfig};
use adaptagg_hashagg::{EmitMode, HashAggregator};
use adaptagg_model::{
    AggFunc, AggQuery, AggSpec, Compare, CostEvent, CostParams, CostTracker, CountingTracker,
    MemoryGrant, Predicate, RowKind, Value,
};
use adaptagg_storage::HeapFile;
use adaptagg_workload::{
    default_query, generate_partitions, round_robin_partitions, RelationSpec,
};

/// Projected-form query used by the component harness:
/// `SELECT g, SUM(v), COUNT(*) GROUP BY g` over (g, v) rows.
fn harness_query() -> AggQuery {
    AggQuery::new(
        vec![0],
        vec![AggSpec::over(AggFunc::Sum, 1), AggSpec::count_star()],
    )
}

/// Drive a memory-bounded aggregator through raw inserts (with overflow
/// spill — 97 groups against a 32-entry budget), partial merges, and a
/// finalizing drain, recording every cost event into `tracker`. The row
/// sequence is explicit and fixed: nothing about it depends on hash-map
/// iteration order, so its event totals pin the per-tuple charging
/// contract exactly.
fn run_component_harness<T: CostTracker>(tracker: &mut T) {
    let mut agg = HashAggregator::new(harness_query(), 32, 4096, 4);
    for i in 0..500i64 {
        let row = vec![Value::Int((i * 7) % 97), Value::Int(i)];
        agg.push(RowKind::Raw, &row, tracker).unwrap();
    }
    for i in 0..100i64 {
        let row = vec![Value::Int((i * 5) % 61), Value::Int(i), Value::Int(1)];
        agg.push(RowKind::Partial, &row, tracker).unwrap();
    }
    let (rows, stats) = agg.finish(EmitMode::Finalized, tracker).unwrap();
    assert_eq!(rows.len(), 97, "both key sets cover residues of 97 and 61");
    assert!(stats.spilled(), "harness must exercise the overflow path");
}

/// Pinned event totals for the component harness (captured pre-change).
const PIN_COUNTS: &[(CostEvent, u64)] = &[
    (CostEvent::TupleRead, 1378),
    (CostEvent::TupleWrite, 486),
    (CostEvent::TupleHash, 989),
    (CostEvent::TupleAgg, 600),
    (CostEvent::TupleDest, 0),
    (CostEvent::PageReadSeq, 4),
    (CostEvent::PageWriteSeq, 4),
    (CostEvent::PageReadRand, 0),
    (CostEvent::MsgProtocol, 0),
];

/// Pinned virtual time for the component harness under paper-default
/// parameters (f64 bits; captured pre-change).
const PIN_COMPONENT_MS_BITS: u64 = 0x404191eb851eb8ab; // 35.14000000000063 ms

#[test]
fn component_event_counts_are_pinned() {
    let mut counts = CountingTracker::default();
    run_component_harness(&mut counts);
    for &(event, expected) in PIN_COUNTS {
        assert_eq!(
            counts.count(event),
            expected,
            "{event:?} count drifted from the pre-optimisation pin"
        );
    }
}

#[test]
fn component_virtual_time_is_pinned() {
    let mut clock = Clock::new(CostParams::paper_default());
    run_component_harness(&mut clock);
    assert_eq!(
        clock.now_ms().to_bits(),
        PIN_COMPONENT_MS_BITS,
        "virtual time drifted: got {} ms ({:#018x})",
        clock.now_ms(),
        clock.now_ms().to_bits()
    );
}

/// Pinned end-to-end virtual times (f64 bits, captured pre-change) for
/// deterministic cluster shapes. (kind, nodes, tuples, groups,
/// max_hash_entries, elapsed_ms bits.)
const PIN_RUNS: &[(AlgorithmKind, usize, usize, usize, usize, u64)] = &[
    (AlgorithmKind::TwoPhase, 1, 3000, 120, 10_000, 0x40686428f5c2882d), // 195.13 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 120, 10_000, 0x4068be6666665d81), // 197.95 ms
    (AlgorithmKind::AdaptiveTwoPhase, 1, 3000, 120, 10_000, 0x40686428f5c2882d), // 195.13 ms
    (AlgorithmKind::CentralizedTwoPhase, 1, 3000, 120, 10_000, 0x4068633333332c1d), // 195.10 ms
    (AlgorithmKind::SortTwoPhase, 1, 3000, 120, 10_000, 0x4068a75c28f5bb13), // 197.23 ms
    // Overflow engaged: 1500 groups against a 300-entry budget.
    (AlgorithmKind::TwoPhase, 1, 3000, 1500, 300, 0x4079bf9999998e5d), // 411.97 ms
    (AlgorithmKind::Repartitioning, 1, 3000, 1500, 300, 0x407317fffffff8ec), // 305.50 ms
    // Two nodes: arrival order is still deterministic (single peer).
    (AlgorithmKind::TwoPhase, 2, 2000, 50, 10_000, 0x40508dc28f5c288f), // 66.215 ms
    (AlgorithmKind::Repartitioning, 2, 2000, 50, 10_000, 0x405105eb851eb7d2), // 68.0925 ms
    // Two nodes *and* overflow engaged: the spill spool/drain and the
    // cross-node merge both run, covering the columnar spill path.
    (AlgorithmKind::TwoPhase, 2, 3000, 1500, 300, 0x406b3bac08311e03), // 217.86475 ms
];

fn pinned_run_elapsed(
    kind: AlgorithmKind,
    nodes: usize,
    tuples: usize,
    groups: usize,
    max_hash_entries: usize,
    threads: usize,
) -> f64 {
    let spec = RelationSpec::uniform(tuples, groups);
    let parts = generate_partitions(&spec, nodes);
    let params = CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    };
    let config = ClusterConfig::new(nodes, params).with_threads(threads);
    let out = run_algorithm(kind, &config, &parts, &default_query()).unwrap();
    assert_eq!(out.rows.len(), groups);
    out.elapsed_ms()
}

#[test]
fn cluster_virtual_times_are_pinned() {
    for &(kind, nodes, tuples, groups, m, bits) in PIN_RUNS {
        let elapsed = pinned_run_elapsed(kind, nodes, tuples, groups, m, 1);
        assert_eq!(
            elapsed.to_bits(),
            bits,
            "{kind} n={nodes} |R|={tuples} |G|={groups} M={m}: \
             virtual time drifted to {elapsed} ms ({:#018x})",
            elapsed.to_bits()
        );
    }
}

/// The intra-node morsel engine's contract: the *same* pinned virtual
/// times at every thread count. Parallelism may only move wall-clock;
/// cost charges replay in logical order, and regimes the engine cannot
/// reproduce exactly (spill, floats) abort to the serial path. The
/// spill-regime rows in `PIN_RUNS` exercise precisely that fallback.
#[test]
fn cluster_virtual_times_are_pinned_at_every_thread_count() {
    for threads in [2usize, 4, 8] {
        for &(kind, nodes, tuples, groups, m, bits) in PIN_RUNS {
            let elapsed = pinned_run_elapsed(kind, nodes, tuples, groups, m, threads);
            assert_eq!(
                elapsed.to_bits(),
                bits,
                "{kind} n={nodes} |R|={tuples} |G|={groups} M={m} threads={threads}: \
                 parallel virtual time diverged to {elapsed} ms ({:#018x})",
                elapsed.to_bits()
            );
        }
    }
}

/// An Adaptive Two Phase run shape for the A-2P pins: input partitions,
/// query, cost parameters and an optional per-node memory grant.
struct A2pShape {
    name: &'static str,
    parts: Vec<HeapFile>,
    query: AggQuery,
    params: CostParams,
    grant: Option<usize>,
}

fn params_with_m(max_hash_entries: usize) -> CostParams {
    CostParams {
        max_hash_entries,
        ..CostParams::paper_default()
    }
}

/// The pinned A-2P shapes, all on the fast net (whose arrival handling
/// is schedule-independent, so every figure is a function of the inputs).
fn a2p_shapes() -> Vec<A2pShape> {
    let uniform =
        |tuples, groups, nodes| generate_partitions(&RelationSpec::uniform(tuples, groups), nodes);
    // Str group keys: the key strip holds general values, so the scan
    // cannot take the Int-strip page loop.
    let str_keys: Vec<Vec<Value>> = RelationSpec::uniform(4000, 900)
        .generate_tuples()
        .into_iter()
        .map(|mut t| {
            let Value::Int(g) = t[0] else { unreachable!("Int group column") };
            t[0] = Value::Str(format!("key-{g}").into_boxed_str());
            t
        })
        .collect();
    vec![
        // Every node switches part-way through a page.
        A2pShape {
            name: "4n_mid_page_switch",
            parts: uniform(8000, 2000, 4),
            query: default_query(),
            params: params_with_m(100),
            grant: None,
        },
        // Both nodes switch on the first row of a page (tuple 241 = row
        // 0 of page 6 at 40 tuples per page).
        A2pShape {
            name: "2n_first_row_switch",
            parts: uniform(6000, 3000, 2),
            query: default_query(),
            params: params_with_m(235),
            grant: None,
        },
        // A broker grant squeezed far below M: the switch fires when the
        // table reaches the grant, mid-scan.
        A2pShape {
            name: "2n_grant_squeeze",
            parts: uniform(6000, 1500, 2),
            query: default_query(),
            params: params_with_m(10_000),
            grant: Some(130),
        },
        // A WHERE clause keeps the scan on its row-at-a-time arm.
        A2pShape {
            name: "2n_where",
            parts: uniform(6000, 1500, 2),
            query: default_query().with_filter(vec![Predicate::new(
                1,
                Compare::Lt,
                Value::Int(600),
            )]),
            params: params_with_m(200),
            grant: None,
        },
        A2pShape {
            name: "2n_str_keys",
            parts: round_robin_partitions(&str_keys, 2, 4096),
            query: default_query(),
            params: params_with_m(150),
            grant: None,
        },
        // `local_1n` scaled down: one node, every group resident.
        A2pShape {
            name: "1n_local",
            parts: uniform(40_000, 800, 1),
            query: default_query(),
            params: CostParams::paper_default(),
            grant: None,
        },
    ]
}

/// What an A-2P pin fixes about a run: whole-run virtual time (f64
/// bits), result row count, each node's switch point (`None` = stayed
/// Two Phase), and the sender-side traffic totals
/// `[raw_pages_sent, partial_pages_sent, tuples_sent, bytes_sent]`.
type A2pPin = (u64, usize, Vec<Option<u64>>, [u64; 4]);

fn a2p_fingerprint(shape: &A2pShape, threads: usize) -> A2pPin {
    let nodes = shape.parts.len();
    let mut config = ClusterConfig::new(nodes, shape.params.clone()).with_threads(threads);
    if let Some(g) = shape.grant {
        config = config.with_grants((0..nodes).map(|_| MemoryGrant::bounded(g)).collect());
    }
    let out = run_algorithm(
        AlgorithmKind::AdaptiveTwoPhase,
        &config,
        &shape.parts,
        &shape.query,
    )
    .unwrap();
    let reference = reference_aggregate(&shape.parts, &shape.query).unwrap();
    assert_eq!(out.rows, reference, "{}: rows differ from the reference", shape.name);
    let switches = out
        .nodes
        .iter()
        .map(|n| {
            n.events.iter().find_map(|e| match e {
                AdaptEvent::SwitchedToRepartitioning { at_tuple } => Some(*at_tuple),
                _ => None,
            })
        })
        .collect();
    let net = out.run.total_net();
    (
        out.elapsed_ms().to_bits(),
        out.rows.len(),
        switches,
        [
            net.raw_pages_sent,
            net.partial_pages_sent,
            net.tuples_sent,
            net.bytes_sent,
        ],
    )
}

/// Pinned A-2P fingerprints, in `a2p_shapes` order (captured from the
/// row-at-a-time scan, before the page-at-a-time scan replaced it).
#[allow(clippy::type_complexity)]
const A2P_PINS: &[(&str, u64, usize, &[Option<u64>], [u64; 4])] = &[
    ("4n_mid_page_switch", 0x4069bb9999999110, 2000, &[Some(101), Some(102), Some(101), Some(102)], [80, 16, 7998, 163560]), // 205.8625 ms
    ("2n_first_row_switch", 0x4073ee6b851eb0d7, 3000, &[Some(241), Some(241)], [56, 8, 5990, 124030]), // 318.90125 ms
    ("2n_grant_squeeze", 0x40732e947ae1403c, 1500, &[Some(136), Some(135)], [58, 4, 5991, 122160]), // 306.91125 ms
    ("2n_where", 0x406c998d4fdf3309, 1443, &[Some(209), Some(214)], [33, 8, 3513, 73860]), // 228.7985 ms
    ("2n_str_keys", 0x40699ef5c28f5415, 900, &[Some(161), Some(159)], [43, 8, 3982, 93737]), // 204.9675 ms
    ("1n_local", 0x40a41dccccccfb1e, 800, &[None], [0, 12, 800, 23200]), // 2574.9 ms
];

#[test]
fn a2p_runs_are_pinned_at_every_thread_count() {
    let shapes = a2p_shapes();
    assert_eq!(shapes.len(), A2P_PINS.len());
    for (shape, &(name, bits, rows, switches, net)) in shapes.iter().zip(A2P_PINS) {
        assert_eq!(shape.name, name);
        for threads in [1usize, 2, 4, 8] {
            let (got_bits, got_rows, got_switches, got_net) = a2p_fingerprint(shape, threads);
            let ctx = format!("{name} threads={threads}");
            assert_eq!(
                got_bits,
                bits,
                "{ctx}: virtual time drifted to {} ms ({got_bits:#018x})",
                f64::from_bits(got_bits)
            );
            assert_eq!(got_rows, rows, "{ctx}: row count");
            assert_eq!(got_switches, switches, "{ctx}: switch points");
            assert_eq!(got_net, net, "{ctx}: traffic");
        }
    }
}

/// Capture tool for `A2P_PINS`:
///   cargo test --release --test cost_invariance print_a2p_pins -- --ignored --nocapture
#[test]
#[ignore]
fn print_a2p_pins() {
    for shape in a2p_shapes() {
        let (bits, rows, switches, net) = a2p_fingerprint(&shape, 1);
        println!(
            "    (\"{}\", {bits:#018x}, {rows}, &{switches:?}, {net:?}), // {} ms",
            shape.name,
            f64::from_bits(bits)
        );
    }
}

/// Capture tool: prints the pin constants for the current build.
/// Run on a commit whose cost behaviour is the intended contract.
#[test]
#[ignore]
fn print_pins() {
    let mut counts = CountingTracker::default();
    run_component_harness(&mut counts);
    println!("const PIN_COUNTS: &[(CostEvent, u64)] = &[");
    for event in CostEvent::ALL {
        println!("    (CostEvent::{event:?}, {}),", counts.count(event));
    }
    println!("];");

    let mut clock = Clock::new(CostParams::paper_default());
    run_component_harness(&mut clock);
    println!(
        "const PIN_COMPONENT_MS_BITS: u64 = {:#018x}; // {} ms",
        clock.now_ms().to_bits(),
        clock.now_ms()
    );

    println!("const PIN_RUNS: ... = &[");
    for &(kind, nodes, tuples, groups, m, _) in PIN_RUNS {
        let elapsed = pinned_run_elapsed(kind, nodes, tuples, groups, m, 1);
        println!(
            "    (AlgorithmKind::{kind:?}, {nodes}, {tuples}, {groups}, {m}, {:#018x}), // {} ms",
            elapsed.to_bits(),
            elapsed
        );
    }
    println!("];");
}
