//! Adaptive Two Phase (§3.2) — the paper's flagship.
//!
//! Start as Two Phase under the common-case assumption that the number of
//! groups is small. The moment the local hash table fills — the point at
//! which plain Two Phase would start paying intermediate overflow I/O —
//! the node:
//!
//! 1. stops aggregating locally,
//! 2. partitions and ships the accumulated **partial** results downstream
//!    (freeing its memory — the advantage over Graefe's optimization,
//!    which keeps the table resident),
//! 3. forwards every remaining tuple **raw**, hash-partitioned, exactly
//!    like Repartitioning.
//!
//! The merge phase accepts both kinds in one table. Crucially, "each
//! processor … adapts based on what it observes, independently of what
//! all the other processors are doing" — no synchronization; under §6's
//! output skew the group-rich nodes switch while group-poor ones stay in
//! Two Phase mode, beating both static algorithms.

use crate::common::{merge_phase_store, QueryPlan};
use crate::config::AlgoConfig;
use crate::outcome::{AdaptEvent, NodeOutcome};
use adaptagg_exec::operators::{self, ScanInput};
use adaptagg_exec::{Exchange, ExecError, NodeCtx, PhaseKind, SwitchCause, MORSEL_PASS};
use adaptagg_hashagg::{AggTable, Inserted};
use adaptagg_model::{CostEvent, CostTracker, RowKind, Value};
use adaptagg_storage::{Page, StripView};

/// Per-tuple charges of a tuple forwarded raw after the switch, in
/// row-loop order: scan read, select copy-out, then the exchange's hash
/// and destination computation.
const SCAN_ROUTE: [CostEvent; 4] = [
    CostEvent::TupleRead,
    CostEvent::TupleWrite,
    CostEvent::TupleHash,
    CostEvent::TupleDest,
];

/// Charges of the tuple that fills the table, up to the switch: scan
/// read, select copy-out, then the refused insert's read and hash.
const SCAN_REFUSED: [CostEvent; 4] = [
    CostEvent::TupleRead,
    CostEvent::TupleWrite,
    CostEvent::TupleRead,
    CostEvent::TupleHash,
];

/// Run Adaptive Two Phase on one node.
pub fn run_node(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    cfg: &AlgoConfig,
) -> Result<NodeOutcome, ExecError> {
    let max_entries = ctx.params().max_hash_entries;
    let fanout = cfg.overflow_fanout;
    let mut events = Vec::new();
    let mut scan = ScanState::new(plan, max_entries).with_grant(ctx.grant().clone());
    let mut ex = Exchange::new(
        ctx.nodes(),
        ctx.params().message_bytes,
        plan.key_len(),
        RowKind::Partial,
    );

    ctx.span_start(PhaseKind::Scan);
    let scanned = if ctx.recovery.is_some() {
        checkpointed_scan(ctx, plan, &mut scan, &mut ex, &mut events)
    } else if plan.base.filter.is_empty() {
        // Unfiltered: eligible pages take the page-at-a-time arm.
        operators::scan_project_pages(ctx, "base", &plan.projection, |ctx, input| match input {
            ScanInput::Page(page) => scan.push_page(ctx, &mut ex, plan, page, &mut events),
            ScanInput::Row(values) => scan.push(ctx, &mut ex, values, &mut events).map(|()| true),
        })
    } else {
        operators::scan_project(ctx, "base", &plan.base.filter, &plan.projection, |ctx, values| {
            scan.push(ctx, &mut ex, values, &mut events)
        })
        .map(|_| ())
    };
    ctx.span_end();
    scanned?;

    // If we never switched, the table holds all local partials: ship them
    // partitioned (plain Two Phase behaviour).
    ctx.span_start(PhaseKind::Partition);
    let shipped = (|| {
        if !scan.switched {
            let partials = scan.table.drain_partial_rows(&mut ctx.clock);
            ex.switch_kind(ctx, RowKind::Partial)?;
            ex.route_rows(ctx, &partials, false)?;
        }
        ex.finish(ctx)
    })();
    ctx.span_end();
    shipped?;
    ctx.clock.mark("phase1");

    // Merge phase: raw + partial interleaved, one bounded table.
    let (rows, mut agg) = merge_phase_store(ctx, plan, max_entries, fanout, Vec::new(), 0)?;
    agg.raw_in += scan.raw_seen;
    Ok(NodeOutcome { rows, agg, events })
}

/// The A2P scan under a recovery session: per assigned partition, restore
/// durable partials (shipping them to their owners right away — they are
/// phase-1 output an earlier attempt already produced), then scan the
/// un-checkpointed page suffix chunk by chunk.
///
/// Durable progress only advances while the node has *not* switched: at a
/// chunk boundary in Two Phase mode the table is drained into the
/// checkpoint and shipped (the table restarts empty, so each checkpoint
/// is self-contained). After the switch, output leaves the node as raw
/// forwarded tuples living in peers' memory — nothing durable — so the
/// checkpoint is frozen and only the replay high-water advances. The
/// boundary drains also mean the table rarely fills across chunks: under
/// recovery the switch heuristic effectively observes one chunk at a
/// time, a deliberate granularity trade-off of checkpointing.
fn checkpointed_scan(
    ctx: &mut NodeCtx,
    plan: &QueryPlan,
    scan: &mut ScanState,
    ex: &mut Exchange,
    events: &mut Vec<AdaptEvent>,
) -> Result<(), ExecError> {
    let mut session = ctx.recovery.take().expect("checked by caller");
    let result = (|| {
        for seg in session.segments() {
            let restored = session.restore_partials(seg.partition, &mut ctx.clock)?;
            route_partials_now(ctx, ex, scan.switched, &restored)?;
            let mut done = session.resume_point(seg.partition).min(seg.pages);
            while done < seg.pages {
                let chunk_end = (done + session.interval_pages()).min(seg.pages);
                operators::scan_project_range(
                    ctx,
                    "base",
                    &plan.base.filter,
                    &plan.projection,
                    seg.start_page + done,
                    seg.start_page + chunk_end,
                    |ctx, values| scan.push(ctx, ex, values, events),
                )?;
                if !scan.switched {
                    let partials = scan.table.drain_partial_rows(&mut ctx.clock);
                    session.checkpoint(
                        seg.partition,
                        chunk_end,
                        &partials,
                        chunk_end == seg.pages,
                        &mut ctx.clock,
                        &mut ctx.disk,
                    )?;
                    route_partials_now(ctx, ex, false, &partials)?;
                } else {
                    session.note_scanned(seg.partition, chunk_end);
                }
                done = chunk_end;
            }
        }
        Ok(())
    })();
    ctx.recovery = Some(session);
    result
}

/// Route already-finalized partial rows through the exchange, restoring
/// the raw kind afterwards if the scan had switched.
fn route_partials_now(
    ctx: &mut NodeCtx,
    ex: &mut Exchange,
    switched: bool,
    rows: &[Vec<Value>],
) -> Result<(), ExecError> {
    if rows.is_empty() {
        return Ok(());
    }
    if switched {
        ex.switch_kind(ctx, RowKind::Partial)?;
    }
    ex.route_rows(ctx, rows, false)?;
    if switched {
        ex.switch_kind(ctx, RowKind::Raw)?;
    }
    Ok(())
}

/// The A2P scan-side state machine (shared with ARep's fallback).
#[derive(Debug)]
pub struct ScanState {
    /// The bounded local table (phase 1's "first bucket").
    pub table: AggTable,
    /// Whether the memory-full switch has fired.
    pub switched: bool,
    /// Tuples scanned so far.
    pub raw_seen: u64,
    /// Scratch for the tuple that fills the table mid-page.
    row: Vec<Value>,
}

impl ScanState {
    /// Fresh scan state for a node.
    pub fn new(plan: &QueryPlan, max_entries: usize) -> Self {
        ScanState {
            table: AggTable::new(plan.projected.clone(), max_entries),
            switched: false,
            raw_seen: 0,
            row: Vec::new(),
        }
    }

    /// Attach the node's live memory grant to the local table: a broker
    /// revocation mid-scan then triggers the adaptive switch exactly as a
    /// naturally-full table would.
    pub fn with_grant(mut self, grant: adaptagg_model::MemoryGrant) -> Self {
        self.table.set_grant(grant);
        self
    }

    /// Process one projected tuple: aggregate locally until the table
    /// fills, then flush partials and forward raws.
    pub fn push(
        &mut self,
        ctx: &mut NodeCtx,
        ex: &mut Exchange,
        values: &[Value],
        events: &mut Vec<AdaptEvent>,
    ) -> Result<(), ExecError> {
        self.raw_seen += 1;
        if self.switched {
            // Repartitioning mode: hash + destination per tuple.
            return ex.route(ctx, values, true);
        }
        match self.table.insert_raw(values, &mut ctx.clock)? {
            Inserted::Updated | Inserted::New => Ok(()),
            Inserted::Full => {
                self.switch(ctx, ex, events)?;
                ex.route(ctx, values, false)
            }
        }
    }

    /// Process one whole unfiltered base page: [`ScanState::push`] over
    /// its projected rows, with identical charges, switch point, routes
    /// and send timestamps. Before the switch, the page's keys are hashed
    /// in one kernel pass and probed until the first row the table
    /// refuses; the accepted prefix is charged as one batch and its
    /// deferred aggregate updates are applied before the switch drains
    /// the table. After the switch, the rest of the page is routed from
    /// one partition-hash pass. Returns `Ok(false)`, having done nothing,
    /// for a page that takes the row arm instead (see
    /// [`ScanState::takes_page`]).
    pub fn push_page(
        &mut self,
        ctx: &mut NodeCtx,
        ex: &mut Exchange,
        plan: &QueryPlan,
        page: &Page,
        events: &mut Vec<AdaptEvent>,
    ) -> Result<bool, ExecError> {
        if !self.takes_page(page, plan) {
            return Ok(false);
        }
        let cols = &plan.projection;
        let rows = page.tuple_count();
        // Rows past a scheduled crash are never touched.
        let live = ctx.fault_ticks(rows);
        let mut r = 0;
        if !self.switched {
            r = self.table.insert_rows_until_full(page, cols, 0..live);
            ctx.clock.record_tuples(&MORSEL_PASS, r as u64);
            self.raw_seen += r as u64;
            if r < live {
                // Row `r` found the table full.
                ctx.clock.record_tuples(&SCAN_REFUSED, 1);
                self.raw_seen += 1;
                self.switch(ctx, ex, events)?;
                page.project_row_into(cols, r, &mut self.row);
                ex.route(ctx, &self.row, false)?;
                r += 1;
            }
        }
        if r < live {
            ex.route_page_rows(ctx, page, cols, r..live, &SCAN_ROUTE)?;
            self.raw_seen += (live - r) as u64;
        }
        if live < rows {
            // The crash tuple fails exactly where the row loop would.
            ctx.fault_tick()?;
        }
        Ok(true)
    }

    /// Whether `page` takes the page-at-a-time arm: a non-empty
    /// projection, one arity holding every projected column, `Int` key
    /// strips, and aggregate inputs the table's batched probe accepts
    /// (`Int` strips; see [`AggTable::accepts_page`]).
    fn takes_page(&self, page: &Page, plan: &QueryPlan) -> bool {
        let cols = &plan.projection;
        !cols.is_empty()
            && page
                .uniform_arity()
                .is_some_and(|arity| cols.iter().all(|&c| c < arity))
            && cols
                .iter()
                .take(plan.key_len())
                .all(|&c| matches!(page.column(c), Some(StripView::Ints(_))))
            && self.table.accepts_page(page, cols)
    }

    /// The switch (§3.2), fired by the tuple that found the table full:
    /// flush the accumulated partials to their owners, freeing memory,
    /// and forward raws from here on. The caller then forwards the
    /// triggering tuple raw, without a hash charge (the failed insert
    /// already charged it).
    fn switch(
        &mut self,
        ctx: &mut NodeCtx,
        ex: &mut Exchange,
        events: &mut Vec<AdaptEvent>,
    ) -> Result<(), ExecError> {
        let partials = self.table.drain_partial_rows(&mut ctx.clock);
        ex.switch_kind(ctx, RowKind::Partial)?;
        ex.route_rows(ctx, &partials, false)?;
        ex.switch_kind(ctx, RowKind::Raw)?;
        self.switched = true;
        events.push(AdaptEvent::SwitchedToRepartitioning {
            at_tuple: self.raw_seen,
        });
        ctx.trace_switch(SwitchCause::TableFull, self.raw_seen);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_algorithm_with, AlgorithmKind};
    use adaptagg_exec::ClusterConfig;
    use adaptagg_model::CostParams;
    use adaptagg_workload::{default_query, generate_partitions, RelationSpec};

    fn run(tuples: usize, groups: usize, nodes: usize, m: usize) -> crate::RunOutcome {
        let spec = RelationSpec::uniform(tuples, groups);
        let parts = generate_partitions(&spec, nodes);
        let params = CostParams {
            max_hash_entries: m,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(nodes, params);
        let cfg = AlgoConfig::default_for(nodes);
        run_algorithm_with(
            AlgorithmKind::AdaptiveTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap()
    }

    /// Everything observable about one node's scan: the outcome, clock
    /// bits, scan counters, events, the table's partials, and node 1's
    /// inbox (send timestamps as bits, plus the rows).
    type ScanTrace = (
        Result<(), ExecError>,
        (u64, u64, u64),
        (u64, bool),
        Vec<AdaptEvent>,
        Vec<Vec<Value>>,
        Vec<(u64, RowKind, Vec<Vec<Value>>)>,
    );

    /// Scan `tuples` on node 0 of a 2-node fast-net cluster, through the
    /// page arm (`paged`) or the row arm alone.
    fn scan_node0(
        tuples: &[Vec<Value>],
        max_entries: usize,
        crash_at: Option<u64>,
        paged: bool,
    ) -> ScanTrace {
        use adaptagg_model::{CostParams, NetworkKind};
        use adaptagg_net::{Control, Fabric, NodeFaults, Payload};
        use adaptagg_storage::{HeapFile, SimDisk};

        let plan = QueryPlan::new(&adaptagg_workload::default_query());
        let mut eps = Fabric::new(2, NetworkKind::high_speed_default()).into_endpoints();
        let ep1 = eps.pop().unwrap();
        let mut disk = SimDisk::new();
        disk.put(
            "base",
            HeapFile::from_tuples(4096, tuples.iter().map(|t| t.as_slice())).unwrap(),
        );
        let mut ctx = NodeCtx::new(eps.pop().unwrap(), disk, CostParams::paper_default());
        let mut rx = NodeCtx::new(ep1, SimDisk::new(), CostParams::paper_default());
        ctx.apply_faults(NodeFaults {
            crash_at_tuple: crash_at,
            slowdown_factor: 1.0,
        });
        let mut scan = ScanState::new(&plan, max_entries);
        let mut ex = Exchange::new(2, 2048, plan.key_len(), RowKind::Partial);
        let mut events = Vec::new();
        let result = if paged {
            operators::scan_project_pages(&mut ctx, "base", &plan.projection, |ctx, input| {
                match input {
                    ScanInput::Page(page) => scan.push_page(ctx, &mut ex, &plan, page, &mut events),
                    ScanInput::Row(values) => {
                        scan.push(ctx, &mut ex, values, &mut events).map(|()| true)
                    }
                }
            })
        } else {
            operators::scan_project(&mut ctx, "base", &[], &plan.projection, |ctx, values| {
                scan.push(ctx, &mut ex, values, &mut events)
            })
            .map(|_| ())
        };
        let clock = ctx.clock.clone();
        let partials = scan.table.drain_partial_rows(&mut ctx.clock);
        ex.finish(&mut ctx).unwrap();
        let mut inbox = Vec::new();
        loop {
            let msg = rx.recv().unwrap();
            match msg.payload {
                Payload::Data { kind, page } => {
                    inbox.push((msg.sent_at_ms.to_bits(), kind, page.decode_all().unwrap()))
                }
                Payload::Control(Control::EndOfStream) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        (
            result,
            (
                clock.now_ms().to_bits(),
                clock.breakdown().cpu_ms.to_bits(),
                clock.breakdown().io_ms.to_bits(),
            ),
            (scan.raw_seen, scan.switched),
            events,
            partials,
            inbox,
        )
    }

    #[test]
    fn page_arm_is_bit_identical_to_the_row_arm() {
        let uniform = |tuples, groups| RelationSpec::uniform(tuples, groups).generate_tuples();
        // (tuples, max_entries, crash point): no switch; a mid-page
        // switch; a switch on a page's first row (tuple 41 at 40 tuples
        // per page); crashes before, inside and after the switch page.
        let shapes: [(Vec<Vec<Value>>, usize, Option<u64>); 7] = [
            (uniform(2000, 50), 1000, None),
            (uniform(2000, 900), 60, None),
            (uniform(2000, 2000), 40, None),
            (uniform(2000, 900), 60, Some(37)),
            (uniform(2000, 900), 60, Some(75)),
            (uniform(2000, 900), 60, Some(1234)),
            (uniform(2000, 50), 1000, Some(80)),
        ];
        for (i, (tuples, m, crash)) in shapes.iter().enumerate() {
            let row = scan_node0(tuples, *m, *crash, false);
            let paged = scan_node0(tuples, *m, *crash, true);
            assert_eq!(paged.0, row.0, "shape {i}: outcome");
            assert_eq!(paged.1, row.1, "shape {i}: clock bits");
            assert_eq!(paged.2, row.2, "shape {i}: scan counters");
            assert_eq!(paged.3, row.3, "shape {i}: events");
            assert_eq!(paged.4, row.4, "shape {i}: table partials");
            assert_eq!(paged.5, row.5, "shape {i}: node 1 inbox");
        }
        // The shapes cover what they claim.
        let switched_at = |i: usize| {
            let (tuples, m, crash) = &shapes[i];
            scan_node0(tuples, *m, *crash, true).3
        };
        assert!(switched_at(0).is_empty());
        let mid_page = |e: &[AdaptEvent]| {
            matches!(e, [AdaptEvent::SwitchedToRepartitioning { at_tuple }] if at_tuple % 40 != 1)
        };
        assert!(mid_page(&switched_at(1)));
        assert_eq!(
            switched_at(2),
            vec![AdaptEvent::SwitchedToRepartitioning { at_tuple: 41 }]
        );
    }

    #[test]
    fn few_groups_stays_two_phase() {
        let out = run(4000, 50, 4, 1000);
        assert!(out.adapted_nodes().is_empty(), "no node should switch");
        assert_eq!(out.rows.len(), 50);
        assert_eq!(out.total_spilled(), 0);
    }

    #[test]
    fn many_groups_switches_at_the_memory_knee() {
        // Each node sees ~all 2000 groups; M = 100 → switch after ~100
        // distinct groups observed.
        let out = run(8000, 2000, 4, 100);
        assert_eq!(out.adapted_nodes().len(), 4, "every node switches");
        assert_eq!(out.rows.len(), 2000);
        for n in &out.nodes {
            let at = n
                .events
                .iter()
                .find_map(|e| match e {
                    AdaptEvent::SwitchedToRepartitioning { at_tuple } => Some(*at_tuple),
                    _ => None,
                })
                .expect("switch event");
            // The switch can't fire before M distinct groups were seen.
            assert!(at >= 100, "switched after only {at} tuples");
        }
    }

    #[test]
    fn local_phase_never_spills() {
        // The defining property (§3.2): A2P avoids *local* intermediate
        // I/O by switching instead of spilling. (The merge phase may
        // still spill when G/N exceeds M — that is unavoidable.)
        let out = run(8000, 1500, 4, 150);
        // merge tables hold ~1500/4 = 375 > 150 → merge spills allowed;
        // but check against plain 2P: A2P must spill strictly less.
        let spec = RelationSpec::uniform(8000, 1500);
        let parts = generate_partitions(&spec, 4);
        let params = CostParams {
            max_hash_entries: 150,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let tp = run_algorithm_with(
            AlgorithmKind::TwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        assert!(
            out.total_spilled() < tp.total_spilled(),
            "A2P {} >= 2P {}",
            out.total_spilled(),
            tp.total_spilled()
        );
        assert_eq!(out.rows, tp.rows);
    }

    #[test]
    fn matches_reference_across_the_selectivity_range() {
        for groups in [1usize, 10, 100, 1000, 2500] {
            let spec = RelationSpec::uniform(5000, groups);
            let parts = generate_partitions(&spec, 4);
            let query = default_query();
            let reference = crate::verify::reference_aggregate(&parts, &query).unwrap();
            let params = CostParams {
                max_hash_entries: 200,
                ..CostParams::paper_default()
            };
            let config = ClusterConfig::new(4, params);
            let cfg = AlgoConfig::default_for(4);
            let out = run_algorithm_with(
                AlgorithmKind::AdaptiveTwoPhase,
                &config,
                &parts,
                &query,
                &cfg,
            )
            .unwrap();
            assert_eq!(out.rows, reference, "groups = {groups}");
        }
    }

    #[test]
    fn nodes_decide_independently_under_output_skew() {
        // §6.2: group-poor nodes stay 2P, group-rich nodes switch.
        let spec = adaptagg_workload::OutputSkewSpec::new(4, 2000, 800, 2);
        let parts = spec.generate_partitions();
        let params = CostParams {
            max_hash_entries: 100,
            ..CostParams::paper_default()
        };
        let config = ClusterConfig::new(4, params);
        let cfg = AlgoConfig::default_for(4);
        let out = run_algorithm_with(
            AlgorithmKind::AdaptiveTwoPhase,
            &config,
            &parts,
            &default_query(),
            &cfg,
        )
        .unwrap();
        let adapted = out.adapted_nodes();
        assert_eq!(
            adapted,
            vec![2, 3],
            "only the group-rich nodes should switch"
        );
        assert_eq!(out.rows.len(), 800);
    }
}
