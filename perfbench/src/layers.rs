//! Per-layer timings over a workload's own generated pages.
//!
//! Every figure times public calls of one crate from outside, with no
//! spans inside the program. Base pages (`g, v, pad`, 4 KB) feed the
//! storage and net codecs; the hash layers get the same rows after the
//! scan's projection to `(g, v)`, which is what the engine hashes.

use crate::spec::{M, SERVE_MEMORY, SERVE_SQL};
use crate::stats::{median_of, median_secs, Metrics};
use adaptagg::hashagg::{AggTable, HashAggregator};
use adaptagg::model::hash::{hash_batch_finish, hash_batch_init, hash_batch_ints, Seed};
use adaptagg::model::{AggQuery, NullTracker, RowKind, Schema, Value};
use adaptagg::net::frame::{decode_frame, encode_frame};
use adaptagg::net::{DataKind, Message, Payload, WireFrame};
use adaptagg::serve::{BrokerConfig, MemoryBroker, ServeConfig};
use adaptagg::storage::{HeapFile, Page, StripView};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per layer figure; the median is reported.
const REPS: usize = 5;
/// Calls per repetition of the SQL compile and broker figures.
const COMPILES: u32 = 1_000;
const ADMITS: u32 = 20_000;
const PAGE_BYTES: usize = 4096;

/// Record every layer figure of `partitions` (the workload's input,
/// `query` its default GROUP BY) into `m`.
pub fn measure(partitions: &[HeapFile], query: &AggQuery, schema: &Schema, m: &mut Metrics) {
    let base: Vec<&Page> = partitions
        .iter()
        .flat_map(|p| (0..p.page_count()).map(move |i| p.page(i).expect("page in range")))
        .collect();
    let rows: usize = base.iter().map(|p| p.tuple_count()).sum();
    let bytes: usize = base.iter().map(|p| p.bytes_used()).sum();
    let mb = bytes as f64 / 1e6;
    let ns_per_row = |secs: f64, n: usize| secs * 1e9 / n as f64;

    let mut scratch = Vec::new();
    let scan = median_secs(REPS, || {
        for page in &base {
            let mut cursor = page.cursor();
            while cursor
                .next_into(&mut scratch)
                .expect("generated page decodes")
            {
                black_box(&scratch);
            }
        }
    });
    m.set("storage.scan_ns_per_row", ns_per_row(scan, rows));

    let mut wire = Vec::with_capacity(PAGE_BYTES);
    let encode = median_secs(REPS, || {
        for page in &base {
            wire.clear();
            page.encode_into(&mut wire);
            black_box(&wire);
        }
    });
    m.set("storage.page_encode_mb_s", mb / encode);

    let encoded: Vec<(Vec<u8>, u32)> = base
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            p.encode_into(&mut out);
            (out, p.tuple_count() as u32)
        })
        .collect();
    let decode = median_of(REPS, || {
        // from_raw takes its buffer by value: copy outside the clock.
        let copies = encoded.clone();
        let t0 = Instant::now();
        for (data, tuples) in copies {
            black_box(Page::from_raw(PAGE_BYTES, data, tuples).expect("wire bytes decode"));
        }
        t0.elapsed().as_secs_f64()
    });
    m.set("storage.page_decode_mb_s", mb / decode);
    drop(encoded);

    let frames: Vec<WireFrame> = base
        .iter()
        .enumerate()
        .map(|(seq, page)| {
            WireFrame::Msg(Message {
                from: 0,
                seq: seq as u64,
                sent_at_ms: 0.0,
                payload: Payload::Data {
                    kind: DataKind::Raw,
                    page: (*page).clone(),
                },
            })
        })
        .collect();
    let mut frame_bytes = 0usize;
    let frame_encode = median_secs(REPS, || {
        frame_bytes = frames
            .iter()
            .map(|f| black_box(encode_frame(f)).len())
            .sum();
    });
    let frame_mb = frame_bytes as f64 / 1e6;
    m.set("net.frame_encode_mb_s", frame_mb / frame_encode);
    let wire_frames: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    drop(frames);
    let frame_decode = median_secs(REPS, || {
        for bytes in &wire_frames {
            black_box(decode_frame(bytes).expect("encoded frame decodes"));
        }
    });
    m.set("net.frame_decode_mb_s", frame_mb / frame_decode);
    drop(wire_frames);

    let (projected, firsts) = project(&base);
    let groups: usize = firsts.iter().map(|p| p.tuple_count()).sum();
    let query = query.remapped_to_projection();

    let mut hashes = Vec::new();
    let hash = median_secs(REPS, || {
        for page in &projected {
            let Some(StripView::Ints(keys)) = page.column(0) else {
                panic!("generated group keys are an Int strip")
            };
            hash_batch_init(Seed::Table, keys.len(), &mut hashes);
            hash_batch_ints(&mut hashes, keys);
            hash_batch_finish(&mut hashes);
            black_box(&hashes);
        }
    });
    m.set("model.hash_batch_ns_per_row", ns_per_row(hash, rows));

    let insert_all = |table: &mut AggTable, pages: &[Page]| {
        for page in pages {
            table
                .insert_page_batched(RowKind::Raw, page, &mut NullTracker, |_, _, _| {
                    unreachable!("the table holds every group")
                })
                .expect("insert succeeds");
        }
    };
    let mut resident = AggTable::new(query.clone(), groups);
    insert_all(&mut resident, &projected);
    let probe = median_secs(REPS, || insert_all(&mut resident, &projected));
    m.set("hashagg.probe_resident_ns_per_row", ns_per_row(probe, rows));
    drop(resident);

    let insert = median_of(REPS, || {
        let mut empty = AggTable::new(query.clone(), groups);
        let t0 = Instant::now();
        insert_all(&mut empty, &firsts);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(empty.len(), groups, "every first occurrence is a new group");
        secs
    });
    m.set("hashagg.insert_new_ns_per_row", ns_per_row(insert, groups));

    let overflow = median_secs(REPS, || {
        let mut agg = HashAggregator::with_defaults(query.clone(), M, PAGE_BYTES);
        for page in &projected {
            agg.push_page(RowKind::Raw, page, &mut NullTracker)
                .expect("push succeeds");
        }
        let (out, _) = agg.finish_rows(&mut NullTracker).expect("finish succeeds");
        assert_eq!(out.len(), groups, "overflow loses no group");
    });
    m.set("hashagg.overflow_ns_per_row", ns_per_row(overflow, rows));

    let compile = median_secs(REPS, || {
        for _ in 0..COMPILES {
            black_box(adaptagg::sql::compile(SERVE_SQL, schema).expect("serve SQL binds"));
        }
    });
    m.set("sql.compile_us", compile * 1e6 / f64::from(COMPILES));

    let cfg = ServeConfig::new(SERVE_MEMORY);
    let broker_cfg = BrokerConfig::new(cfg.memory_budget, cfg.min_grant);
    let mut broker = MemoryBroker::new(partitions.len(), broker_cfg);
    let admit = median_secs(REPS, || {
        for q in 0..u64::from(ADMITS) {
            black_box(broker.try_admit(q).expect("an idle broker admits"));
            broker.finish(q);
        }
    });
    m.set("serve.broker_admit_ns", admit * 1e9 / f64::from(ADMITS));
}

/// The base pages' rows projected to `(g, v)` in 4 KB pages, and the
/// subset holding each group's first occurrence only.
fn project(base: &[&Page]) -> (Vec<Page>, Vec<Page>) {
    let mut all = Vec::new();
    let mut firsts = Vec::new();
    let mut seen = HashSet::new();
    let mut row = Vec::new();
    for page in base {
        let mut cursor = page.cursor();
        while cursor.next_into(&mut row).expect("generated page decodes") {
            let kv = [row[0].clone(), row[1].clone()];
            push(&mut all, &kv);
            if let Value::Int(g) = kv[0] {
                if seen.insert(g) {
                    push(&mut firsts, &kv);
                }
            }
        }
    }
    (all, firsts)
}

fn push(pages: &mut Vec<Page>, row: &[Value]) {
    let fits = match pages.last_mut() {
        Some(page) => page.try_push(row).expect("a projected row fits a page"),
        None => false,
    };
    if !fits {
        let mut page = Page::new(PAGE_BYTES);
        assert!(page.try_push(row).expect("a projected row fits a page"));
        pages.push(page);
    }
}
