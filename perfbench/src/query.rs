//! The closed-loop workloads: one caller runs A-2P back to back.

use crate::spec::{Keys, Workload, PHASE_WALLS};
use crate::stats::{median, percentile, sorted, Metrics, MIN_SAMPLES, TAIL_PCT};
use crate::Outcome;
use adaptagg::prelude::*;
use adaptagg::storage::HeapFile;
use adaptagg::workload::ZipfSpec;
use std::time::{Duration, Instant};

/// Set-up repeats at least this often, and for at least
/// `SETUP_MIN_S` seconds; `setup_s` is the median repetition.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Untimed queries after each set-up, so lazy start-up cost lands in
/// `setup_s` and not in the latencies.
const WARMUP_QUERIES: usize = 2;

/// The workload's input for `seed`.
pub fn generate(w: &Workload, seed: u64) -> Vec<HeapFile> {
    match w.keys {
        Keys::Uniform => generate_partitions(
            &RelationSpec::uniform(w.tuples, w.groups).with_seed(seed),
            w.nodes,
        ),
        Keys::Zipf(s) => ZipfSpec {
            seed,
            ..ZipfSpec::new(w.tuples, w.groups, s)
        }
        .generate_partitions(w.nodes),
    }
}

fn cluster(w: &Workload, traced: bool) -> ClusterConfig {
    let mut c = ClusterConfig::new(w.nodes, w.params.clone()).with_threads(w.threads);
    c.trace = traced;
    c
}

/// Longest a timed loop runs to reach its sample floor.
const SAMPLE_FLOOR_CAP: Duration = Duration::from_secs(100);

/// Everything a timed loop saw.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    virtual_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
}

/// Run queries back to back for `seconds` (and at least `min_samples`
/// times), checking each result against `reference`. `inspect` sees
/// every successful outcome after its clock stopped.
fn closed_loop(
    w: &Workload,
    parts: &[HeapFile],
    reference: &[ResultRow],
    traced: bool,
    seconds: f64,
    min_samples: usize,
    mut inspect: impl FnMut(&RunOutcome),
) -> Samples {
    let query = default_query();
    let cluster = cluster(w, traced);
    let mut s = Samples::default();
    let start = Instant::now();
    // A slow host may need longer than `seconds` for the tail's sample
    // floor; past `SAMPLE_FLOOR_CAP` the run stops short and says so,
    // to stay inside the 180 s a run may take.
    let cap = SAMPLE_FLOOR_CAP.max(Duration::from_secs_f64(seconds));
    while start.elapsed().as_secs_f64() < seconds
        || (s.attempted < min_samples && start.elapsed() < cap)
    {
        s.attempted += 1;
        let t0 = Instant::now();
        let run = run_algorithm(AlgorithmKind::AdaptiveTwoPhase, &cluster, parts, &query);
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        match run {
            Ok(out) if out.rows == reference => {
                s.wall_ms.push(wall);
                s.virtual_ms.push(out.elapsed_ms());
                inspect(&out);
            }
            Ok(_) => {
                eprintln!("{}: query {} returned wrong rows", w.name, s.attempted);
                s.failed += 1;
            }
            Err(e) => {
                eprintln!("{}: query {} failed: {e}", w.name, s.attempted);
                s.failed += 1;
            }
        }
    }
    if s.attempted < min_samples {
        eprintln!(
            "{}: only {} samples in {:?}",
            w.name,
            s.attempted,
            start.elapsed()
        );
    }
    s
}

/// Generate the input and run warm-up queries, `SETUP_REPS` times and
/// for at least `SETUP_MIN_S`; returns the last input, the median
/// set-up seconds and the median generation seconds.
fn setup(w: &Workload, seed: u64) -> (Vec<HeapFile>, f64, f64) {
    let query = default_query();
    let cluster = cluster(w, false);
    let mut parts = Vec::new();
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(std::mem::take(&mut parts));
        let t0 = Instant::now();
        parts = generate(w, seed);
        gens.push(t0.elapsed().as_secs_f64());
        for _ in 0..WARMUP_QUERIES {
            run_algorithm(AlgorithmKind::AdaptiveTwoPhase, &cluster, &parts, &query)
                .expect("warm-up query succeeds");
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    (parts, median(&setups), median(&gens))
}

/// Queries whose virtual time differs in any bit from the first one's.
fn virtual_time_drift(w: &Workload, virtual_ms: &[f64]) -> usize {
    let Some(first) = virtual_ms.first() else {
        return 0;
    };
    let drift = virtual_ms
        .iter()
        .filter(|v| v.to_bits() != first.to_bits())
        .count();
    if drift > 0 {
        eprintln!("{}: virtual time drifted on {drift} queries", w.name);
    }
    drift
}

/// One run of a query workload.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (parts, setup_s, generate_s) = setup(w, seed);
    let query = default_query();
    let reference = reference_aggregate(&parts, &query).expect("reference aggregate");
    let mut m = Metrics::default();
    if !trace {
        let s = closed_loop(w, &parts, &reference, false, seconds, MIN_SAMPLES, |_| {});
        let drift = if w.pinned_virtual_time {
            virtual_time_drift(w, &s.virtual_ms)
        } else {
            0
        };
        let lat = sorted(s.wall_ms.clone());
        if !lat.is_empty() {
            m.set("latency_p50_ms", percentile(&lat, 50));
            m.set("latency_p90_ms", percentile(&lat, TAIL_PCT));
            let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
            m.set("tuples_per_s", (w.tuples * lat.len()) as f64 / busy_s);
        }
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return Outcome {
            attempted: s.attempted,
            failed: s.failed + drift,
            metrics: m,
        };
    }

    // Traced run: half the time untraced (the p50 the phases explain),
    // half traced (the phases), then the layer timings.
    m.set("workload.generate_s", generate_s);
    let plain = closed_loop(w, &parts, &reference, false, seconds / 2.0, 1, |_| {});
    let mut phases = [0u64; 5];
    let mut link_share = 0.0;
    let mut last = None;
    let traced = closed_loop(w, &parts, &reference, true, seconds / 2.0, 1, |out| {
        let trace = out.trace.as_ref().expect("traced run carries a trace");
        for (phase, total) in trace.phase_totals() {
            if let Some(i) = PHASE_WALLS.iter().position(|(p, _)| *p == phase.name()) {
                phases[i] += total.wall_us;
            }
        }
        link_share += max_link_share(trace);
        last = Some((
            out.total_spilled(),
            out.adapted_nodes().len(),
            out.run.total_net(),
        ));
    });
    let n = traced.wall_ms.len().max(1) as f64;
    for (i, (_, name)) in PHASE_WALLS.iter().enumerate() {
        m.set(name, phases[i] as f64 / 1e3 / n);
    }
    m.set("net.max_link_share", link_share / n);
    let (spilled, adapted, net) = last.unwrap_or_default();
    m.set("hashagg.spilled_tuples", spilled as f64);
    m.set("algos.adapted_nodes", adapted as f64);
    m.set(
        "net.pages_sent",
        (net.raw_pages_sent + net.partial_pages_sent) as f64,
    );
    m.set("net.bytes_sent", net.bytes_sent as f64);

    let virtuals: Vec<f64> = plain
        .virtual_ms
        .iter()
        .chain(&traced.virtual_ms)
        .copied()
        .collect();
    let drift = if w.pinned_virtual_time {
        virtual_time_drift(w, &virtuals)
    } else {
        0
    };
    let v = sorted(virtuals);
    if let (Some(lo), Some(hi)) = (v.first(), v.last()) {
        m.set("exec.virtual_ms", percentile(&v, 50));
        m.set("exec.virtual_ms_spread", hi - lo);
    }
    set_overhead(&mut m, &plain.wall_ms, &traced.wall_ms);
    let schema = RelationSpec::uniform(w.tuples, w.groups).schema();
    crate::layers::measure(&parts, &query, &schema, &mut m);
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed + drift,
        metrics: m,
    }
}

/// Record the untraced and traced medians and the tracing overhead.
fn set_overhead(m: &mut Metrics, untraced_ms: &[f64], traced_ms: &[f64]) {
    if untraced_ms.is_empty() || traced_ms.is_empty() {
        return;
    }
    let plain = percentile(&sorted(untraced_ms.to_vec()), 50);
    let traced = percentile(&sorted(traced_ms.to_vec()), 50);
    m.set("obs.untraced_p50_ms", plain);
    m.set("obs.traced_p50_ms", traced);
    m.set("obs.trace_overhead_frac", traced / plain - 1.0);
}

/// The busiest directed link's share of all bytes shipped (0 when
/// nothing was shipped).
fn max_link_share(trace: &RunTrace) -> f64 {
    let bytes = trace
        .nodes
        .iter()
        .flat_map(|n| n.links.iter().map(|l| l.bytes));
    let (max, total) = bytes.fold((0u64, 0u64), |(m, t), b| (m.max(b), t + b));
    if total == 0 {
        0.0
    } else {
        max as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn cardinality(w: &Workload, seed: u64) -> (Vec<HeapFile>, usize) {
        let parts = generate(w, seed);
        let rows = reference_aggregate(&parts, &default_query())
            .expect("reference")
            .len();
        (parts, rows)
    }

    fn first_page_rows(parts: &[HeapFile]) -> Vec<Vec<Value>> {
        parts[0]
            .page(0)
            .expect("a first page")
            .decode_all()
            .expect("decodes")
    }

    #[test]
    fn closed_loop_runs_past_its_seconds_until_the_tail_has_ten_samples() {
        let w = Workload {
            tuples: 2_000,
            groups: 50,
            ..workload("local_1n").unwrap()
        };
        let parts = generate(&w, 3);
        let reference = reference_aggregate(&parts, &default_query()).expect("reference");
        let s = closed_loop(&w, &parts, &reference, false, 1e-6, MIN_SAMPLES, |_| {});
        assert_eq!((s.attempted, s.failed), (MIN_SAMPLES, 0));
        assert_eq!(s.wall_ms.len(), MIN_SAMPLES);
    }

    #[test]
    fn seed_changes_uniform_inputs_but_not_cardinality() {
        for name in ["local_1n", "repart_8n"] {
            let w = workload(name).unwrap();
            let (a, ca) = cardinality(&w, 1);
            let (b, cb) = cardinality(&w, 2);
            assert_ne!(first_page_rows(&a), first_page_rows(&b), "{name}");
            assert_eq!((ca, cb), (w.groups, w.groups), "{name}");
        }
    }

    #[test]
    fn seed_changes_zipf_inputs_and_the_run_matches_its_reference() {
        // Zipf draws ranks, so tail groups may be absent and the result
        // cardinality is the reference's, not the configured count.
        let w = workload("skew_4n").unwrap();
        let (a, ca) = cardinality(&w, 1);
        let (b, _) = cardinality(&w, 2);
        assert_ne!(first_page_rows(&a), first_page_rows(&b));
        assert!(ca < w.groups && ca > w.groups / 2, "{ca}");
        let out = run_algorithm(
            AlgorithmKind::AdaptiveTwoPhase,
            &cluster(&w, false),
            &a,
            &default_query(),
        )
        .expect("query succeeds");
        assert_eq!(out.rows.len(), ca);
    }
}
