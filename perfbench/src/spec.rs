//! The workloads and the metric catalogue (mirrored by `BENCHMARK.json`).

use adaptagg::model::CostParams;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("tuples_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("model.hash_batch_ns_per_row", "ns/row"),
    ("storage.scan_ns_per_row", "ns/row"),
    ("storage.page_encode_mb_s", "MB/s"),
    ("storage.page_decode_mb_s", "MB/s"),
    ("hashagg.probe_resident_ns_per_row", "ns/row"),
    ("hashagg.insert_new_ns_per_row", "ns/row"),
    ("hashagg.overflow_ns_per_row", "ns/row"),
    ("hashagg.spilled_tuples", "count"),
    ("exec.scan_wall_ms", "ms"),
    ("exec.partition_wall_ms", "ms"),
    ("exec.merge_wall_ms", "ms"),
    ("exec.spill_wall_ms", "ms"),
    ("exec.virtual_ms", "ms"),
    ("exec.virtual_ms_spread", "ms"),
    ("algos.adapted_nodes", "count"),
    ("net.frame_encode_mb_s", "MB/s"),
    ("net.frame_decode_mb_s", "MB/s"),
    ("net.pages_sent", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.max_link_share", "fraction"),
    ("sql.compile_us", "us"),
    ("serve.broker_admit_ns", "ns"),
    ("obs.untraced_p50_ms", "ms"),
    ("obs.traced_p50_ms", "ms"),
    ("obs.trace_overhead_frac", "fraction"),
];

/// Trace phases (by `PhaseKind::name`) reported as per-query wall
/// time, with their metric names. A-2P, the one algorithm the
/// workloads run, opens no `local-agg` span.
pub const PHASE_WALLS: [(&str, &str); 4] = [
    ("scan", "exec.scan_wall_ms"),
    ("partition", "exec.partition_wall_ms"),
    ("merge", "exec.merge_wall_ms"),
    ("spill", "exec.spill_wall_ms"),
];

/// The paper's hash-table budget `M` (entries per node).
pub const M: usize = 10_000;

/// Broker budget `M` (entries per node) and query text of the served
/// path, whose layers are timed on every workload.
pub const SERVE_MEMORY: usize = 3_200;
pub const SERVE_SQL: &str = "SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g";

/// How a workload's group ids are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Every group appears; ids are uniform.
    Uniform,
    /// Zipf(s) over the group ranks.
    Zipf(f64),
}

/// A closed-loop workload: one caller runs A-2P back to back.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    /// Morsel worker threads per node.
    pub threads: usize,
    pub tuples: usize,
    pub groups: usize,
    pub keys: Keys,
    pub params: CostParams,
    /// Whether virtual time must be bit-identical across queries (true
    /// on the high-speed network model).
    pub pinned_virtual_time: bool,
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["local_1n", "repart_8n", "skew_4n"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let name = *NAMES.iter().find(|n| **n == name)?;
    let base = Workload {
        name,
        nodes: 1,
        threads: 1,
        tuples: 400_000,
        groups: 100_000,
        keys: Keys::Uniform,
        params: CostParams::paper_default(),
        pinned_virtual_time: true,
    };
    Some(match name {
        "local_1n" => Workload {
            threads: 2,
            groups: 8_000,
            ..base
        },
        "repart_8n" => Workload {
            nodes: 8,
            params: CostParams::cluster_default(),
            pinned_virtual_time: false,
            ..base
        },
        // In-process: over TCP loopback a query ends on the next 50 ms
        // heartbeat tick (`TcpTransport::drop` joins the heartbeat
        // thread), so the p50 jumped between 113 and 160 ms from run
        // to run as the host's speed drifted.
        "skew_4n" => Workload {
            nodes: 4,
            keys: Keys::Zipf(1.0),
            ..base
        },
        _ => unreachable!("every name in NAMES has a workload"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

    /// `(name, unit)` pairs of one metric array in `BENCHMARK.json`,
    /// read without a JSON library: the file keeps one metric per line.
    fn catalogue_in_benchmark_json(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[at..at + line[at..].find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(catalogue_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(catalogue_in_benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
        for name in NAMES {
            assert!(workload(name).is_some());
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn workloads_sit_either_side_of_the_budget() {
        let local = workload("local_1n").expect("known workload");
        assert!(local.groups < M && local.threads > 1);
        for name in ["repart_8n", "skew_4n"] {
            let w = workload(name).expect("known workload");
            assert!(w.groups / w.nodes > M && w.threads == 1, "{name}");
        }
    }
}
