//! The metrics every run reports, by name and unit, as `BENCHMARK.json`
//! lists them.
//!
//! An untraced run reports every end-to-end metric and a traced run every
//! per-layer metric, whatever the workload. The end-to-end metrics apply to
//! every workload. A per-layer metric belongs to the layers one workload
//! runs; on a workload that never enters that layer it reads 0 (no time in
//! it, no bytes through it, no queries to it).

/// Untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")];

/// Traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("tensor.gram.self_s", "s"),
    ("tensor.gram.gflops", "GF/s"),
    ("tensor.gram.frac_peak", "frac"),
    ("tensor.gram.mode0.self_s", "s"),
    ("tensor.gram.mode1.self_s", "s"),
    ("tensor.gram.mode2.self_s", "s"),
    ("tensor.gram.mode3.self_s", "s"),
    ("tensor.gram.mode4.self_s", "s"),
    ("tensor.ttm.self_s", "s"),
    ("tensor.ttm.gflops", "GF/s"),
    ("tensor.ttm.frac_peak", "frac"),
    ("tensor.ttm.mode0.self_s", "s"),
    ("tensor.ttm.mode1.self_s", "s"),
    ("tensor.ttm.mode2.self_s", "s"),
    ("tensor.ttm.mode3.self_s", "s"),
    ("tensor.ttm.mode4.self_s", "s"),
    ("linalg.eig.self_s", "s"),
    ("linalg.gemm.peak_gflops", "GF/s"),
    ("core.sthosvd.self_s", "s"),
    ("core.hooi.self_s", "s"),
    ("core.hooi.iterations", "count"),
    ("core.flops", "flop"),
    ("core.error_bound", "frac"),
    ("core.rel_error", "frac"),
    ("exec.speedup", "ratio"),
    ("store.encode.self_s", "s"),
    ("store.encode_mbps", "MB/s"),
    ("store.bytes_written", "bytes"),
    ("store.decode_mbps", "MB/s"),
    ("compression_ratio", "ratio"),
    ("core.dist.scatter_s", "s"),
    ("core.dist.gram.self_s", "s"),
    ("core.dist.evecs.self_s", "s"),
    ("core.dist.ttm.self_s", "s"),
    ("store.gather_write.self_s", "s"),
    ("dist.strong_efficiency", "frac"),
    ("distmem.words_sent", "words"),
    ("distmem.messages_sent", "count"),
    ("distmem.collective_calls", "count"),
    ("distmem.words_model_ratio", "ratio"),
    ("net.spawn_s", "s"),
    ("net.alpha_us", "us"),
    ("net.beta_mbps", "MB/s"),
    ("net.wire_bytes", "bytes"),
    ("net.wire_overhead_frac", "frac"),
    ("store.query.element.p50_ms", "ms"),
    ("serve.element.p50_ms", "ms"),
    ("store.query.elements.p50_ms", "ms"),
    ("serve.elements.p50_ms", "ms"),
    ("store.query.series.p50_ms", "ms"),
    ("serve.series.p50_ms", "ms"),
    ("store.query.plane.p50_ms", "ms"),
    ("serve.plane.p50_ms", "ms"),
    ("store.query.slice.p50_ms", "ms"),
    ("serve.slice.p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.busy_rejections", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.response_bytes", "bytes"),
    ("store.cache.hit_ratio", "frac"),
    ("store.cache.decoded_chunks", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("failed_frac", "frac"),
];

/// The metrics a run must report: `(name, unit)`.
pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;

    /// The `"name": "…"` values of one top-level list of `BENCHMARK.json`,
    /// each with the `"unit"` that follows it (if any) before the next name.
    fn listed(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        // The file is indented by two spaces a level: a top-level list
        // closes at the start of a line (a `why` may hold brackets).
        let end = body.find("\n  ]").expect("the list is closed");
        let quoted = |s: &str, field: &str| -> Vec<(usize, String)> {
            let tag = format!("\"{field}\": \"");
            s.match_indices(&tag)
                .map(|(i, _)| {
                    let v = &s[i + tag.len()..];
                    (i, v[..v.find('"').expect("closing quote")].to_string())
                })
                .collect()
        };
        let names = quoted(&body[..end], "name");
        let units = quoted(&body[..end], "unit");
        names
            .iter()
            .enumerate()
            .map(|(k, (at, name))| {
                let next = names.get(k + 1).map_or(end, |(i, _)| *i);
                let unit = units
                    .iter()
                    .find(|(i, _)| i > at && *i < next)
                    .map(|(_, u)| u.clone());
                (name.clone(), unit)
            })
            .collect()
    }

    #[test]
    fn the_catalogue_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, Option<String>)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(listed(&json, key), want, "{key}");
        }
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, ["compress", "dist_tcp", "serve_query"]);
    }

    #[test]
    fn names_are_valid_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_metric_name(n), "{n}");
            assert!(!all[..i].contains(n), "{n} is listed twice");
        }
    }
}
