//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root carries the same tables for the driver; a unit test keeps the
//! two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_steady",
        why: "262K x 8 embedded scan/aggregate/rollup rotation (16 MB, 8x the per-core L2): h2o-exec kernels and zone maps do nearly all the work, so a kernel or pruning change shows here and nowhere else",
    },
    Workload {
        name: "join_steady",
        why: "262K-row fact x 64K-row dim hash joins (1% bloom-filtered, 50% probe-bound, fused aggregate, rollup): h2o-exec join/bloom dominate, scan kernels do little",
    },
    Workload {
        name: "serve_small",
        why: "2 closed-loop TCP clients on a cache-resident 64K x 8 relation: wire parse/encode, server session/admission and core plan/opcache are the blocking path, kernels run for microseconds",
    },
    Workload {
        name: "adapt_shift",
        why: "cold 100-attribute relation under 4 Fig. 7 phases whose class pool switches 3 times: adviser, cost model, reorganisation and opcache misses work here and idle elsewhere",
    },
    Workload {
        name: "scan_ingest",
        why: "scan_steady's reader beside an open-loop writer of 250 32-row batches/s: segments, COW tails and snapshot publish, so a read gain paid by the writer (or the reverse) shows",
    },
];

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "insert_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. Layers are
/// the crates; a metric of a layer a workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 39] = [
    ("wire.parse_us", "us", Better::Lower),
    ("wire.encode_us", "us", Better::Lower),
    ("wire.resp_bytes", "B", Better::Lower),
    ("server.decode_us", "us", Better::Lower),
    ("server.admit_wait_us", "us", Better::Lower),
    ("server.shed", "count", Better::Lower),
    ("server.transport_us", "us", Better::Lower),
    ("core.plan_us", "us", Better::Lower),
    ("core.overhead_us", "us", Better::Lower),
    ("exec.opcache_hit_ratio", "ratio", Better::Higher),
    ("exec.compile_us", "us", Better::Lower),
    ("exec.execute_us", "us", Better::Lower),
    ("exec.ns_per_row", "ns", Better::Lower),
    ("exec.rows_per_s_core", "1/s", Better::Higher),
    ("exec.seg_skip_ratio", "ratio", Better::Higher),
    ("exec.join_us", "us", Better::Lower),
    ("exec.bloom_reject_ratio", "ratio", Better::Higher),
    ("adapt.advise_ms", "ms", Better::Lower),
    ("adapt.shifts", "count", Better::Lower),
    ("adapt.adaptations", "count", Better::Lower),
    ("adapt.queries_to_stable", "count", Better::Lower),
    ("reorg.build_ms", "ms", Better::Lower),
    ("reorg.mb_per_s", "MB/s", Better::Higher),
    ("reorg.layouts_created", "count", Better::Lower),
    ("reorg.layouts_evicted", "count", Better::Lower),
    ("storage.append_us_per_batch", "us", Better::Lower),
    ("storage.bytes_cloned_per_row", "B", Better::Lower),
    ("storage.snapshots_published", "count", Better::Lower),
    ("storage.segments_sealed", "count", Better::Higher),
    ("storage.total_bytes", "B", Better::Lower),
    ("share.wire", "ratio", Better::Lower),
    ("share.server", "ratio", Better::Lower),
    ("share.core", "ratio", Better::Lower),
    ("share.exec", "ratio", Better::Lower),
    ("share.adapt", "ratio", Better::Lower),
    ("share.reorg", "ratio", Better::Lower),
    ("share.unaccounted", "ratio", Better::Lower),
    ("trace.e2e_us", "us", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Measured window of one run, in seconds (`run_seconds` in
/// `BENCHMARK.json`; the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_expr::Json;

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_spec() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("paths"),
            &Json::Arr(vec![Json::Str("benchmark".into())])
        );
        assert_eq!(doc.get("run_seconds"), &Json::Int(RUN_SECONDS as i64));

        let workloads = doc.get("workloads").arr("workloads").unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").str("name").unwrap(), w.name);
            assert_eq!(j.get("why").str("why").unwrap(), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        let e2e = doc.get("end_to_end").arr("end_to_end").unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").str("name").unwrap(), m.name);
            assert_eq!(j.get("unit").str("unit").unwrap(), m.unit);
            assert_eq!(j.get("better").str("better").unwrap(), m.better.name());
            assert_eq!(j.get("bound").num("bound").unwrap(), m.bound);
            assert!(
                m.bound <= 0.25,
                "{}: the contract caps bounds at 25%",
                m.name
            );
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let layers = doc.get("per_layer").arr("per_layer").unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").str("name").unwrap(), *name);
            assert_eq!(j.get("unit").str("unit").unwrap(), *unit);
            assert_eq!(j.get("better").str("better").unwrap(), better.name());
        }
    }
}
