//! What a run reports: the metric tables (`BENCHMARK.json` lists the same
//! names; a test holds the two together), the outcome of a run, and how it
//! is printed.

use crate::json;

/// Workload names. Later issues cite them; they do not change.
pub const WORKLOADS: [&str; 4] = ["dense64", "sparse128", "cluster128x2", "service16"];

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("ok_frac", "fraction"),
    ("exchange_bytes_per_op", "bytes"),
    ("peak_alloc_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer that a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 82] = [
    ("fft.contig_gflops", "GFLOP/s"),
    ("fft.strided_gflops", "GFLOP/s"),
    ("fft.fft2d_plane_s", "s"),
    ("fft.pruned_process_s", "s"),
    ("fft.stream_gbs", "GB/s"),
    ("octree.plan_build_s", "s"),
    ("octree.plan_cells", "count"),
    ("octree.plan_samples", "count"),
    ("octree.compression_x", "ratio"),
    ("octree.capture_s", "s"),
    ("octree.capture_msamples_s", "Msamples/s"),
    ("octree.add_region_s", "s"),
    ("octree.add_region_mcells_s", "Mcells/s"),
    ("octree.region_payload_s", "s"),
    ("octree.from_payload_s", "s"),
    ("octree.plan_cache_hit_frac", "fraction"),
    ("core.compress_domain_s", "s"),
    ("core.compress_gflops", "GFLOP/s"),
    ("core.stage1_s", "s"),
    ("core.stage2_s", "s"),
    ("core.stage3_s", "s"),
    ("core.compress_all_s", "s"),
    ("core.accumulate_s", "s"),
    ("core.compress_frac", "fraction"),
    ("core.accumulate_frac", "fraction"),
    ("core.domains_processed", "count"),
    ("core.domains_skipped", "count"),
    ("core.samples_per_op", "count"),
    ("core.traditional_convolve_s", "s"),
    ("core.alloc_count_per_op", "count"),
    ("core.alloc_bytes_per_op", "bytes"),
    ("comm.rank_compute_s", "s"),
    ("comm.rank_accumulate_s", "s"),
    ("comm.imbalance_x", "ratio"),
    ("comm.pack_s", "s"),
    ("comm.wait_s", "s"),
    ("comm.exchange_s", "s"),
    ("comm.unpack_s", "s"),
    ("comm.bytes_per_op", "bytes"),
    ("comm.physical_bytes_per_op", "bytes"),
    ("comm.messages_per_op", "count"),
    ("comm.rounds_per_op", "count"),
    ("comm.retransmits", "count"),
    ("comm.modeled_s", "s"),
    ("comm.dist_fft_convolve_s", "s"),
    ("comm.dist_fft_bytes", "bytes"),
    ("comm.dist_fft_rounds", "count"),
    ("comm.dist_fft_modeled_s", "s"),
    ("comm.reduction_x", "ratio"),
    ("service.encode_req_s", "s"),
    ("service.decode_req_s", "s"),
    ("service.encode_resp_s", "s"),
    ("service.decode_resp_s", "s"),
    ("service.registry_lookup_s", "s"),
    ("service.plan_build_s", "s"),
    ("service.serve_solo_dense_s", "s"),
    ("service.serve_solo_delta_s", "s"),
    ("service.roundtrip_dense_s", "s"),
    ("service.roundtrip_delta_s", "s"),
    ("service.overhead_s", "s"),
    ("service.offered", "count"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("service.plan_hits", "count"),
    ("service.plan_builds", "count"),
    ("service.plan_evictions", "count"),
    ("service.max_queue_depth", "count"),
    ("service.latency_dense_p50_ms", "ms"),
    ("service.latency_delta_p50_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.rate_achieved_rps", "1/s"),
    ("loadgen.sent", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("obs.trace_overhead_se", "fraction"),
    ("obs.span_coverage_frac", "fraction"),
    ("obs.traced_ops", "count"),
    ("obs.traced_op_p50_ms", "ms"),
    ("obs.host_speed_x", "ratio"),
    ("op_tail_ms", "ms"),
    ("rel_l2_err", "ratio"),
    ("failed_frac", "fraction"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (first few) and which checks broke; empty when
    /// `failed == 0`.
    pub failures: Vec<String>,
    /// `(name, value)`; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form context printed with the metrics (bases of rates, the
    /// tail percentile and its sample count, array sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Records a failed check; the first few reasons are kept.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Fails every attempted op: a broken run-wide check (accuracy limit,
    /// conservation law) leaves no op trustworthy.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted.max(1);
        self.failures.insert(0, why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The table a run of this kind reports.
pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints `workload metric value unit` lines, the notes, and — as the last
/// line — the result object the driver reads. Every metric of the run's
/// table is present: an end-to-end metric the workload failed to set is a
/// bug (panic); a per-layer metric it does not have reads 0.
pub fn print(workload: &str, traced: bool, out: &Outcome) {
    let rows: Vec<(&str, f64, &str)> = table(traced)
        .iter()
        .map(|&(name, unit)| {
            let value = match out.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("{workload} did not report end-to-end metric {name}"),
            };
            (name, value, unit)
        })
        .collect();
    for (name, _) in &out.metrics {
        assert!(
            rows.iter().any(|r| r.0 == *name),
            "{workload} reported {name}, which is not in the {} table",
            if traced { "per-layer" } else { "end-to-end" }
        );
    }
    for (name, value, unit) in &rows {
        println!("{workload} {name} {} {unit}", json::number(*value));
    }
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    for why in &out.failures {
        println!("# {workload}: FAILED: {why}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is the contract other tools read; the tables above
    /// are what the binary prints. They must name the same things.
    #[test]
    fn tables_match_benchmark_json() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!((0.0..=0.25).contains(&bound));
        }
    }

    #[test]
    fn outcome_counts_failures_and_overwrites_metrics() {
        let mut o = Outcome {
            attempted: 5,
            ..Default::default()
        };
        o.set("op_p50_ms", 1.0);
        o.set("op_p50_ms", 2.0);
        assert_eq!(o.get("op_p50_ms"), Some(2.0));
        assert!(o.correct());
        o.fail("checksum".into());
        assert_eq!((o.failed, o.correct()), (1, false));
        o.fail_all("accuracy".into());
        assert_eq!(o.failed, 5);
        assert_eq!(o.failures[0], "accuracy");
    }
}
