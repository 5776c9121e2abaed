//! The metric catalogue, the result line and the comparable record file.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("gflops", "GFLOP/s"),
];

/// Per-layer metrics (traced run), `(name, unit)`. A layer the workload
/// never enters reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("core.plan_build_s", "s"),
    ("core.tasks", "count"),
    ("core.total_weight", "count"),
    ("core.cp_weight", "count"),
    ("core.pred_gflops", "GFLOP/s"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("kernels.geqrt_gflops", "GFLOP/s"),
    ("kernels.ttqrt_gflops", "GFLOP/s"),
    ("kernels.unmqr_gflops", "GFLOP/s"),
    ("kernels.ttmqr_gflops", "GFLOP/s"),
    ("kernels.seq_model_s", "s"),
    ("matrix.tile_copy_s", "s"),
    ("matrix.tile_copy_gbps", "GB/s"),
    ("context.factor_s_p50", "s"),
    ("context.factor_1t_s_p50", "s"),
    ("context.speedup", "x"),
    ("context.model_eff", "ratio"),
    ("context.insitu_overhead", "ratio"),
    ("driver.apply_qh_s_p50", "s"),
    ("driver.r_s_p50", "s"),
    ("solve.backsub_s_p50", "s"),
    ("driver.apply_useful_frac", "ratio"),
    ("service.submit_us_p50", "us"),
    ("service.latency_ms_p50.light", "ms"),
    ("service.latency_ms_p50.busy", "ms"),
    ("service.latency_ms_tail.light", "ms"),
    ("service.latency_ms_tail.busy", "ms"),
    ("service.latency_tail_pct.light", "%"),
    ("service.latency_tail_pct.busy", "%"),
    ("service.latency_samples.light", "count"),
    ("service.latency_samples.busy", "count"),
    ("service.wait_ms_p50.light", "ms"),
    ("service.wait_ms_p50.busy", "ms"),
    ("service.wait_ms_p50.capacity", "ms"),
    ("service.fused_width.light", "items"),
    ("service.fused_width.busy", "items"),
    ("service.fused_width.capacity", "items"),
    ("service.mixed_group_frac.light", "ratio"),
    ("service.mixed_group_frac.busy", "ratio"),
    ("service.mixed_group_frac.capacity", "ratio"),
    ("service.max_queue_depth.light", "count"),
    ("service.max_queue_depth.busy", "count"),
    ("service.max_queue_depth.capacity", "count"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("self_ms.item", "ms"),
    ("self_ms.context.factorize", "ms"),
    ("self_ms.driver.apply_qh", "ms"),
    ("self_ms.driver.r", "ms"),
    ("self_ms.solve.backsub", "ms"),
    ("self_ms.loadgen.late", "ms"),
    ("self_ms.service.submit", "ms"),
    ("self_ms.service.wait", "ms"),
];

/// The catalogue's own `&'static str` for a per-layer metric built at run
/// time (e.g. `service.wait_ms_p50.light`).
///
/// # Panics
/// Panics on a name the catalogue lacks: a bug in the harness.
pub fn per_layer_key(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// A metric name the benchmark contract accepts: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON number with every digit `f64` carries (`Debug` formatting
/// round-trips); non-finite values, which JSON cannot hold, become `0`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, the metrics in catalogue order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    s.push_str("}}");
    s
}

/// Writes a record: provenance lines then one `metric<TAB>name<TAB>value
/// <TAB>unit` line per metric.
pub fn write_record(
    path: &Path,
    provenance: &[(&'static str, String)],
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut s = String::new();
    for (k, v) in provenance {
        let _ = writeln!(s, "provenance\t{k}\t{v}");
    }
    for (name, unit) in catalogue {
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(s, "metric\t{name}\t{}\t{unit}", number(v));
    }
    std::fs::write(path, s)
}

/// A parsed record: provenance and metric values.
#[derive(Debug, Default)]
pub struct Record {
    pub provenance: BTreeMap<String, String>,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_record(text: &str) -> Record {
    let mut r = Record::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["provenance", k, v] => {
                r.provenance.insert(k.to_string(), v.to_string());
            }
            ["metric", name, v, _unit] => {
                if let Ok(v) = v.parse() {
                    r.metrics.insert(name.to_string(), v);
                }
            }
            _ => {}
        }
    }
    r
}

/// Compares two records metric by metric (`b / a`). Refuses, with an
/// error, records that carry different host fingerprints.
pub fn compare(a: &Record, b: &Record) -> Result<String, String> {
    let fp = |r: &Record| r.provenance.get("host_fingerprint").cloned();
    match (fp(a), fp(b)) {
        (Some(x), Some(y)) if x == y => {}
        (x, y) => {
            return Err(format!(
                "refusing to compare records from different hosts (fingerprints {x:?} vs {y:?})"
            ))
        }
    }
    let mut s = String::new();
    for (name, va) in &a.metrics {
        if let Some(vb) = b.metrics.get(name) {
            let ratio = if *va == 0.0 { f64::NAN } else { vb / va };
            let _ = writeln!(s, "{name:<28} {va:>14.6} {vb:>14.6} {ratio:>9.4}");
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "invalid metric name {n:?}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn name_validity_rule() {
        assert!(valid_name("service.wait_ms_p50"));
        assert!(valid_name("0-based"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/2"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// The catalogue here and the lists in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &obj[at + f.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("closing quote");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = BTreeMap::new();
        v.insert("setup_s", 0.8127);
        v.insert("gflops", f64::NAN);
        let line = result_line(true, 10, 0, &[("setup_s", "s"), ("gflops", "GFLOP/s")], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"gflops\": {\"value\": 0.0, \"unit\": \"GFLOP/s\"}}}"
        );
    }

    #[test]
    fn records_round_trip_and_foreign_hosts_are_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("r.tsv");
        let mut v = BTreeMap::new();
        v.insert("setup_s", 1.5);
        let prov = vec![("host_fingerprint", "abc".to_string())];
        write_record(&path, &prov, &[("setup_s", "s")], &v).expect("writable temp dir");
        let a = parse_record(&std::fs::read_to_string(&path).expect("just written"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(a.metrics["setup_s"], 1.5);
        assert_eq!(a.provenance["host_fingerprint"], "abc");
        let mut b = parse_record("provenance\thost_fingerprint\tabc\nmetric\tsetup_s\t3.0\ts\n");
        assert!(compare(&a, &b).expect("same host").contains("2.0000"));
        b.provenance
            .insert("host_fingerprint".into(), "other".into());
        assert!(compare(&a, &b).is_err());
    }
}
