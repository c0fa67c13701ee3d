//! The repository's benchmark: runs one named workload for a given
//! seed and run length, checks the program's outputs, and prints one
//! JSON line with the operations attempted and failed and every metric.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run also times each layer and prints the per-layer
//! metrics instead (a layer the workload does not run reads 0). See
//! `README.md` for the workloads and metrics.

mod alloc;
mod cpu;
mod probe;
mod serve_wl;
mod stats;
mod tm3;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("wall_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("cpu_ms_per_op", "ms"),
];

/// The per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 36] = [
    ("core.ingest.us", "us"),
    ("core.featcache.bow_us", "us"),
    ("core.featcache.bow_hit_ratio", "ratio"),
    ("core.featcache.retained_mb", "MiB"),
    ("serve.bundle.classify_us", "us"),
    ("serve.bundle.assemble_us", "us"),
    ("core.report.render_us", "us"),
    ("serve.bundle.report_us", "us"),
    ("serve.bundle.allocs_per_report", "count"),
    ("serve.bundle.alloc_kb_per_report", "KiB"),
    ("serve.http.transport_us", "us"),
    ("textrep.featurize_s", "s"),
    ("core.text.gather_s", "s"),
    ("classicml.svm.fit_s", "s"),
    ("classicml.forest.fit_s", "s"),
    ("neuralnet.mlp.fit_s", "s"),
    ("classicml.svm.predict_s", "s"),
    ("classicml.forest.predict_s", "s"),
    ("neuralnet.mlp.predict_s", "s"),
    ("classicml.forest.fit_alloc_mb", "MiB"),
    ("routegen.generate_s", "s"),
    ("textrep.fit_s", "s"),
    ("textrep.transform_s", "s"),
    ("featstore.write_s", "s"),
    ("annindex.build_s", "s"),
    ("featstore.disk_mb", "MiB"),
    ("annindex.disk_mb", "MiB"),
    ("core.scale.exact_ms_per_probe", "ms"),
    ("core.scale.ann_ms_per_probe", "ms"),
    ("featstore.read_rows_per_s", "1/s"),
    ("annindex.postings_ms", "ms"),
    ("annindex.top_centroids_us", "us"),
    ("annindex.rows_scanned_per_probe", "count"),
    ("routegen.shard0_regen_s", "s"),
    ("trace.stage_sum_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The workloads.
const WORKLOADS: [&str; 4] = [
    "serve_distinct",
    "serve_repeat",
    "experiments_tm3",
    "probe_match",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length in seconds.
    pub seconds: f64,
    /// Time each layer and print the per-layer metrics.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness-check failures.
    pub violations: Vec<String>,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records (or replaces) a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones (0 for a layer this workload does not run).
    fn to_json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        } {
            let value = match self.get(name) {
                Some(v) => v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

/// Where a traced run writes its spans, under the working directory.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("trace-{}-seed{}.tsv", args.workload, args.seed))
}

fn main() -> ExitCode {
    // One worker thread per executor, before any executor reads it.
    std::env::set_var("ELEV_THREADS", "1");
    std::env::set_var("ELEV_INNER_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "serve_distinct" => serve_wl::run(serve_wl::Traffic::Distinct, &args),
        "serve_repeat" => serve_wl::run(serve_wl::Traffic::Repeat, &args),
        "experiments_tm3" => tm3::run(&args),
        "probe_match" => probe::run(&args),
        _ => unreachable!("validated by Args::parse"),
    };
    let line = run.and_then(|outcome| {
        for v in &outcome.violations {
            eprintln!("perfbench: check failed: {v}");
        }
        outcome.to_json(args.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload probe_match --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("probe_match", 7, 10.0, true)
        );
        assert!(Args::parse(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload probe_match --seconds 10")).is_err());
        assert!(Args::parse(&argv(
            "--workload probe_match --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(Args::parse(&argv(
            "--workload probe_match --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn result_line_lists_every_metric_and_refuses_a_missing_one() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.metric(name, 1.25);
        }
        let line = o.to_json(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            o.to_json(true).unwrap().matches("\"value\"").count(),
            PER_LAYER.len()
        );
        o.metrics.retain(|(n, _)| *n != "wall_s");
        assert!(o.to_json(false).is_err());
        o.metric("wall_s", f64::NAN);
        assert!(o.to_json(false).is_err());
        o.metric("wall_s", 2.0);
        o.violations.push("x".to_owned());
        assert!(o.to_json(false).unwrap().starts_with("{\"correct\": false"));
    }
}
