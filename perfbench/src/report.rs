//! Result assembly: metric tables, the environment stamp, and the two
//! output lines (full report, then the result object).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use autotype_serve::json::{self, Json};

use crate::trace::Tracer;
use crate::Args;

/// End-to-end metrics every workload reports (`BENCHMARK.json`), each
/// defined per workload in README.md.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("p50_ms", "ms")];

/// Per-layer metrics of the traced run, named after the crate (or the
/// benchmark part) they measure. A workload that does not exercise a layer
/// reports 0 for it.
const PER_LAYER: [(&str, &str); 38] = [
    ("corpus.build_ms", "ms"),
    ("search.index_ms", "ms"),
    ("search.retrieve_ms", "ms"),
    ("search.repos", "count"),
    ("negative.rounds", "count"),
    ("core.candidates", "count"),
    ("core.session_ms", "ms"),
    ("exec.fuel", "count"),
    ("exec.runs", "count"),
    ("lang.ns_per_fuel", "ns"),
    ("rank.ms", "ms"),
    ("rank.ranked", "count"),
    ("pack.export_ms", "ms"),
    ("pack.bytes", "bytes"),
    ("pack.load_ms", "ms"),
    ("exec.probe_us", "us"),
    ("exec.probe_fuel", "count"),
    ("exec.fanout_us_k1", "us"),
    ("exec.fanout_us_k4", "us"),
    ("exec.fanout_us_k16", "us"),
    ("exec.fanout_us_k64", "us"),
    ("runtime.detect_ms", "ms"),
    ("runtime.probes_issued", "count"),
    ("runtime.probes_saved", "count"),
    ("runtime.issued_ratio", "ratio"),
    ("runtime.executors_cloned", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("json.parse_us", "us"),
    ("json.request_bytes", "bytes"),
    ("json.response_bytes", "bytes"),
    ("http.rtt_us_single", "us"),
    ("http.rtt_us_batch", "us"),
    ("http.rtt_us_column", "us"),
    ("http.self_us", "us"),
    ("http.errors", "count"),
    ("http.shed", "count"),
    ("gen.late_ms_p99", "ms"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }

    pub fn count(name: &str, value: f64) -> Metric {
        Metric::new(name, value, "count")
    }

    pub fn ms(name: &str, value: f64) -> Metric {
        Metric::new(name, value, "ms")
    }
}

/// A JSON number with every digit `f64` carries (non-finite becomes 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn metrics_object(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quoted(&m.name),
                num(m.value),
                quoted(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

pub struct Report {
    workload: String,
    trace: bool,
    /// Operations attempted and failed (an op fails on an error or on any
    /// verdict that differs from its reference).
    pub attempted: u64,
    pub failed: u64,
    mismatches: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    /// End-to-end metrics under their workload-specific names.
    named: Vec<Metric>,
    diagnostics: Vec<Metric>,
    /// Per-layer counters: (sum, samples); reported as the mean.
    counters: BTreeMap<&'static str, (f64, u64)>,
    /// Per-layer values set directly (ratios, microbenchmarks).
    layer_values: BTreeMap<&'static str, f64>,
    per_layer: Vec<Metric>,
    /// Whether each recorded counter repeated exactly across identical ops.
    repeats: BTreeMap<String, bool>,
    env: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            workload: args.workload.clone(),
            trace: args.trace,
            env: environment(args),
            ..Report::scratch()
        }
    }

    /// A report nothing is printed from (reference generation).
    pub fn scratch() -> Report {
        Report {
            workload: String::new(),
            trace: false,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            end_to_end: BTreeMap::new(),
            named: Vec::new(),
            diagnostics: Vec::new(),
            counters: BTreeMap::new(),
            layer_values: BTreeMap::new(),
            per_layer: Vec::new(),
            repeats: BTreeMap::new(),
            env: Vec::new(),
        }
    }

    /// Record one completed op and whether it was correct.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a verdict mismatch or error, kept in the report (the first
    /// few are printed).
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    pub fn named(&mut self, metric: Metric) {
        self.named.push(metric);
    }

    pub fn diagnostic(&mut self, metric: Metric) {
        self.diagnostics.push(metric);
    }

    /// Add one sample of a per-layer counter (reported as the mean).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        let entry = self.counters.entry(name).or_insert((0.0, 0));
        entry.0 += value;
        entry.1 += 1;
    }

    fn sum(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.0)
    }

    fn mean(&self, name: &str) -> f64 {
        self.counters
            .get(name)
            .map_or(0.0, |&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer_values.insert(name, value);
    }

    pub fn layer_value(&self, name: &str) -> f64 {
        self.layer_values.get(name).copied().unwrap_or(0.0)
    }

    pub fn repeats(&mut self, counter: &str, exact: bool) {
        let entry = self.repeats.entry(counter.to_string()).or_insert(true);
        *entry &= exact;
    }

    /// Record the peak resident set so far; workloads call this when the
    /// measured window ends, before the reference checks allocate.
    pub fn set_peak_rss(&mut self) {
        self.end_to_end("peak_rss_mb", peak_rss_mb());
    }

    /// Tracing overhead: this traced run's `p50_ms` against the untraced
    /// report in `.bench_out` whose environment stamp equals this run's
    /// (same code, machine, workload, seed and `--seconds`), in percent, as
    /// a diagnostic. Without such a report it says so and records nothing.
    pub fn overhead_vs_untraced(&mut self, args: &Args) {
        let path = Path::new(".bench_out").join(format!("report-{}-trace0.json", args.workload));
        let untraced = std::fs::read_to_string(path).ok().and_then(|text| {
            let (report, result) = text.split_once('\n')?;
            let env = json::parse(report).ok()?.get("env")?.clone();
            let same = self
                .env
                .iter()
                .all(|(k, v)| env.get(k).and_then(Json::as_str) == Some(v.as_str()));
            if !same {
                return None;
            }
            let result = json::parse(result).ok()?;
            result
                .get("metrics")?
                .get("p50_ms")?
                .get("value")?
                .as_number()
        });
        match (untraced, self.end_to_end.get("p50_ms")) {
            (Some(untraced), Some(&traced)) if untraced > 0.0 => self.diagnostic(Metric::new(
                "trace.overhead_pct",
                (traced / untraced - 1.0) * 100.0,
                "%",
            )),
            _ => println!(
                "trace.overhead_pct missing: .bench_out holds no untraced report \
                 with this run's environment stamp; run --trace 0 first"
            ),
        }
    }

    /// Derive every per-layer metric: span means from the trace, counters
    /// from the samples the workload recorded.
    pub fn per_layer_from_trace(&mut self, tracer: &Tracer) {
        let retrieve = tracer.totals("search.retrieve");
        let session = tracer.totals("core.session");
        let session_ms = if session.count == 0 {
            0.0
        } else {
            session.mean_ms() - retrieve.mean_ms()
        };
        let fuel = self.sum("exec.fuel");
        let session_ns = session.total_ns as f64 - retrieve.total_ns as f64;
        for (name, unit) in PER_LAYER {
            let value = match name {
                "corpus.build_ms" => tracer.totals("corpus.build").mean_ms(),
                "search.index_ms" => tracer.totals("search.index").mean_ms(),
                "search.retrieve_ms" => retrieve.mean_ms(),
                "core.session_ms" => session_ms,
                "lang.ns_per_fuel" if fuel > 0.0 => session_ns / fuel,
                "rank.ms" => tracer.totals("rank.rank").mean_ms(),
                "pack.export_ms" => tracer.totals("pack.export").mean_ms(),
                "pack.load_ms" => tracer.totals("pack.load").mean_ms(),
                "exec.probe_us" => tracer.totals("exec.probe").mean_us(),
                "runtime.detect_ms" => tracer.totals("runtime.detect").mean_ms(),
                "json.parse_us" => tracer.totals("json.parse").mean_us(),
                _ => match self.layer_values.get(name) {
                    Some(&v) => v,
                    None => self.mean(name),
                },
            };
            self.per_layer.push(Metric::new(name, value, unit));
        }
    }

    /// Print the report line and the result line; write both (and the
    /// spans of a traced run) under `.bench_out/`. Returns whether the run
    /// was correct.
    pub fn emit(&mut self, args: &Args, tracer: &Tracer) -> std::io::Result<bool> {
        let mut missing = Vec::new();
        let contract: Vec<Metric> = if self.trace {
            self.per_layer.clone()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let value = self.end_to_end.get(name).copied().unwrap_or(0.0);
                    if !(value.is_finite() && value > 0.0) {
                        missing.push(name);
                    }
                    Metric::new(name, value, unit)
                })
                .collect()
        };
        for name in &missing {
            self.mismatch(format!("end-to-end metric {name} was not measured"));
        }
        let correct = self.failed == 0 && self.mismatches.is_empty() && self.attempted > 0;
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };

        for m in &self.named {
            println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!("{:<24} {:>14.4} share", "error_rate", error_rate);
        for what in self.mismatches.iter().take(10) {
            println!("MISMATCH {what}");
        }

        let env: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("{}:{}", quoted(k), quoted(v)))
            .collect();
        let repeats: Vec<String> = self
            .repeats
            .iter()
            .map(|(k, v)| format!("{}:{}", quoted(k), v))
            .collect();
        let mut end_to_end = self.named.clone();
        end_to_end.push(Metric::new("error_rate", error_rate, "share"));
        end_to_end.extend(
            END_TO_END
                .iter()
                .filter(|(n, _)| *n == "setup_s" || *n == "peak_rss_mb")
                .map(|&(n, u)| Metric::new(n, self.end_to_end.get(n).copied().unwrap_or(0.0), u)),
        );
        let report = format!(
            "{{\"workload\":{},\"trace\":{},\"env\":{{{}}},\"end_to_end\":{},\"per_layer\":{},\"diagnostics\":{},\"repeats_exactly\":{{{}}},\"mismatches\":{}}}",
            quoted(&self.workload),
            self.trace,
            env.join(","),
            metrics_object(&end_to_end),
            metrics_object(&self.per_layer),
            metrics_object(&self.diagnostics),
            repeats.join(","),
            self.mismatches.len(),
        );
        let result = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.attempted,
            self.failed,
            metrics_object(&contract)
        );

        let dir = Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let tag = format!("{}-trace{}", args.workload, u8::from(args.trace));
        let mut file = std::fs::File::create(dir.join(format!("report-{tag}.json")))?;
        writeln!(file, "{report}\n{result}")?;
        if self.trace {
            tracer.write(&dir.join(format!("spans-{}.jsonl", args.workload)))?;
        }
        println!("{report}");
        println!("{result}");
        Ok(correct)
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a short command, waited for; `unknown` if it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over every Rust source and manifest under `crates/` and
/// `perfbench/src/` (sorted by path) plus `Cargo.lock`: identifies the code
/// measured when the checkout carries no git metadata (an exported tree,
/// as `git archive` makes), where `git_rev` reads `none`.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    // (A missing file hashes as empty; the fingerprint only has to differ
    // when the code does.)
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench").join("src"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(
            file.strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", autotype_pack::fnv1a(&bytes))
}

fn environment(args: &Args) -> Vec<(&'static str, String)> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only this checkout's own metadata: git would otherwise report the
    // revision of any repository that happens to enclose it.
    let git_rev = if root.join(".git").exists() {
        command_output("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "none".to_string()
    };
    vec![
        ("nproc", command_output("nproc", &[])),
        ("available_parallelism", available.to_string()),
        ("pool_workers", autotype_exec::default_workers().to_string()),
        ("git_rev", git_rev),
        ("source_fnv", source_fingerprint()),
        ("rustc", command_output("rustc", &["--version"])),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.as_secs().to_string()),
    ]
}
