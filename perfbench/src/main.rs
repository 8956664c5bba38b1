//! The repository benchmark: three workloads (`synth`, `table`, `serve`)
//! that drive the AutoType crates through their public functions, check
//! every verdict, and print end-to-end metrics (untraced run) or per-layer
//! metrics (traced run). See README.md for the workloads, the metric
//! definitions and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth --seed 24301 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report (end-to-end metrics under their workload names, the
//! environment stamp, and which counters repeated exactly). Both are also
//! written under `.bench_out/` in the working directory, with the spans of
//! a traced run.

mod fixture;
mod report;
mod serve;
mod stats;
mod synth;
mod table;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::{Metric, Report};
use trace::Tracer;

/// The seed at which the pinned references in `reference.txt` apply: the
/// evaluation drivers' default seed (`EvalConfig::default().seed`).
pub const DEFAULT_SEED: u64 = 0x5EED;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-reference" => return Err("--write-reference takes no other flags".into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required (synth, table or serve)")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--write-reference") {
        return match fixture::write_reference() {
            Ok(path) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut report = Report::new(&args);
    let outcome = match args.workload.as_str() {
        "synth" => synth::run(&args, &tracer, &mut report),
        "table" => table::run(&args, &tracer, &mut report),
        "serve" => serve::run(&args, &tracer, &mut report),
        other => Err(format!("unknown workload {other} (synth, table or serve)")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if args.trace {
        report.overhead_vs_untraced(&args);
        report.per_layer_from_trace(&tracer);
        report.diagnostic(Metric::count("trace.spans", tracer.span_count() as f64));
    }
    match report.emit(&args, &tracer) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: writing results: {e}");
            ExitCode::FAILURE
        }
    }
}
