//! `table`: closed loop over the §9.1 bulk job. Set-up synthesizes the
//! 15 table2 packs; each op rehydrates them into a fresh
//! `DetectorRuntime` (so the verdict cache starts cold) and runs
//! `detect_table` over a seeded web-table corpus.

use std::time::Instant;

use autotype_serve::{DetectorRuntime, Metrics};
use autotype_tables::{generate_columns, Column, TableConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixture::{self, Oracle, CACHE_CAPACITY};
use crate::report::{Metric, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, DEFAULT_SEED};

/// Corpus size of the table2 bench: 994 columns at the default seed.
pub const SCALE: f64 = 0.1;
pub const UNTYPED: usize = 600;

/// Passes a run makes even if they overrun `--seconds`.
const MIN_PASSES: usize = 3;

/// Per-pass counters whose repetition across passes is recorded.
const REPEATS: [&str; 5] = [
    "runtime.probes_issued",
    "runtime.probes_saved",
    "detections",
    "cache misses",
    "runtime fuel_spent",
];

/// The seeded column corpus; at the default seed it is `table2_full`'s.
pub fn corpus(seed: u64) -> Vec<Column> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7AB1E);
    let config = TableConfig {
        scale: SCALE,
        untyped: UNTYPED,
        ..TableConfig::default()
    };
    generate_columns(&config, &mut rng)
}

fn columns(seed: u64) -> Vec<Vec<String>> {
    corpus(seed).into_iter().map(|c| c.values).collect()
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let (packs, ()) = fixture::setup_table_packs(tracer, report, |_| Ok(()))?;
    let columns = columns(args.seed);
    let values: usize = columns.iter().map(Vec::len).sum();

    let mut pass_ms = Vec::new();
    let mut first: Option<(Vec<Option<usize>>, [u64; 5])> = None;
    let start = Instant::now();
    while pass_ms.len() < MIN_PASSES || start.elapsed() < args.seconds {
        tracer.next_op();
        let pass_start = Instant::now();
        let runtime = DetectorRuntime::from_packs(
            fixture::validators(&packs)?,
            fixture::runtime_workers(),
            CACHE_CAPACITY,
        );
        let got = tracer.span("runtime.detect", || runtime.detect_table(&columns, None));
        pass_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);

        let m = runtime.metrics();
        let hits = Metrics::read(&m.cache_hits);
        let misses = Metrics::read(&m.cache_misses);
        let issued = hits + misses;
        let saved = Metrics::read(&m.probes_saved);
        let detections = got.iter().filter(|p| p.is_some()).count() as u64;
        let counts = [
            issued,
            saved,
            detections,
            misses,
            Metrics::read(&m.fuel_spent),
        ];
        report.sample("runtime.probes_issued", issued as f64);
        report.sample("runtime.probes_saved", saved as f64);
        report.sample(
            "runtime.issued_ratio",
            issued as f64 / (values * packs.len()) as f64,
        );
        report.sample(
            "runtime.executors_cloned",
            Metrics::read(&m.executors_cloned) as f64,
        );
        report.sample("cache.hit_rate", hits as f64 / issued.max(1) as f64);
        report.sample("cache.entries", misses.min(CACHE_CAPACITY as u64) as f64);
        match &first {
            None => first = Some((got, counts)),
            Some((first_got, first_counts)) => {
                for (name, (a, b)) in REPEATS.iter().zip(first_counts.iter().zip(&counts)) {
                    report.repeats(name, a == b);
                }
                // Later passes must repeat the first; the first is checked
                // against the reference below.
                let ok = got == *first_got;
                if !ok {
                    report.mismatch(format!("pass {} differs from pass 1", pass_ms.len()));
                }
                report.op(ok);
            }
        }
    }
    report.set_peak_rss();

    // The expected detections: the reference detector at every seed, and
    // at the default seed also the pinned table2 detections.
    let validators = fixture::validators(&packs)?;
    let mut oracle = Oracle::new(tracer, &validators);
    let expected: Vec<Option<usize>> = columns.iter().map(|c| oracle.column(c)).collect();
    oracle.record(report);
    let (first_got, _) = first.expect("at least one pass");
    let ok = first_got == expected;
    if !ok {
        let wrong = first_got
            .iter()
            .zip(&expected)
            .filter(|(a, b)| a != b)
            .count();
        report.mismatch(format!(
            "pass 1: {wrong} columns differ from the reference detector"
        ));
    }
    report.op(ok);
    if args.seed == DEFAULT_SEED {
        let pinned = fixture::reference()?.table;
        let got: Vec<(usize, String)> = expected
            .iter()
            .enumerate()
            .filter_map(|(ci, p)| p.map(|p| (ci, packs[p].slug.clone())))
            .collect();
        let ok = got == pinned;
        if !ok {
            report.mismatch(format!(
                "reference detector found {} detections, table2 pinned {}",
                got.len(),
                pinned.len()
            ));
        }
        report.op(ok);
    }

    let p50 = median(&pass_ms);
    let columns_per_s = columns.len() as f64 / (p50 / 1e3);
    report.end_to_end("p50_ms", p50);
    report.named(Metric::new("columns_per_s", columns_per_s, "1/s"));
    report.named(Metric::ms("pass_p50_ms", p50));
    report.diagnostic(Metric::count("passes", pass_ms.len() as f64));
    report.diagnostic(Metric::count("columns", columns.len() as f64));
    report.diagnostic(Metric::count("values", values as f64));
    report.diagnostic(Metric::count(
        "detections",
        expected.iter().filter(|p| p.is_some()).count() as f64,
    ));
    if tracer.enabled() {
        fixture::fanout(report);
    }
    Ok(())
}
