//! `synth`: closed loop, one client. One op synthesizes one type end to
//! end (retrieve → session → rank(DnfS) → export → bytes → rehydrate) and
//! probes the rehydrated pack on held-out positives and near-miss
//! negatives. The op order cycles through every covered type in a seeded
//! order, so every run measures the same type mix; the seed draws the
//! training positives, the held-out probes and the order.

use std::collections::HashMap;
use std::time::Instant;

use autotype_negative::{generate_negatives, MutationConfig, Strategy};
use autotype_typesys::SemanticType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture;
use crate::report::{Metric, Report};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Args, DEFAULT_SEED};

/// Held-out positives per type (each also yields one near-miss negative).
const HOLDOUT: usize = 10;

/// Set-ups per run. The engine builds in tens of milliseconds, so more
/// repeats than the table and serve set-ups keep its median steady.
const SETUPS: usize = 9;

struct Input {
    ty: &'static SemanticType,
    positives: Vec<String>,
    holdout: Vec<String>,
}

fn holdout(ty: &SemanticType, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C ^ (ty.id as u64) << 11);
    let mut values = ty.examples(&mut rng, HOLDOUT);
    let config = MutationConfig {
        per_positive: 1,
        ..MutationConfig::default()
    };
    let negatives = generate_negatives(&values, Strategy::S1, &config, &mut rng);
    values.extend(negatives);
    values
}

/// What one type produced the first time it was synthesized in this run.
struct Seen {
    pack_id: String,
    verdicts: Vec<bool>,
    fuel: u64,
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        engine = Some(fixture::engine(tracer));
        times.push(start.elapsed().as_secs_f64());
    }
    report.end_to_end("setup_s", median(&times));
    let engine = engine.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut types = fixture::covered_types();
    for i in (1..types.len()).rev() {
        types.swap(i, rng.gen_range(0..=i));
    }
    let inputs: Vec<Input> = types
        .into_iter()
        .map(|ty| Input {
            ty,
            positives: fixture::positives(ty, args.seed),
            holdout: holdout(ty, args.seed),
        })
        .collect();
    let reference = if args.seed == DEFAULT_SEED {
        Some(fixture::reference()?.synth)
    } else {
        None
    };

    let mut seen: HashMap<&str, Seen> = HashMap::new();
    let mut per_type: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut all_ms = Vec::new();
    let mut agree = 0usize;
    let mut probed = 0usize;
    let start = Instant::now();
    let mut i = 0;
    // Whole sweeps first, then more ops until the time is up.
    while i < inputs.len() || start.elapsed() < args.seconds {
        let input = &inputs[i % inputs.len()];
        let slug = input.ty.slug;
        i += 1;
        tracer.next_op();
        let op_start = Instant::now();
        let outcome = fixture::synthesize(
            &engine,
            input.ty,
            &input.positives,
            args.seed,
            tracer,
            report,
        );
        let probes: Option<Vec<(bool, u64)>> = match &outcome {
            Ok(Some(s)) => {
                let mut slot = s.validator.probe_executor();
                Some(
                    input
                        .holdout
                        .iter()
                        .map(|v| fixture::probe(tracer, &s.validator, &mut slot, v))
                        .collect(),
                )
            }
            _ => None,
        };
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        all_ms.push(ms);
        per_type.entry(slug).or_default().push(ms);

        let (s, probes) = match (outcome, probes) {
            (Ok(Some(s)), Some(p)) => (s, p),
            (Err(e), _) => {
                report.mismatch(e);
                report.op(false);
                continue;
            }
            _ => {
                report.mismatch(format!("{slug}: nothing to export"));
                report.op(false);
                continue;
            }
        };
        for &(_, fuel) in &probes {
            report.sample("exec.probe_fuel", fuel as f64);
        }
        let verdicts: Vec<bool> = probes.iter().map(|p| p.0).collect();
        for (v, &verdict) in input.holdout.iter().zip(&verdicts) {
            probed += 1;
            agree += usize::from((input.ty.validate)(v) == verdict);
        }
        let mut ok = true;
        if let Some(reference) = &reference {
            let expected = reference.get(slug);
            if expected != Some(&(s.pack_id().to_string(), s.label.clone())) {
                report.mismatch(format!(
                    "{slug}: got {} {}, reference {expected:?}",
                    s.pack_id(),
                    s.label
                ));
                ok = false;
            }
        }
        match seen.get(slug) {
            Some(first) => {
                let same_pack = first.pack_id == s.pack_id();
                let same_verdicts = first.verdicts == verdicts;
                report.repeats("pack ids", same_pack);
                report.repeats("probe verdicts", same_verdicts);
                report.repeats("synthesis fuel", first.fuel == s.fuel);
                if !(same_pack && same_verdicts) {
                    report.mismatch(format!(
                        "{slug}: a second synthesis gave another pack or verdicts"
                    ));
                    ok = false;
                }
            }
            None => {
                seen.insert(
                    slug,
                    Seen {
                        pack_id: s.pack_id().to_string(),
                        verdicts,
                        fuel: s.fuel,
                    },
                );
            }
        }
        report.op(ok);
    }

    report.set_peak_rss();

    let medians: Vec<f64> = inputs
        .iter()
        .filter_map(|input| per_type.get(input.ty.slug).map(|t| median(t)))
        .collect();
    let types_per_s = medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3);
    let type_p50 = median(&medians);
    let (tail_pct, tail_ms) = tail(&all_ms);
    report.end_to_end("p50_ms", type_p50);
    report.named(Metric::new("types_per_s", types_per_s, "1/s"));
    report.named(Metric::ms("type_p50_ms", type_p50));
    report.named(Metric::ms("type_tail_ms", tail_ms));
    report.diagnostic(Metric::new("type_tail_percentile", tail_pct as f64, "%"));
    report.diagnostic(Metric::count("type_samples", all_ms.len() as f64));
    report.diagnostic(Metric::count("types", medians.len() as f64));
    for slug in ["creditcard", "ipv6", "isbn"] {
        if let Some(t) = per_type.get(slug) {
            report.diagnostic(Metric::ms(&format!("{slug}_ms"), median(t)));
        }
    }
    if probed > 0 {
        report.diagnostic(Metric::new(
            "holdout_agreement",
            agree as f64 / probed as f64,
            "share",
        ));
    }
    if tracer.enabled() {
        fixture::fanout(report);
    }
    Ok(())
}
