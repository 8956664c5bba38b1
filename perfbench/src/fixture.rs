//! Set-up shared by the workloads: the engine, one traced synthesis of a
//! type into a rehydrated pack, the 15 table packs, the reference oracle,
//! and the pinned references in `reference.txt`.

use std::collections::HashMap;
use std::time::Instant;

use autotype::{AutoType, AutoTypeConfig, NegativeMode, Pack, PackValidator};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_exec::ExecPool;
use autotype_negative::Strategy;
use autotype_pack::ProbeExecutor;
use autotype_rank::Method;
use autotype_tables::{column_passes, PAPER_TYPE_COUNTS};
use autotype_typesys::{by_slug, registry, Coverage, SemanticType};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::DEFAULT_SEED;

/// Training positives per type, as in the evaluation drivers.
const POSITIVES: usize = 20;

/// Verdict-cache capacity of every runtime the benchmark builds: the
/// serving default.
pub const CACHE_CAPACITY: usize = 65_536;

/// Set-ups per run of the table and serve workloads; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

/// Exec-pool width of the detection runtimes.
pub fn runtime_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine over the default corpus (`corpus.build`, then
/// `search.index`: `AutoType::new` is the two search indexes).
pub fn engine(tracer: &Tracer) -> AutoType {
    let corpus = tracer.span("corpus.build", || build_corpus(&CorpusConfig::default()));
    tracer.span("search.index", || {
        AutoType::new(corpus, AutoTypeConfig::default())
    })
}

/// Training positives for a type, drawn like the evaluation drivers do.
pub fn positives(ty: &SemanticType, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (ty.id as u64) << 7);
    ty.examples(&mut rng, POSITIVES)
}

/// Every type whose code the corpus covers, in registry order.
pub fn covered_types() -> Vec<&'static SemanticType> {
    registry()
        .iter()
        .filter(|t| t.coverage == Coverage::Covered)
        .collect()
}

/// A synthesized type, exported and rehydrated from its bytes.
pub struct Synthesized {
    pub label: String,
    pub pack: Pack,
    pub validator: PackValidator,
    /// Synthesis fuel (the Figure 14 cost measure).
    pub fuel: u64,
}

impl Synthesized {
    pub fn pack_id(&self) -> &str {
        self.validator.pack_id()
    }
}

/// Synthesize one type the way a user does: retrieve, build the session
/// (negatives and traced execution), rank by DNF-S, export the top
/// function's pack, and load it back from bytes. `Ok(None)` when there is
/// nothing to export (no candidates, nothing ranked, or no validator).
pub fn synthesize(
    engine: &AutoType,
    ty: &SemanticType,
    positives: &[String],
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Option<Synthesized>, String> {
    let repos = tracer.span("search.retrieve", || engine.retrieve(ty.keyword()));
    report.sample("search.repos", repos.len() as f64);
    let mut rng = StdRng::seed_from_u64(seed ^ ty.id as u64);
    let session = tracer.span("core.session", || {
        engine.session(ty.keyword(), positives, NegativeMode::Hierarchy, &mut rng)
    });
    let Some(mut session) = session else {
        return Ok(None);
    };
    let rounds = match session.strategy {
        Some(Strategy::S1) => 1,
        Some(Strategy::S2) => 2,
        Some(Strategy::S3) | None => 3,
    };
    let candidates = session.candidate_count();
    report.sample("negative.rounds", rounds as f64);
    report.sample("core.candidates", candidates as f64);
    report.sample("exec.fuel", session.fuel_spent as f64);
    // Every round traces each candidate on that round's negatives (about
    // the same number each round), the positives once.
    let inputs = session.positives.len() + rounds * session.negatives.len();
    report.sample("exec.runs", (candidates * inputs) as f64);

    let ranked = tracer.span("rank.rank", || session.rank(Method::DnfS));
    report.sample("rank.ranked", ranked.len() as f64);
    let Some(top) = ranked.first() else {
        return Ok(None);
    };
    let Some(pack) = tracer.span("pack.export", || {
        session.export_pack(top, ty.slug, Method::DnfS)
    }) else {
        return Ok(None);
    };
    let bytes = tracer.span("pack.to_bytes", || pack.to_bytes());
    report.sample("pack.bytes", bytes.len() as f64);
    let (loaded, validator) = tracer
        .span("pack.load", || {
            let loaded = Pack::from_bytes(&bytes)?;
            let validator = loaded.validator()?;
            Ok::<_, autotype::PackError>((loaded, validator))
        })
        .map_err(|e| format!("{}: pack load: {e}", ty.slug))?;
    if validator.pack_id() != pack.pack_id() {
        return Err(format!("{}: pack id changed in a byte round trip", ty.slug));
    }
    Ok(Some(Synthesized {
        label: top.label.clone(),
        pack: loaded,
        validator,
        fuel: session.fuel_spent,
    }))
}

/// One probe through a leased executor (`exec.probe`).
pub fn probe(
    tracer: &Tracer,
    validator: &PackValidator,
    slot: &mut ProbeExecutor,
    value: &str,
) -> (bool, u64) {
    tracer.span("exec.probe", || {
        validator.accepts_with_fuel_in(slot, value, None)
    })
}

/// The detection packs of the table and serve workloads: one per
/// `PAPER_TYPE_COUNTS` type, in that (table2) priority order, synthesized
/// from the evaluation drivers' default positives. Types with nothing to
/// export are skipped, as table2 skips them.
pub fn table_packs(
    engine: &AutoType,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Vec<Synthesized>, String> {
    let mut out = Vec::new();
    for (slug, _) in PAPER_TYPE_COUNTS {
        let ty = by_slug(slug).ok_or(format!("unknown table type {slug}"))?;
        let pos = positives(ty, DEFAULT_SEED);
        if let Some(s) = synthesize(engine, ty, &pos, DEFAULT_SEED, tracer, report)? {
            out.push(s);
        }
    }
    Ok(out)
}

/// Set up the table/serve system `SETUPS` times: the engine, the 15
/// packs, then `bring_up` (whatever else the workload starts). Checks that
/// every set-up produced the same packs, records the median time as
/// `setup_s`, and returns the last set-up's packs and `bring_up` result.
pub fn setup_table_packs<T>(
    tracer: &Tracer,
    report: &mut Report,
    mut bring_up: impl FnMut(&[Pack]) -> Result<T, String>,
) -> Result<(Vec<Pack>, T), String> {
    let mut times = Vec::new();
    let mut last: Option<(Vec<Pack>, T)> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let engine = engine(tracer);
        let packs: Vec<Pack> = table_packs(&engine, tracer, report)?
            .into_iter()
            .map(|s| s.pack)
            .collect();
        let up = bring_up(&packs)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some((first, _)) = &last {
            let same = first
                .iter()
                .map(Pack::pack_id)
                .eq(packs.iter().map(Pack::pack_id));
            report.repeats("pack ids", same);
            if !same {
                report.mismatch("set-ups produced different packs".to_string());
            }
        }
        last = Some((packs, up));
    }
    report.end_to_end("setup_s", median(&times));
    Ok(last.expect("at least one set-up"))
}

/// Rehydrate validators for a fresh runtime.
pub fn validators(packs: &[Pack]) -> Result<Vec<PackValidator>, String> {
    packs
        .iter()
        .map(|p| p.validator().map_err(|e| format!("{}: {e}", p.slug)))
        .collect()
}

/// The reference detector: per pack in priority order, first match wins,
/// columns through `column_passes`, each verdict from
/// `accepts_with_fuel_in` on its own fresh probe executor (memoized per
/// `(pack, value)`: verdicts are pure).
pub struct Oracle<'a> {
    tracer: &'a Tracer,
    packs: &'a [PackValidator],
    slots: Vec<ProbeExecutor>,
    memo: HashMap<(usize, String), bool>,
    probes: u64,
    fuel: u64,
}

impl<'a> Oracle<'a> {
    pub fn new(tracer: &'a Tracer, packs: &'a [PackValidator]) -> Oracle<'a> {
        Oracle {
            tracer,
            packs,
            slots: packs.iter().map(PackValidator::probe_executor).collect(),
            memo: HashMap::new(),
            probes: 0,
            fuel: 0,
        }
    }

    fn accepts(&mut self, pack: usize, value: &str) -> bool {
        if let Some(&v) = self.memo.get(&(pack, value.to_string())) {
            return v;
        }
        let (verdict, fuel) = probe(self.tracer, &self.packs[pack], &mut self.slots[pack], value);
        self.probes += 1;
        self.fuel += fuel;
        self.memo.insert((pack, value.to_string()), verdict);
        verdict
    }

    pub fn value(&mut self, value: &str) -> Option<usize> {
        (0..self.packs.len()).find(|&p| self.accepts(p, value))
    }

    pub fn column(&mut self, values: &[String]) -> Option<usize> {
        (0..self.packs.len()).find(|&p| column_passes(values, |v| self.accepts(p, v)))
    }

    /// Record the oracle's probe cost as the `exec.probe` layer.
    pub fn record(&self, report: &mut Report) {
        if self.probes > 0 {
            report.layer("exec.probe_fuel", self.fuel as f64 / self.probes as f64);
        }
    }
}

/// Exec-pool hand-off cost: median µs of `run_ordered` over k no-op jobs
/// at the runtime's width, for k = 1, 4, 16, 64.
pub fn fanout(report: &mut Report) {
    let pool = ExecPool::new(runtime_workers());
    for (k, name) in [
        (1usize, "exec.fanout_us_k1"),
        (4, "exec.fanout_us_k4"),
        (16, "exec.fanout_us_k16"),
        (64, "exec.fanout_us_k64"),
    ] {
        let samples: Vec<f64> = (0..300)
            .map(|_| {
                let start = Instant::now();
                let out = pool.run_ordered((0..k).collect(), |_, x: usize| std::hint::black_box(x));
                std::hint::black_box(out);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.layer(name, median(&samples));
    }
}

/// The pinned references (`reference.txt`, default seed only).
pub struct Reference {
    /// slug → (pack id, top label).
    pub synth: HashMap<String, (String, String)>,
    /// (column index, slug) of every table detection.
    pub table: Vec<(usize, String)>,
}

pub fn reference() -> Result<Reference, String> {
    let mut r = Reference {
        synth: HashMap::new(),
        table: Vec::new(),
    };
    for (n, line) in include_str!("../reference.txt").lines().enumerate() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => {}
            [first, ..] if first.starts_with('#') => {}
            ["synth", slug, pack_id, label] => {
                r.synth
                    .insert(slug.to_string(), (pack_id.to_string(), label.to_string()));
            }
            ["table", column, slug] => {
                let column = column
                    .parse()
                    .map_err(|e| format!("reference.txt:{}: {e}", n + 1))?;
                r.table.push((column, slug.to_string()));
            }
            _ => return Err(format!("reference.txt:{}: malformed line", n + 1)),
        }
    }
    Ok(r)
}

/// Regenerate `reference.txt` at the default seed: the table detections
/// from `eval::table2_full` (the paper-driver path) and each covered type's
/// top label and pack id.
pub fn write_reference() -> Result<String, String> {
    use std::fmt::Write as _;
    let tracer = Tracer::new(false);
    let mut scratch = Report::scratch();
    let engine = engine(&tracer);
    let mut out = String::from(
        "# Pinned verdicts at the default seed (24301); regenerate with\n\
         # cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n\
         # synth <slug> <pack id> <top label>\n",
    );
    for ty in covered_types() {
        let pos = positives(ty, DEFAULT_SEED);
        let s = synthesize(&engine, ty, &pos, DEFAULT_SEED, &tracer, &mut scratch)?
            .ok_or(format!("{}: nothing to export", ty.slug))?;
        let _ = writeln!(out, "synth {} {} {}", ty.slug, s.pack_id(), s.label);
    }
    out.push_str("# table <column index> <slug>: eval::table2_full DNF-S detections\n");
    let cfg = autotype_eval::EvalConfig::default();
    assert_eq!(
        cfg.seed, DEFAULT_SEED,
        "the default seed is the evaluation seed"
    );
    for d in
        autotype_eval::table2_full(&engine, &cfg, crate::table::SCALE, crate::table::UNTYPED).dnf
    {
        let _ = writeln!(out, "table {} {}", d.column, d.slug);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
    Ok(path.to_string())
}
