//! Column-type detection over web tables (paper §9): synthesize detectors
//! for several types, then annotate a table corpus, exactly like the data-
//! preparation scenario in the paper's introduction (Figure 1).
//!
//! ```sh
//! cargo run --release --example detect_columns
//! ```

use autotype::{AutoType, AutoTypeConfig, NegativeMode, PackValidator};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_rank::Method;
use autotype_serve::DetectorRuntime;
use autotype_tables::{generate_columns, TableConfig, VALUE_THRESHOLD};
use autotype_typesys::by_slug;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(7);

    // Synthesize a detector for each type of interest.
    let slugs = ["ipv4", "creditcard", "isbn", "email", "datetime"];
    let mut synthesized = Vec::new();
    for slug in slugs {
        let ty = by_slug(slug).unwrap();
        let positives = ty.examples(&mut rng, 20);
        let mut session = engine
            .session(ty.keyword(), &positives, NegativeMode::Hierarchy, &mut rng)
            .expect("session");
        let top = session
            .rank(Method::DnfS)
            .into_iter()
            .next()
            .expect("ranked");
        println!("{slug}: synthesized from {}", top.label);
        synthesized.push((slug, session, top));
    }

    // A small column corpus (mirrors the sales-transactions table of the
    // paper's Figure 1: typed columns, dirty values, missing headers).
    let columns = generate_columns(
        &TableConfig {
            scale: 0.01,
            untyped: 30,
            ..Default::default()
        },
        &mut rng,
    );
    println!(
        "\nannotating {} columns (>{:.0}% of values must pass):",
        columns.len(),
        VALUE_THRESHOLD * 100.0
    );

    // Export each synthesized validator as an in-memory detector pack and
    // run every column through one detection runtime: detector order is
    // the priority order, and the first type whose validator accepts the
    // column wins, identically at every worker count.
    let (slugs, validators): (Vec<&str>, Vec<PackValidator>) = synthesized
        .iter()
        .filter_map(|(slug, session, top)| {
            let pack = session.export_pack(top, slug, Method::DnfS)?;
            Some((*slug, pack.validator().expect("exported pack rehydrates")))
        })
        .unzip();
    let runtime = DetectorRuntime::from_packs(validators, engine.workers(), 65_536);
    let column_values: Vec<Vec<String>> = columns.iter().map(|c| c.values.clone()).collect();
    let detections = runtime.detect_table(&column_values, None);

    let mut annotated = 0;
    for (ci, pack) in detections.into_iter().enumerate() {
        let Some(pi) = pack else {
            continue;
        };
        annotated += 1;
        let column = &columns[ci];
        println!(
            "  column {:>3} {:<12} detected as {:<11} (truth: {:?}), e.g. {:?}",
            ci,
            column
                .header
                .as_deref()
                .map(|h| format!("{h:?}"))
                .unwrap_or_else(|| "<no header>".into()),
            slugs[pi],
            column.truth,
            column.values.first().unwrap()
        );
    }
    println!("\n{annotated} columns annotated with rich semantic types");
}
