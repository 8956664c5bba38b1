//! Pins `table2_full`'s per-method detections (DNF-S, KW, REGEX) against a
//! committed fixture, at the `batched_detection.rs` settings. The fixture
//! is data, not a re-run: any change to how columns are detected that
//! alters one detection fails here, whatever the worker count.

use autotype::{AutoType, AutoTypeConfig};
use autotype_corpus::{build_corpus, CorpusConfig};
use autotype_eval::{table2_full, EvalConfig};

/// One line per detection: `<method> <column index> <slug>`; `#` lines
/// are comments.
const GOLDEN: &str = include_str!("data/table2_golden.txt");

#[test]
fn table2_detections_match_golden_fixture() {
    let engine = AutoType::new(
        build_corpus(&CorpusConfig::default()),
        AutoTypeConfig::default(),
    );
    let cfg = EvalConfig {
        n_test_neg: 40,
        ..EvalConfig::default()
    };
    let out = table2_full(&engine, &cfg, 0.1, 150);
    let got: Vec<String> = [("dnf", &out.dnf), ("kw", &out.kw), ("regex", &out.regex)]
        .into_iter()
        .flat_map(|(method, detections)| {
            detections
                .iter()
                .map(move |d| format!("{method} {} {}", d.column, d.slug))
        })
        .collect();
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(got.len(), expected.len(), "detection count drifted");
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "detection {i} drifted");
    }
}
