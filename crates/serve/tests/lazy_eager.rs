//! Property-style equivalence test: lazy tiered scheduling must produce
//! bit-identical verdicts to the serial first-match reference
//! (`autotype_tables::detect_by_values_mut` over plain `PackValidator`
//! probes, which share none of the runtime's cache, pool or scheduler) —
//! per value and per column — on randomized pack sets and value sets, at
//! every worker count. This is the load-bearing guarantee of the
//! scheduler: skipping dead matrix cells is only a perf change, never a
//! semantic one.

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::{Pack, PackValidator};
use autotype_serve::DetectorRuntime;
use autotype_tables::{detect_by_values_mut, Column, ValueDetectorMut};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A pack accepting exactly the inputs for which the program returns True.
fn boolean_pack(slug: &str, func: &str, source: &str) -> Pack {
    Pack {
        slug: slug.into(),
        keyword: slug.into(),
        label: format!("demo/mod.{func}"),
        repo_name: "demo".into(),
        file: "mod".into(),
        strategy: "S1".into(),
        method: "DNF-S".into(),
        score: 1.0,
        neg_fraction: 0.0,
        explanation: "(ret==True)".into(),
        fuel: 10_000,
        installs: 0,
        candidate_file: 0,
        entry: EntryPoint::Function { name: func.into() },
        files: vec![("mod".into(), source.into())],
        packages: vec![],
        dnf_e: vec![vec![Literal::Ret {
            site: SiteId::new(u32::MAX, 0),
            value: ValueSummary::Bool(true),
        }]],
    }
}

/// A pool of length-predicate detectors with overlapping accept sets, so
/// random subsets produce genuine priority contention (many values match
/// several packs and the tie-break order matters).
fn pack_pool() -> Vec<Pack> {
    let pred = |slug: &str, cond: &str| {
        boolean_pack(
            slug,
            "check",
            &format!("def check(s):\n    if {cond}:\n        return True\n    return False\n"),
        )
    };
    vec![
        pred("evenlen", "len(s) % 2 == 0"),
        pred("short", "len(s) < 3"),
        pred("long", "len(s) > 5"),
        pred("triple", "len(s) % 3 == 0"),
        pred("exact4", "len(s) == 4"),
    ]
}

fn validators(packs: &[Pack]) -> Vec<PackValidator> {
    packs.iter().map(|p| p.validator().unwrap()).collect()
}

/// The serial first-match reference: per column, the index of the first
/// pack (in `packs` order) accepting more than 80% of its values, from
/// `detect_by_values_mut` over one reused probe slot per pack.
fn reference(packs: &[Pack], columns: &[Vec<String>]) -> Vec<Option<usize>> {
    let validators = validators(packs);
    // `detect_by_values_mut` names detectors with `&'static str`; name
    // them by priority index instead of by slug.
    const NAMES: [&str; 5] = ["0", "1", "2", "3", "4"];
    let mut detectors: Vec<ValueDetectorMut> = validators
        .iter()
        .zip(NAMES)
        .map(|(pack, name)| {
            let mut slot = pack.probe_executor();
            let probe = move |v: &str| pack.accepts_with_fuel_in(&mut slot, v, None).0;
            (name, Box::new(probe) as Box<dyn FnMut(&str) -> bool>)
        })
        .collect();
    let columns: Vec<Column> = columns
        .iter()
        .map(|values| Column {
            header: None,
            values: values.clone(),
            truth: None,
        })
        .collect();
    let mut out = vec![None; columns.len()];
    for d in detect_by_values_mut(&columns, &mut detectors) {
        out[d.column] = d.slug.parse().ok();
    }
    out
}

#[test]
fn lazy_equals_eager_on_random_pack_and_value_sets() {
    let pool = pack_pool();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for trial in 0..8 {
        // A random subset of packs in random priority order…
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let npacks = rng.gen_range(2..=pool.len());
        let chosen: Vec<Pack> = order[..npacks].iter().map(|&i| pool[i].clone()).collect();

        // …and a random batch of values with clumpy lengths (clumps make
        // column thresholds actually trigger both pass and fail paths).
        let nvalues = rng.gen_range(4..=24usize);
        let values: Vec<String> = (0..nvalues)
            .map(|_| {
                let len = if rng.gen_bool(0.6) {
                    rng.gen_range(0..4usize) * 2 // mostly even, incl. empty
                } else {
                    rng.gen_range(0..9usize)
                };
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect()
            })
            .collect();

        // Ground truth: the serial reference, each value as a one-value
        // column, and the whole batch as one column.
        let singletons: Vec<Vec<String>> = values.iter().map(|v| vec![v.clone()]).collect();
        let expected_batch = reference(&chosen, &singletons);
        let expected_column = reference(&chosen, std::slice::from_ref(&values))[0];

        for workers in [1usize, 2, 4, 8] {
            let lazy = DetectorRuntime::from_packs(validators(&chosen), workers, 1024);
            assert_eq!(
                lazy.detect_batch(&values),
                expected_batch,
                "trial {trial} workers {workers}: lazy batch diverged\nvalues: {values:?}"
            );
            let lazy_col = DetectorRuntime::from_packs(validators(&chosen), workers, 1024);
            assert_eq!(
                lazy_col.detect_column(&values),
                expected_column,
                "trial {trial} workers {workers}: lazy column diverged\nvalues: {values:?}"
            );
            // Lazy never issues more probes than the full matrix.
            let spent = autotype_serve::Metrics::read(&lazy.metrics().cache_misses);
            assert!(
                spent <= (values.len() * npacks) as u64,
                "trial {trial} workers {workers}: issued {spent} > matrix"
            );
        }
    }
}
