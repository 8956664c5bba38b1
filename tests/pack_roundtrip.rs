//! Property-style tests for the detector-pack wire format: serialization
//! must be a bijection on the pack, rehydration must preserve verdicts
//! exactly, and *no* malformed input — truncated, corrupted, or garbage —
//! may panic the reader.

use autotype_exec::{EntryPoint, Literal};
use autotype_lang::{SiteId, ValueSummary};
use autotype_pack::{Pack, PackError};
use proptest::prelude::*;

/// A small but representative pack: multi-file program, branch + synthetic
/// return literals, a package slice, non-trivial metadata.
fn sample_pack() -> Pack {
    let main =
        "def is_even_len(s):\n    if len(s) % 2 == 0:\n        return True\n    return False\n";
    let helper = "def mod2(n):\n    return n % 2\n";
    Pack {
        slug: "evenlen".into(),
        keyword: "even length".into(),
        label: "demo/mod.is_even_len".into(),
        repo_name: "demo".into(),
        file: "mod".into(),
        strategy: "S2".into(),
        method: "DNF-S".into(),
        score: 0.95,
        neg_fraction: 0.125,
        explanation: "(b2==True ∧ ret==True)".into(),
        fuel: 10_000,
        installs: 1,
        candidate_file: 0,
        entry: EntryPoint::Function {
            name: "is_even_len".into(),
        },
        files: vec![
            ("mod".into(), main.into()),
            ("helper".into(), helper.into()),
        ],
        packages: vec![("helper".into(), helper.into())],
        dnf_e: vec![vec![
            Literal::Branch {
                site: SiteId::new(0, 2),
                taken: true,
            },
            Literal::Ret {
                site: SiteId::new(u32::MAX, 0),
                value: ValueSummary::Bool(true),
            },
        ]],
    }
}

proptest! {
    /// Byte round trip is the identity on the pack, and — the property
    /// that actually matters — the rehydrated validator returns the same
    /// verdict as the original on arbitrary printable inputs (generated
    /// negatives) and on known positives.
    #[test]
    fn round_tripped_validator_agrees_on_all_inputs(value in "\\PC{0,16}") {
        let pack = sample_pack();
        let round_tripped = Pack::from_bytes(&pack.to_bytes()).expect("round trip");
        prop_assert_eq!(&round_tripped, &pack);
        prop_assert_eq!(round_tripped.pack_id(), pack.pack_id());

        let original = pack.validator().expect("original validator");
        let rehydrated = round_tripped.validator().expect("rehydrated validator");
        // The original probes through a fresh slot each time, the
        // rehydrated one through a single reused slot.
        let mut reused = rehydrated.probe_executor();
        // The generated value, plus fixed positives/negatives so every
        // case exercises both verdict polarities.
        for input in [value.as_str(), "abcd", "", "abc", "\u{e9}\u{e9}"] {
            prop_assert_eq!(
                original.accepts_with_fuel_in(&mut original.probe_executor(), input, None),
                rehydrated.accepts_with_fuel_in(&mut reused, input, None),
                "verdicts diverged on {:?}", input
            );
        }
    }

    /// Every truncation of a valid pack errors — never panics, never
    /// yields a pack.
    #[test]
    fn truncated_packs_error_not_panic(cut in 0usize..100_000) {
        let bytes = sample_pack().to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(Pack::from_bytes(&bytes[..cut]).is_err(), "cut at {} parsed", cut);
    }

    /// Every single-byte corruption errors. Payload corruption must be
    /// caught by the CRC specifically (or by a field-level check before
    /// the CRC is even reached — both are sound; silently succeeding with
    /// different bytes is not, except for byte values that decode
    /// identically, which cannot happen with a bit flip).
    #[test]
    fn corrupted_packs_error_not_panic(pos in 0usize..100_000, flip in 1u8..=255) {
        let pack = sample_pack();
        let mut bytes = pack.to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        match Pack::from_bytes(&bytes) {
            Err(_) => {} // any structured error is fine; a panic is not
            Ok(parsed) => {
                // The only way corruption may "succeed" is if it produced
                // the same logical pack (impossible for a bit flip inside
                // the sealed region, but the header length field aliasing
                // is guarded here for completeness).
                prop_assert_eq!(parsed, pack, "corruption at {} silently changed the pack", pos);
            }
        }
    }

    /// Arbitrary garbage never panics the reader.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = Pack::from_bytes(&bytes);
    }
}

/// Deterministic spot checks for the error taxonomy (kept outside
/// `proptest!` so the variants are pinned, not just "some error").
#[test]
fn error_variants_are_specific() {
    let pack = sample_pack();
    let good = pack.to_bytes();

    let mut bad_magic = good.clone();
    bad_magic[0] = b'Z';
    assert!(matches!(
        Pack::from_bytes(&bad_magic),
        Err(PackError::BadMagic(_))
    ));

    let mut future = good.clone();
    future[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(matches!(
        Pack::from_bytes(&future),
        Err(PackError::UnsupportedVersion(_))
    ));

    let mut corrupt_payload = good.clone();
    let mid = 14 + (good.len() - 18) / 2; // middle of the payload
    corrupt_payload[mid] ^= 0x40;
    assert!(matches!(
        Pack::from_bytes(&corrupt_payload),
        Err(PackError::CorruptCrc { .. })
    ));

    assert!(matches!(
        Pack::from_bytes(&good[..good.len() - 1]),
        Err(PackError::Truncated)
    ));
}
