//! Release serialization: the published dataset round-trips through JSON
//! (the wire format a data owner would actually ship).

use cahd::prelude::*;

fn release() -> (TransactionSet, SensitiveSet, PublishedDataset) {
    let data = cahd::data::profiles::bms1_like(0.01, 3);
    let mut rng = rand_seed(5);
    let sens = SensitiveSet::select_random(&data, 5, 10, &mut rng).unwrap();
    let pub_ = Anonymizer::new(AnonymizerConfig::with_privacy_degree(5))
        .anonymize(&data, &sens)
        .unwrap()
        .published;
    (data, sens, pub_)
}

#[test]
fn json_roundtrip_preserves_release() {
    let (data, sens, pub_) = release();
    let json = serde_json::to_string(&pub_).unwrap();
    let back: PublishedDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(back, pub_);
    // The deserialized release still verifies against the original data.
    verify_published(&data, &sens, &back, 5).unwrap();
}

#[test]
fn stripped_release_omits_member_ids() {
    let (_, _, pub_) = release();
    let stripped = pub_.clone().strip_members();
    let json = serde_json::to_string(&stripped).unwrap();
    let back: PublishedDataset = serde_json::from_str(&json).unwrap();
    assert!(back.groups.iter().all(|g| g.members.is_empty()));
    // Group structure and summaries are intact.
    assert_eq!(back.n_groups(), pub_.n_groups());
    assert_eq!(back.n_transactions(), pub_.n_transactions());
    assert_eq!(back.privacy_degree(), pub_.privacy_degree());
}

#[test]
fn json_is_human_inspectable() {
    let (_, _, pub_) = release();
    let json = serde_json::to_string_pretty(&pub_).unwrap();
    assert!(json.contains("\"sensitive_items\""));
    assert!(json.contains("\"qid_rows\""));
    assert!(json.contains("\"sensitive_counts\""));
}

#[test]
fn checkpoint_fixture_resumes_and_tampered_one_fails_closed() {
    use cahd::core::checkpoint::StreamingCheckpoint;
    use cahd::core::streaming::StreamingAnonymizer;
    use cahd::core::CahdError;

    // The clean fixture (a real `--checkpoint` pause after one 40-row
    // batch of fixtures/demo.dat) validates and resumes.
    let text = std::fs::read_to_string("fixtures/demo_checkpoint.json").unwrap();
    let cp: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
    cp.validate().unwrap();
    assert_eq!(cp.next_id, 40);
    let sens = SensitiveSet::new(vec![14, 26, 28], 30);
    let mut s =
        StreamingAnonymizer::resume(AnonymizerConfig::with_privacy_degree(4), sens.clone(), &cp)
            .unwrap();
    assert_eq!(s.next_stream_id(), 40);
    // It is live: feeding the rest of demo.dat releases the stream's
    // remaining chunks.
    let data = cahd::data::io::read_dat_file("fixtures/demo.dat", Some(30)).unwrap();
    let mut released = 0;
    for i in 40..data.n_transactions() {
        if s.push(data.transaction(i).to_vec()).unwrap().is_some() {
            released += 1;
        }
    }
    if s.finish().unwrap().is_some() {
        released += 1;
    }
    assert_eq!(released, 2, "80 remaining rows at batch 40");

    // The tampered twin (stream cursor advanced behind the digest's back)
    // fails closed before any state is trusted.
    let text = std::fs::read_to_string("fixtures/demo_checkpoint_tampered.json").unwrap();
    let bad: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
    let err = bad.validate().unwrap_err();
    assert!(
        matches!(err, CahdError::CorruptCheckpoint { ref reason } if reason.contains("digest")),
        "{err:?}"
    );
    assert!(
        StreamingAnonymizer::resume(AnonymizerConfig::with_privacy_degree(4), sens, &bad,).is_err()
    );
}

#[test]
fn dat_roundtrip_through_disk() {
    let data = cahd::data::profiles::bms1_like(0.01, 9);
    let path = std::env::temp_dir().join(format!("cahd_it_{}.dat", std::process::id()));
    cahd::data::io::write_dat_file(&path, &data).unwrap();
    let back = cahd::data::io::read_dat_file(&path, Some(data.n_items())).unwrap();
    std::fs::remove_file(&path).ok();
    // The generator never emits empty transactions, so the roundtrip is
    // exact.
    assert_eq!(back, data);
}

/// Characters behind every JSON escape, plus multi-byte code points.
const SPECIAL: [char; 13] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', 'é', '€', '😀',
];

/// Strings mixing escapable characters, printable ASCII and any Unicode
/// scalar value (surrogate draws become U+FFFD).
fn arb_string() -> impl proptest::prelude::Strategy<Value = String> {
    use proptest::prelude::*;
    proptest::collection::vec((0u8..3, 0u32..0x11_0000), 0..48).prop_map(|cs| {
        cs.into_iter()
            .map(|(kind, x)| match kind {
                0 => SPECIAL[x as usize % SPECIAL.len()],
                1 => char::from_u32(0x20 + x % 0x5f).unwrap(),
                _ => char::from_u32(x).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// Encodes `s` as a JSON string literal, picking per character among its
/// raw form (when JSON allows it), its short escape and a `\uXXXX`
/// escape (basic-plane characters only, in either hex case).
fn escape_variously(s: &str, picks: &[u8]) -> String {
    let mut out = String::from('"');
    for (c, &pick) in s.chars().zip(picks.iter().cycle()) {
        let mut forms = Vec::new();
        if c != '"' && c != '\\' && c >= ' ' {
            forms.push(c.to_string());
        }
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        forms.extend(short.map(str::to_string));
        if (c as u32) < 0x1_0000 {
            forms.push(format!("\\u{:04x}", c as u32));
            forms.push(format!("\\u{:04X}", c as u32));
        }
        out.push_str(&forms[pick as usize % forms.len()]);
    }
    out.push('"');
    out
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    #[test]
    fn json_strings_round_trip(s in arb_string()) {
        let json = serde_json::to_string(&s).unwrap();
        proptest::prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s.clone());
        // Object keys take the same path.
        let v = serde_json::Value::Object(vec![(s.clone(), serde_json::Value::Str(s))]);
        let back: serde_json::Value =
            serde_json::from_str(&serde_json::to_string_pretty(&v).unwrap()).unwrap();
        proptest::prop_assert_eq!(back, v);
    }

    #[test]
    fn json_string_escapes_decode(
        s in arb_string(),
        picks in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let literal = escape_variously(&s, &picks);
        proptest::prop_assert_eq!(serde_json::from_str::<String>(&literal).unwrap(), s);
    }
}
