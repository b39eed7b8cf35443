//! Round-trip tests of the plain-text model format on real trained models.

use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};

fn training_stream(n: usize) -> Vec<CyclePair> {
    let mut seed = 0xBEEFu64;
    let mut raw = Vec::with_capacity(n);
    for _ in 0..n {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let a = seed & 0xFFFF_FFFF;
        let b = (seed >> 13) & 0xFFFF_FFFF;
        let gold = (a + b) & 0x1_FFFF_FFFF;
        // Two misbehaving bits with different patterns.
        let mut flips = 0u64;
        if (a & 0xF) == 0xF {
            flips |= 1 << 12;
        }
        if (b & 0x3) == 0x3 && (a & 1) == 1 {
            flips |= 1 << 30;
        }
        raw.push((a, b, gold, flips));
    }
    CyclePair::from_stream(&raw)
}

#[test]
fn roundtrip_preserves_every_prediction() {
    let cycles = training_stream(2500);
    let model = TimingErrorPredictor::train(&cycles, 32, &PredictorConfig::default());
    assert!(model.trained_bits() >= 2, "both planted bits should train");
    let text = model.to_text();
    let reloaded = TimingErrorPredictor::from_text(&text).expect("roundtrip");
    assert_eq!(reloaded, model);
    assert_eq!(reloaded.width(), model.width());
    assert_eq!(reloaded.out_bits(), model.out_bits());
    assert_eq!(reloaded.trained_bits(), model.trained_bits());
    for cycle in &cycles {
        assert_eq!(
            reloaded.predict_flips(cycle),
            model.predict_flips(cycle),
            "prediction diverged after reload"
        );
    }
}

#[test]
fn text_format_is_line_oriented_and_inspectable() {
    let cycles = training_stream(800);
    let model = TimingErrorPredictor::train(&cycles, 32, &PredictorConfig::default());
    let text = model.to_text();
    assert!(text.starts_with("timing-error-predictor width=32 out_bits=33"));
    assert!(text.contains("bit 0 constant 0"));
    assert!(text.contains("forest trees="));
    assert!(text.contains("split "));
}

#[test]
fn malformed_inputs_are_rejected_with_line_numbers() {
    use isa_learn::serialize::ParseModelError;
    let cases = [
        ("", "empty"),
        ("garbage header", "header"),
        ("timing-error-predictor width=8 out_bits=7\n", "inconsistent"),
        (
            "timing-error-predictor width=8 out_bits=9\nbit 1 constant 0\n",
            "out of order",
        ),
        (
            "timing-error-predictor width=8 out_bits=9\nbit 0 forest\nforest trees=1\ntree features=2 nodes=1\nsplit 0 0 0\n",
            "child or leaf",
        ),
    ];
    for (text, label) in cases {
        let err: ParseModelError = match TimingErrorPredictor::from_text(text) {
            Err(e) => e,
            Ok(_) => panic!("case {label:?} should fail"),
        };
        assert!(err.to_string().contains("line"), "{label}: {err}");
    }
}

#[test]
fn tampered_split_child_is_rejected() {
    let cycles = training_stream(800);
    let model = TimingErrorPredictor::train(&cycles, 32, &PredictorConfig::default());
    let text = model.to_text();
    // Point a split child far out of range.
    let tampered = text.replacen("split ", "split 999999 ", 1);
    if tampered != text {
        assert!(TimingErrorPredictor::from_text(&tampered).is_err());
    }
}
