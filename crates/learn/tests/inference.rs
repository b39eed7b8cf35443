//! Batched forest inference against the one-sample reference, and a pinned
//! full-size model.

use isa_learn::{CyclePair, PredictorConfig, RandomForest, TimingErrorPredictor};

/// An overclocked-adder-like stream: output bit `n` is timing-erroneous
/// when it has to change and its carry arrives through a propagate run of
/// at least five stages, plus ~1 % label noise so trees grow to full
/// depth.
fn stream(n: usize, width: u32, seed: u64) -> Vec<CyclePair> {
    let mask = (1u64 << width) - 1;
    let out_mask = (1u64 << (width + 1)) - 1;
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut prev_gold = 0u64;
    let raw: Vec<(u64, u64, u64, u64)> = (0..n)
        .map(|_| {
            let (a, b) = (next() & mask, next() & mask);
            let gold = (a + b) & out_mask;
            let (p, g) = (a ^ b, a & b);
            let mut flips = 0u64;
            for bit in 1..=width {
                let mut run = 0;
                let mut j = bit;
                while j > 0 && (p >> (j - 1)) & 1 == 1 {
                    run += 1;
                    j -= 1;
                }
                let carried = j > 0 && (g >> (j - 1)) & 1 == 1;
                let late = carried && run >= 4 && ((gold ^ prev_gold) >> bit) & 1 == 1;
                let noise = next() % 97 == 0;
                if late ^ noise {
                    flips |= 1 << bit;
                }
            }
            prev_gold = gold;
            (a, b, gold, flips)
        })
        .collect();
    CyclePair::from_stream(&raw)
}

/// One output bit's model as the text form records it.
enum BitModel {
    Constant(bool),
    Forest(RandomForest),
}

/// The per-bit models of a trained predictor, read back from its text
/// form.
fn bit_models(model: &TimingErrorPredictor) -> Vec<BitModel> {
    let text = model.to_text();
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    lines.next().expect("header");
    (0..model.out_bits())
        .map(|n| {
            let (_, line) = lines.next().expect("bit line");
            let mut parts = line.split_whitespace().skip(1);
            assert_eq!(parts.next(), Some(n.to_string().as_str()));
            match parts.next() {
                Some("constant") => BitModel::Constant(parts.next() == Some("1")),
                Some("forest") => {
                    BitModel::Forest(RandomForest::from_lines(&mut lines).expect("forest"))
                }
                other => panic!("unexpected bit model {other:?}"),
            }
        })
        .collect()
}

/// One cycle's packed feature sample for output bit `n`, laid out as the
/// paper's feature vector: `x[t]` (a then b), `x[t-1]`, `yRTL_n[t-1]`,
/// `yRTL_n[t]`.
fn packed_sample(c: &CyclePair, width: u32, n: u32) -> Vec<u64> {
    let w = width as usize;
    let mut words = vec![0u64; (4 * w + 2).div_ceil(64)];
    let mut set = |i: usize, v: bool| words[i / 64] |= u64::from(v) << (i % 64);
    for (slot, value) in [c.a, c.b, c.a_prev, c.b_prev].into_iter().enumerate() {
        for j in 0..w {
            set(slot * w + j, (value >> j) & 1 == 1);
        }
    }
    set(4 * w, (c.gold_prev >> n) & 1 == 1);
    set(4 * w + 1, (c.gold >> n) & 1 == 1);
    words
}

#[test]
fn batched_flips_equal_one_sample_forest_votes() {
    for width in [8u32, 16, 32] {
        let model = TimingErrorPredictor::train(
            &stream(1_500, width, 0x7EA1 + u64::from(width)),
            width,
            &PredictorConfig::default(),
        );
        assert!(model.trained_bits() > 1, "width {width} must train forests");
        let models = bit_models(&model);
        for len in [1usize, 63, 64, 65, 4_000] {
            let cycles = stream(len, width, 0xB47C + len as u64);
            let batched = model.predict_flips_batch(&cycles);
            assert_eq!(batched.len(), len);
            for (i, (c, &got)) in cycles.iter().zip(&batched).enumerate() {
                let mut want = 0u64;
                for (n, bit) in models.iter().enumerate() {
                    let erroneous = match bit {
                        BitModel::Constant(constant) => *constant,
                        BitModel::Forest(forest) => {
                            forest.predict(&packed_sample(c, width, n as u32))
                        }
                    };
                    want |= u64::from(erroneous) << n;
                }
                assert_eq!(got, want, "width {width}, length {len}, cycle {i}");
                assert_eq!(model.predict_flips(c), want);
            }
        }
    }
}

/// FNV-1a over the model text.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn full_size_model_is_pinned() {
    // 8,000 cycles at width 32 (the figures' training size) with noisy
    // labels: deep trees on most bits, so any change to split selection,
    // RNG order or node layout moves the hash.
    let model = TimingErrorPredictor::train(
        &stream(8_000, 32, 0x5EED_8000),
        32,
        &PredictorConfig::default(),
    );
    let text = model.to_text();
    assert_eq!(model.trained_bits(), 32);
    assert_eq!(
        fnv1a64(text.as_bytes()),
        0xc9b3_d321_92b3_4c10,
        "model text changed ({} bytes)",
        text.len()
    );
}
