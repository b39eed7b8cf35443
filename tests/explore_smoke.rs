//! End-to-end smoke test of the design-space exploration subsystem (the
//! `explore` bin's pipeline) at reduced counts: determinism, front
//! integrity, and the paper's combined-errors thesis reproduced as a
//! search result.

use overclocked_isa::engine::{Engine, ExperimentConfig};
use overclocked_isa::experiments::explore::{run_on, ExploreSettings};
use overclocked_isa::explore::Query;

fn settings() -> ExploreSettings {
    ExploreSettings {
        cycles: 1_500,
        energy_cycles: 256,
        ..ExploreSettings::default()
    }
}

#[test]
fn same_seed_produces_byte_identical_csv() {
    let config = ExperimentConfig::default();
    // Fresh engines and different thread counts: the CSV must not depend
    // on either (tier-B scoring is order-preserving, energy and STA are
    // per-design deterministic).
    let a = run_on(&Engine::with_threads(1), &config, &settings());
    let b = run_on(&Engine::with_threads(4), &config, &settings());
    assert_eq!(a.to_csv(), b.to_csv(), "same seed must be byte-identical");
    assert_eq!(a.render(), b.render());
}

#[test]
fn paper_space_front_reproduces_the_combined_errors_thesis() {
    let config = ExperimentConfig::default();
    let report = run_on(&Engine::with_threads(1), &config, &settings());

    // The full paper matrix is characterized; the CSV carries one row per
    // candidate.
    assert_eq!(report.outcome.stats.considered, 48);
    assert_eq!(report.to_csv().lines().count(), 1 + 48);

    // Front integrity: mutually non-dominated, only simulated candidates.
    let entries = report.outcome.front.entries();
    assert!(!entries.is_empty());
    for (i, a) in entries.iter().enumerate() {
        for (j, b) in entries.iter().enumerate() {
            if i != j {
                assert!(
                    !a.objectives.dominates(&b.objectives),
                    "front entries {} and {} are not mutually non-dominated",
                    a.key,
                    b.key
                );
            }
        }
    }
    for entry in entries {
        let eval = report.candidate(&entry.key).expect("front point evaluated");
        assert!(
            !eval.pruned,
            "{}: pruned points cannot reach the front",
            entry.key
        );
    }

    // The acceptance criterion: the front contains, for at least one
    // quality constraint (the witness's own quality level), a combined
    // design/clock point strictly dominating every pure-structural and
    // every pure-overclocking configuration at that quality.
    let witness = report
        .outcome
        .thesis_witness()
        .expect("the paper space must yield a combined-errors witness");
    assert!(witness.combined.is_combined());
    assert!(witness.combined.cpr > 0.0);
    assert!(
        witness.dominated_structural >= 1,
        "the witness must beat at least one measured pure-structural configuration"
    );
    // Re-check the domination claim from the raw data.
    let combined = report.candidate(&witness.combined.id()).unwrap();
    let combined_objectives = combined.objectives().unwrap();
    for eval in &report.outcome.evaluated {
        let pure = eval.point.is_pure_structural() || eval.point.is_pure_overclocking();
        if !pure {
            continue;
        }
        let Some(quality) = eval.quality_db else {
            continue;
        };
        if quality >= witness.quality_db {
            assert!(
                combined_objectives.dominates(&eval.objectives().unwrap()),
                "witness {} must strictly dominate {}",
                witness.combined.label(),
                eval.point.label()
            );
        }
    }
}

#[test]
fn quality_constrained_query_answers_cheapest_design() {
    let config = ExperimentConfig::default();
    let report = run_on(&Engine::with_threads(1), &config, &settings());
    // "Cheapest design meeting >= 50 dB at clock <= 285 ps".
    let query = Query {
        min_quality_db: 50.0,
        max_clock_ps: Some(285.0),
    };
    let answer = report.outcome.cheapest(&query).expect("a design qualifies");
    assert!(answer.quality_db.unwrap() >= 50.0);
    assert!(answer.clock_ps <= 285.0);
    // Nothing qualifying is cheaper.
    for eval in &report.outcome.evaluated {
        if eval.quality_db.is_some_and(|q| q >= 50.0) && eval.clock_ps <= 285.0 {
            assert!(eval.energy_fj >= answer.energy_fj);
        }
    }
}
