//! Seeded input generators. Every workload input is a pure function of
//! the benchmark seed; the program under test only ever sees the
//! generated inputs.

use isa_core::{enumerate_quadruples, paper_designs, Design};
use isa_netlist::{synthesize_isa, CellLibrary, SynthesisOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng};

/// A generator for `seed` mixed with a per-use `stream` tag, so each
/// generator draws independently of the others under one seed.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// `k` distinct indices of `0..n`, in drawing order.
pub fn sample_indices(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx
}

/// Derives the per-seed experiment seeds the figures workload runs under.
#[must_use]
pub fn derived_seeds(seed: u64) -> (u64, u64) {
    let mut rng = rng(seed, 0xF16);
    (rng.next_u64(), rng.next_u64())
}

/// The explore workload's candidate designs: one quadruple drawn from
/// each of `count` equal strata of the full width-32 space's
/// lexicographic order, plus the exact baseline. The explorer sees a
/// sub-grid of the real space, and every seed gets a like mix of designs,
/// so the amount of work varies little from seed to seed.
#[must_use]
pub fn explore_designs(seed: u64, count: usize) -> Vec<Design> {
    let all = enumerate_quadruples(32);
    let mut rng = rng(seed, 0xE8);
    (0..count)
        .map(|k| {
            let stratum = k * all.len() / count..(k + 1) * all.len() / count;
            Design::Isa(all[rng.gen_range(stratum)])
        })
        .chain([Design::Exact { width: 32 }])
        .collect()
}

/// True when the design synthesizes under the paper's 300 ps constraint.
#[must_use]
pub fn feasible(design: &Design) -> bool {
    match design {
        Design::Exact { .. } => true,
        Design::Isa(cfg) => synthesize_isa(
            cfg,
            300.0,
            &CellLibrary::industrial_65nm(),
            &SynthesisOptions::default(),
        )
        .is_ok(),
    }
}

/// The serve workload's design pool: the twelve paper designs plus
/// `extra` synthesis-feasible sampled quadruples. Infeasible designs
/// would answer with errors, so they are filtered out here.
#[must_use]
pub fn serve_pool(seed: u64, extra: usize) -> Vec<Design> {
    let mut pool = paper_designs();
    let all = enumerate_quadruples(32);
    for i in sample_indices(&mut rng(seed, 0x5E7), all.len(), all.len()) {
        if pool.len() >= 12 + extra {
            break;
        }
        let design = Design::Isa(all[i]);
        if !pool.contains(&design) && feasible(&design) {
            pool.push(design);
        }
    }
    pool
}

/// Zipf(1.0) sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Stream workloads and clock reductions the serve keys span.
pub const SERVE_STREAMS: [&str; 3] = ["uniform", "walk", "sine"];
pub const SERVE_CPRS: [f64; 4] = [0.0, 0.05, 0.10, 0.15];
/// Stream length of an ordinary quality request.
pub const SERVE_CYCLES: u64 = 10_000;
/// Per-request simulation budget the daemon runs with; the degraded share
/// asks for more cycles than this.
pub const SERVE_SIM_BUDGET: u64 = 20_000;

/// What a generated request asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A stream quality query within budget: (design, cpr, stream).
    Stream(Design, f64, &'static str),
    /// A kernel quality query.
    Kernel,
    /// A cheapest-design query.
    Cheapest,
    /// A stream query over the simulation budget: answered degraded and
    /// never stored.
    OverBudget,
}

/// One generated request: its line (without the id) and what it asks.
/// Requests with identical bodies have identical answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub body: String,
    pub kind: Kind,
}

impl ServeRequest {
    /// The request line with a correlation id.
    #[must_use]
    pub fn line(&self, id: usize) -> String {
        format!("{{\"id\":{id},{}", &self.body[1..])
    }
}

fn quality(design: &Design, cpr: f64, workload: &str, extra: &str) -> String {
    let label = match design {
        Design::Exact { .. } => "exact".to_owned(),
        Design::Isa(_) => design.to_string(),
    };
    format!(
        "{{\"op\":\"quality\",\"design\":\"{label}\",\"cpr\":{cpr},\"workload\":\"{workload}\"{extra}}}"
    )
}

/// The seeded request trace: Zipf(1.0) over the (design × cpr × stream)
/// keys of the pool, ranks shuffled by the seed, plus small seeded shares
/// of kernel, `cheapest` and over-budget (degraded) queries.
#[must_use]
pub fn serve_trace(seed: u64, pool: &[Design], requests: usize) -> Vec<ServeRequest> {
    let mut keys: Vec<(Design, f64, &'static str)> = Vec::new();
    for d in pool {
        for &cpr in &SERVE_CPRS {
            for &w in &SERVE_STREAMS {
                keys.push((*d, cpr, w));
            }
        }
    }
    let mut rng = rng(seed, 0x21F);
    let order = sample_indices(&mut rng, keys.len(), keys.len());
    let zipf = Zipf::new(keys.len());
    let paper = paper_designs();
    let mut trace = Vec::with_capacity(requests);
    for _ in 0..requests {
        let roll: f64 = rng.gen_range(0.0..1.0);
        let (body, kind) = if roll < 0.01 {
            let d = paper[rng.gen_range(0..paper.len())];
            let kernel = ["fir", "dot"][rng.gen_range(0..2usize)];
            let cpr = SERVE_CPRS[rng.gen_range(0..4usize)];
            (quality(&d, cpr, kernel, ",\"scale\":1"), Kind::Kernel)
        } else if roll < 0.015 {
            let db = [20, 30, 40][rng.gen_range(0..3usize)];
            let cpr = SERVE_CPRS[1 + rng.gen_range(0..3usize)];
            let query = format!("\"min_quality_db\":{db},\"cpr\":{cpr},\"workload\":\"uniform\"");
            let body = format!("{{\"op\":\"cheapest\",{query},\"cycles\":{SERVE_CYCLES}}}");
            (body, Kind::Cheapest)
        } else if roll < 0.025 {
            let (d, cpr, w) = keys[order[zipf.sample(&mut rng)]];
            let cycles = format!(",\"cycles\":{}", 2 * SERVE_SIM_BUDGET);
            (quality(&d, cpr, w, &cycles), Kind::OverBudget)
        } else {
            let (d, cpr, w) = keys[order[zipf.sample(&mut rng)]];
            let cycles = format!(",\"cycles\":{SERVE_CYCLES}");
            (quality(&d, cpr, w, &cycles), Kind::Stream(d, cpr, w))
        };
        trace.push(ServeRequest { body, kind });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(explore_designs(7, 50), explore_designs(7, 50));
        assert_ne!(explore_designs(7, 50), explore_designs(8, 50));
        let pool = serve_pool(7, 20);
        assert_eq!(pool, serve_pool(7, 20));
        assert_eq!(serve_trace(7, &pool, 500), serve_trace(7, &pool, 500));
        assert_ne!(serve_trace(7, &pool, 500), serve_trace(8, &pool, 500));
        assert_eq!(derived_seeds(3), derived_seeds(3));
        assert_ne!(derived_seeds(3), derived_seeds(4));
    }

    #[test]
    fn explore_sample_is_distinct_sorted_and_keeps_the_baseline() {
        let designs = explore_designs(1, 200);
        assert_eq!(designs.len(), 201);
        assert_eq!(designs.last(), Some(&Design::Exact { width: 32 }));
        let unique: HashSet<_> = designs.iter().collect();
        assert_eq!(unique.len(), designs.len());
    }

    #[test]
    fn serve_pool_is_feasible_and_holds_the_paper_designs() {
        let pool = serve_pool(11, 30);
        assert_eq!(pool.len(), 42);
        assert!(pool.iter().all(feasible));
        assert_eq!(&pool[..12], paper_designs().as_slice());
    }

    #[test]
    fn default_seed_hit_ratio_lands_in_range() {
        // The store starts empty, so the first occurrence of each key
        // misses and every repeat hits (degraded answers are never
        // stored, so each of those misses).
        let seed = 1;
        let pool = serve_pool(seed, crate::serve::POOL_EXTRA);
        let trace = serve_trace(seed, &pool, crate::serve::REQUESTS);
        let mut seen = HashSet::new();
        let hits = trace
            .iter()
            .filter(|r| r.kind != Kind::OverBudget)
            .filter(|r| !seen.insert(r.body.as_str()))
            .count();
        let ratio = hits as f64 / trace.len() as f64;
        assert!((0.8..=0.95).contains(&ratio), "hit ratio {ratio}");
    }

    #[test]
    fn zipf_rank_zero_is_most_frequent() {
        let zipf = Zipf::new(100);
        let mut rng = rng(5, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        // P(rank 0) = 1 / H_100 ~= 0.193.
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.193).abs() < 0.02, "{p0}");
    }
}
