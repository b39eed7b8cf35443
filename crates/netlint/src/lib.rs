//! # isa-netlint
//!
//! Static analysis over [`isa_netlist`] designs: every netlist and timing
//! annotation is verified *before* anything simulates it, converting a
//! whole class of silent wrong-answer bugs (combinational loops, floating
//! or multi-driven nets, corrupt delays, an unsound classifier settle
//! table) into build-time [`Diagnostic`]s.
//!
//! Four pass families compose into [`lint_adder`] (see each module):
//!
//! * [`structural`] — well-formedness of the gate graph itself: the
//!   topological list order every sweep relies on (with Tarjan SCC
//!   naming any combinational loop when that order breaks),
//!   single-driver / no-floating-net bookkeeping, dead-cell
//!   cone-of-influence analysis from the primary outputs, pin arities and
//!   the adder I/O convention;
//! * [`tapecheck`] — the **verified tape**: the instruction tape compiled
//!   from the netlist's one level schedule ([`Levelization`]) is proven
//!   bit-identical to [`Netlist::evaluate_words`] by a replay over
//!   pseudo-random 64-lane batteries, and the [`LintReport`] hands that
//!   tape to its caller (the engine's word hot path runs it); the
//!   functional stage in [`lint`] checks the behavioural golden model
//!   against that same tape's sums, on corner and seeded random pairs;
//! * [`timing`] — sanity of the timing graph: annotation coverage,
//!   finite non-negative delays, arrival-time monotonicity along every
//!   edge, and [`StaReport::downstream_ps`] re-verified as a longest-path
//!   labeling (edge dominance + tightness + the
//!   `max(arrival + downstream) = critical` identity);
//! * [`audit`] — the conservatism audit of the lane classifier's
//!   `bound_fs[L]` settle table: monotone in `L`, at or above an
//!   independently recomputed carry-chain window bound for every run
//!   length, recovering the critical delay at full width, and every
//!   zero-group-P span typing re-proven *semantically* against the
//!   netlist on word-evaluation batteries.
//!
//! [`mutate`] provides the seeded fault injector the negative-path test
//! battery uses (each mutation must be caught by its matching rule), and
//! [`diag`] the severity/rule/locus diagnostics model with human and JSON
//! rendering.
//!
//! # Example
//!
//! ```
//! use isa_netlint::{lint_adder, LintOptions};
//! use isa_netlist::cell::CellLibrary;
//! use isa_netlist::timing::DelayAnnotation;
//! use isa_netlist::{build_exact, AdderTopology};
//!
//! let adder = build_exact(8, AdderTopology::Ripple);
//! let annotation = DelayAnnotation::nominal(adder.netlist(), &CellLibrary::industrial_65nm());
//! let report = lint_adder(&adder, &annotation, None, &LintOptions::default());
//! assert!(!report.has_errors(), "{}", report.render());
//! ```
//!
//! [`Netlist::evaluate_words`]: isa_netlist::Netlist::evaluate_words
//! [`Levelization`]: isa_netlist::Levelization
//! [`StaReport::downstream_ps`]: isa_netlist::StaReport::downstream_ps

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod diag;
pub mod lint;
pub mod mutate;
pub mod structural;
pub mod tapecheck;
pub mod timing;

pub use diag::{Diagnostic, LintReport, Locus, Rule, Severity};
pub use lint::{lint_adder, lint_adder_with_classifier, LintOptions};
pub use mutate::{apply_mutation, Mutated, Mutation, ALL_MUTATIONS};
pub use tapecheck::verify_tape;

/// Deterministic 64-bit stream (SplitMix64) for the replay, audit and
/// functional batteries — no external RNG dependency, identical across
/// platforms.
#[derive(Debug, Clone)]
pub(crate) struct Splitmix {
    state: u64,
}

impl Splitmix {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
