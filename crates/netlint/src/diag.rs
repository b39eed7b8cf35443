//! The diagnostics model: severities, rule identifiers, loci and the
//! [`LintReport`] every lint entry point returns, with human-readable and
//! machine-readable (JSON) rendering.

use std::fmt;
use std::time::Duration;

use isa_netlist::{CellId, InstructionTape, Levelization, NetId};
use isa_obs::json::escape_into;

/// How bad a finding is.
///
/// [`Error`](Severity::Error) findings make a design unbuildable
/// (`DesignContext::try_build` rejects it); warnings and infos are
/// reported but do not gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation; never gates anything.
    Info,
    /// Suspicious but not provably wrong (dead logic, unused inputs).
    Warning,
    /// A violated invariant: simulating this design would be meaningless.
    Error,
}

impl Severity {
    /// Stable lowercase label (used in both renderings).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Every lint rule, with a stable identifier and a fixed severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    // --- structural -----------------------------------------------------
    /// The gate graph contains a combinational cycle (Tarjan SCC).
    CombLoop,
    /// A cell reads a net that is neither a primary input nor the output
    /// of an earlier-listed cell (the list-order contract `evaluate_words`
    /// relies on).
    TopoOrder,
    /// More than one driver (cell or primary input) on one net.
    MultiDriven,
    /// The per-net driver table disagrees with the cell list.
    DriverBookkeeping,
    /// A net is read (by a cell or a primary output) but nothing drives it.
    FloatingNet,
    /// A cell's pin count does not match its kind's arity.
    BadArity,
    /// The netlist declares no primary outputs.
    NoOutputs,
    /// A cell outside the cone of influence of every primary output.
    DeadCell,
    /// A primary input that reaches no primary output.
    UnusedInput,
    /// Two primary outputs share a name.
    DuplicateOutputName,
    /// Input/output counts violate the adder convention (`2w` inputs,
    /// `w + 1` outputs).
    AdderIo,
    // --- instruction tape -----------------------------------------------
    /// The compiled tape's shape disagrees with the netlist (op/slot
    /// counts, primary I/O slot tables).
    TapeShape,
    /// Tape execution diverged from `evaluate_words` on some net (scalar
    /// or vector-chunk path).
    TapeReplay,
    // --- timing ---------------------------------------------------------
    /// The delay annotation does not cover every cell instance.
    AnnotationCoverage,
    /// A negative or non-finite cell delay.
    BadDelay,
    /// An arrival time drops along an edge (or disagrees with the
    /// max-plus recurrence).
    ArrivalMonotone,
    /// `downstream_ps` is not a consistent longest-path labeling
    /// (dominance or tightness violated on some edge).
    DownstreamConsistency,
    /// `max(arrival + downstream)` over all nets misses the critical delay.
    CriticalIdentity,
    // --- classifier audit -----------------------------------------------
    /// Classifier shape disagrees with the design (width, span ranges).
    ClassifierShape,
    /// The `bound_fs[L]` settle table is not monotone in `L`.
    BoundMonotone,
    /// `bound_fs[width]` does not recover the recomputed critical delay.
    BoundCritical,
    /// `bound_fs[L]` falls below the independently recomputed carry-chain
    /// window bound for some run length (conservatism broken).
    BoundUnderChain,
    /// A claimed group-P/G span is not semantically true on the netlist.
    PgTyping,
    // --- functional -----------------------------------------------------
    /// The netlist disagrees with the behavioural golden model.
    FunctionalMismatch,
}

impl Rule {
    /// Stable machine-readable identifier (`family.name`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::CombLoop => "structural.comb-loop",
            Rule::TopoOrder => "structural.topo-order",
            Rule::MultiDriven => "structural.multi-driven",
            Rule::DriverBookkeeping => "structural.driver-bookkeeping",
            Rule::FloatingNet => "structural.floating-net",
            Rule::BadArity => "structural.bad-arity",
            Rule::NoOutputs => "structural.no-outputs",
            Rule::DeadCell => "structural.dead-cell",
            Rule::UnusedInput => "structural.unused-input",
            Rule::DuplicateOutputName => "structural.duplicate-output-name",
            Rule::AdderIo => "structural.adder-io",
            Rule::TapeShape => "tape.shape",
            Rule::TapeReplay => "tape.replay",
            Rule::AnnotationCoverage => "timing.annotation-coverage",
            Rule::BadDelay => "timing.bad-delay",
            Rule::ArrivalMonotone => "timing.arrival-monotone",
            Rule::DownstreamConsistency => "timing.downstream-consistency",
            Rule::CriticalIdentity => "timing.critical-identity",
            Rule::ClassifierShape => "classifier.shape",
            Rule::BoundMonotone => "classifier.bound-monotone",
            Rule::BoundCritical => "classifier.bound-critical",
            Rule::BoundUnderChain => "classifier.bound-under-chain",
            Rule::PgTyping => "classifier.pg-typing",
            Rule::FunctionalMismatch => "functional.mismatch",
        }
    }

    /// The fixed severity of findings under this rule.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::DeadCell | Rule::UnusedInput | Rule::DuplicateOutputName => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Where in the design a finding is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locus {
    /// The design as a whole.
    Design,
    /// One cell instance.
    Cell(CellId),
    /// One net.
    Net(NetId),
    /// The `i`-th primary output.
    Output(usize),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Design => f.write_str("design"),
            Locus::Cell(c) => write!(f, "{c}"),
            Locus::Net(n) => write!(f, "{n}"),
            Locus::Output(i) => write!(f, "out[{i}]"),
        }
    }
}

/// One finding: a rule violation (or observation) at a locus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is (always `rule.severity()`).
    pub severity: Severity,
    /// Which rule fired.
    pub rule: Rule,
    /// Where it is anchored.
    pub locus: Locus,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a finding with the rule's fixed severity.
    #[must_use]
    pub fn new(rule: Rule, locus: Locus, message: impl Into<String>) -> Self {
        Self {
            severity: rule.severity(),
            rule,
            locus,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule, self.locus, self.message
        )
    }
}

/// Everything one lint run found, plus the level schedule and the
/// replay-verified instruction tape when the structure stage passed.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Name of the linted design (netlist name).
    pub design: String,
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The level schedule the tape was compiled from, when the structure
    /// stage found no error.
    pub levelization: Option<Levelization>,
    /// The instruction tape compiled from [`Self::levelization`], when the
    /// structure stage found no error. Its `tape.shape` and `tape.replay`
    /// findings are in [`Self::diagnostics`]; `DesignContext` keeps a clean
    /// report's tape as the design's tape.
    pub tape: Option<InstructionTape>,
    /// Wall-clock time the lint run took (for the synthesis-overhead
    /// budget in BENCHMARKS.md).
    pub elapsed: Duration,
}

impl LintReport {
    /// Number of Error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of Warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any finding is an error (the design must be rejected).
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True if some finding fired under the rule.
    #[must_use]
    pub fn has_rule(&self, rule: Rule) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// The first Error-severity finding, if any.
    #[must_use]
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Human-readable multi-line rendering (one line per finding plus a
    /// summary line).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}: {d}\n", self.design));
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.design,
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled — the workspace has no
    /// serde): one object with the design name, counts and a findings
    /// array.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"design\":");
        escape_into(&self.design, &mut out);
        out.push(',');
        out.push_str(&format!("\"errors\":{},", self.error_count()));
        out.push_str(&format!("\"warnings\":{},", self.warning_count()));
        out.push_str(&format!(
            "\"lint_micros\":{},",
            self.elapsed.as_micros().min(u128::from(u64::MAX))
        ));
        out.push_str("\"findings\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"rule\":\"{}\",\"locus\":\"{}\",\"message\":",
                d.severity, d.rule, d.locus,
            ));
            escape_into(&d.message, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn rule_ids_are_unique() {
        let rules = [
            Rule::CombLoop,
            Rule::TopoOrder,
            Rule::MultiDriven,
            Rule::DriverBookkeeping,
            Rule::FloatingNet,
            Rule::BadArity,
            Rule::NoOutputs,
            Rule::DeadCell,
            Rule::UnusedInput,
            Rule::DuplicateOutputName,
            Rule::AdderIo,
            Rule::TapeShape,
            Rule::TapeReplay,
            Rule::AnnotationCoverage,
            Rule::BadDelay,
            Rule::ArrivalMonotone,
            Rule::DownstreamConsistency,
            Rule::CriticalIdentity,
            Rule::ClassifierShape,
            Rule::BoundMonotone,
            Rule::BoundCritical,
            Rule::BoundUnderChain,
            Rule::PgTyping,
            Rule::FunctionalMismatch,
        ];
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rules.len(), "duplicate rule id");
    }

    #[test]
    fn json_escapes_special_characters() {
        let message = "a\"b\\c\nd\0e\u{1b}f";
        let report = LintReport {
            design: "q\"uote".into(),
            diagnostics: vec![Diagnostic::new(Rule::DeadCell, Locus::Design, message)],
            levelization: None,
            tape: None,
            elapsed: Duration::from_micros(1),
        };
        let json = report.to_json();
        assert!(
            json.contains(r#""message":"a\"b\\c\nd\u0000e\u001bf""#),
            "{json}"
        );
        let parsed = isa_obs::Json::parse(&json).expect("the report is valid JSON");
        assert_eq!(
            parsed.get("design").and_then(|d| d.as_str()),
            Some("q\"uote")
        );
        let Some(isa_obs::Json::Arr(findings)) = parsed.get("findings") else {
            panic!("no findings array in {json}");
        };
        assert_eq!(
            findings[0].get("message").and_then(|m| m.as_str()),
            Some(message)
        );
    }

    #[test]
    fn report_counts_and_json_shape() {
        let report = LintReport {
            design: "t".into(),
            diagnostics: vec![
                Diagnostic::new(Rule::DeadCell, Locus::Cell(CellId::from_index(3)), "dead"),
                Diagnostic::new(Rule::CombLoop, Locus::Design, "loop"),
            ],
            levelization: None,
            tape: None,
            elapsed: Duration::from_micros(5),
        };
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_errors());
        assert!(report.has_rule(Rule::CombLoop));
        assert!(!report.has_rule(Rule::BadDelay));
        assert_eq!(report.first_error().unwrap().rule, Rule::CombLoop);
        let json = report.to_json();
        assert!(json.contains("\"design\":\"t\""));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("structural.comb-loop"));
        let rendered = report.render();
        assert!(rendered.contains("1 error(s), 1 warning(s)"));
    }
}
