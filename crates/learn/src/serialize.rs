//! Plain-text model persistence.
//!
//! A trained [`crate::TimingErrorPredictor`] is a per-(design, clock)
//! artifact the paper's flow would train offline and deploy online; this
//! module defines the error type of the line-oriented text format that
//! [`crate::TimingErrorPredictor::to_text`] writes and
//! [`crate::TimingErrorPredictor::from_text`] and
//! [`crate::RandomForest::from_lines`] read. The format is
//! human-inspectable and dependency-free (a deliberate choice to avoid a
//! serde dependency).

use std::error::Error;
use std::fmt;

/// Error parsing a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    line: usize,
    message: String,
}

impl ParseModelError {
    /// Creates an error at a 1-based line number.
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseModelError {}
