//! Diagnostic types shared by every audit pass.
//!
//! Each pass returns a flat `Vec<Diagnostic>`; callers decide how to render
//! them (the `audit` binary prints JSON and exits non-zero on any
//! [`Severity::Error`]).

use mimose_runtime::json;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth surfacing, never actionable on its own.
    Info,
    /// Suspicious but not provably wrong (e.g. a degenerate plan).
    Warning,
    /// A violated invariant: the trace, plan, or profile is broken.
    Error,
}

impl Severity {
    /// Lower-case label used in JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding from an audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Machine-readable check id in kebab-case (e.g. `double-free`).
    pub check: &'static str,
    /// What was audited (a plan name, an event index, a block name …).
    pub subject: String,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
}

impl Diagnostic {
    /// An [`Severity::Error`] finding.
    pub fn error(
        check: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Error,
            check,
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// A [`Severity::Warning`] finding.
    pub fn warning(
        check: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            check,
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// An [`Severity::Info`] finding.
    pub fn info(
        check: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Info,
            check,
            subject: subject.into(),
            message: message.into(),
        }
    }

    /// Render as a single JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(64 + self.subject.len() + self.message.len(), |w| {
            w.field("severity", self.severity.label())
                .field("check", self.check)
                .field("subject", &self.subject)
                .field("message", &self.message);
        })
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.check, self.subject, self.message
        )
    }
}

/// Whether any diagnostic is an [`Severity::Error`].
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The worst severity present, if any.
#[must_use]
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn diagnostic_json_escapes_specials() {
        let d = Diagnostic::error("double-free", "event 3", "id 7 freed \"twice\"");
        let j = d.to_json();
        assert!(j.contains("\\\"twice\\\""), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn error_predicates() {
        let diags = vec![
            Diagnostic::info("leak", "end", "1 live allocation"),
            Diagnostic::error("double-free", "event 3", "boom"),
        ];
        assert!(has_errors(&diags));
        assert_eq!(max_severity(&diags), Some(Severity::Error));
        assert!(!has_errors(&diags[..1]));
    }
}
