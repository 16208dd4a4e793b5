//! Type errors.

use std::fmt;

use bsml_ast::{Ident, Span};
use bsml_types::{Constraint, UnifyError};

/// A static typing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeError {
    /// A variable is not in scope.
    Unbound {
        /// The variable.
        name: Ident,
        /// Its occurrence.
        span: Span,
    },
    /// Two types failed to unify.
    Mismatch {
        /// The underlying unification failure.
        cause: UnifyError,
        /// Which syntactic construct demanded the unification.
        context: &'static str,
        /// The offending expression.
        span: Span,
    },
    /// The locality constraints solved to `False` — the expression
    /// would create or hide a nested parallel vector (paper §2.1).
    LocalityViolation {
        /// The typing rule whose side condition failed.
        rule: &'static str,
        /// The constraint that solved to `False`, before boolean
        /// reduction: the rule's own conditions over its premises'
        /// solved constraints, e.g. `L(int) ⇒ L(int par)`. With
        /// derivation recording on, the premises' raw formulas.
        constraint: Constraint,
        /// The offending expression.
        span: Span,
    },
}

impl TypeError {
    /// The source location of the error.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            TypeError::Unbound { span, .. }
            | TypeError::Mismatch { span, .. }
            | TypeError::LocalityViolation { span, .. } => *span,
        }
    }

    /// Renders the error with the offending source line, e.g.
    ///
    /// ```text
    /// type error at 1:1: parallel nesting rejected by rule (Let):
    /// constraint L(int) ⇒ L(int par) is absurd
    ///   mkpar (fun pid -> let this = … in pid)
    ///   ^^^^^
    /// ```
    #[must_use]
    pub fn render(&self, source: &str) -> String {
        let span = self.span();
        let (line, col) = span.line_col(source);
        let mut out = format!("type error at {line}:{col}: {self}");
        if let Some(text) = source.lines().nth(line - 1) {
            out.push_str(&format!("\n  {text}\n  "));
            out.push_str(&" ".repeat(col.saturating_sub(1)));
            let width = (span.len() as usize).clamp(1, text.len() + 1 - col.min(text.len()));
            out.push_str(&"^".repeat(width));
        }
        out
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Unbound { name, .. } => write!(f, "unbound variable `{name}`"),
            TypeError::Mismatch { cause, context, .. } => {
                write!(f, "in {context}: {cause}")
            }
            TypeError::LocalityViolation {
                rule, constraint, ..
            } => write!(
                f,
                "parallel nesting rejected by rule {rule}: \
                 constraint {constraint} is absurd"
            ),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_types::Type;

    #[test]
    fn displays() {
        let e = TypeError::Unbound {
            name: Ident::new("x"),
            span: Span::new(0, 1),
        };
        assert_eq!(e.to_string(), "unbound variable `x`");

        let e = TypeError::LocalityViolation {
            rule: "(Let)",
            constraint: Constraint::implies(
                Constraint::loc(Type::Int),
                Constraint::loc(Type::par(Type::Int)),
            ),
            span: Span::new(0, 5),
        };
        assert!(e.to_string().contains("L(int) ⇒ L(int par)"));
        assert!(e.to_string().contains("(Let)"));
    }

    #[test]
    fn render_includes_source_line() {
        let src = "let x = 1 in y";
        let e = TypeError::Unbound {
            name: Ident::new("y"),
            span: Span::new(13, 14),
        };
        let r = e.render(src);
        assert!(r.contains("1:14"));
        assert!(r.contains(src));
        assert!(r.trim_end().ends_with('^'));
    }

    #[test]
    fn span_accessor() {
        let e = TypeError::Mismatch {
            cause: UnifyError::Mismatch(Type::Int, Type::Bool),
            context: "application",
            span: Span::new(2, 4),
        };
        assert_eq!(e.span(), Span::new(2, 4));
    }
}
