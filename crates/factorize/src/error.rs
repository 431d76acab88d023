//! Error type for factorized computation.

use std::fmt;

/// Convenience alias for factorize results.
pub type Result<T> = std::result::Result<T, FactorizeError>;

/// Errors produced by factorized linear algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorizeError {
    /// Source data matrices do not agree with the metadata shapes.
    ShapeMismatch(String),
    /// The requested operand has an incompatible shape.
    OperandMismatch {
        /// Operation name.
        op: &'static str,
        /// Expected operand shape.
        expected: (usize, usize),
        /// Actual operand shape.
        found: (usize, usize),
    },
    /// A reference rule was asked for a table it cannot multiply
    /// correctly (Morpheus' rule on overlapping sources).
    UnsupportedByStrategy(String),
    /// Error bubbled up from the metadata layer.
    Metadata(String),
    /// Error bubbled up from the matrix layer.
    Matrix(String),
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorizeError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            FactorizeError::OperandMismatch {
                op,
                expected,
                found,
            } => write!(
                f,
                "operand mismatch in {op}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            FactorizeError::UnsupportedByStrategy(m) => {
                write!(f, "unsupported by strategy: {m}")
            }
            FactorizeError::Metadata(m) => write!(f, "metadata error: {m}"),
            FactorizeError::Matrix(m) => write!(f, "matrix error: {m}"),
        }
    }
}

impl std::error::Error for FactorizeError {}

impl From<amalur_integration::IntegrationError> for FactorizeError {
    fn from(e: amalur_integration::IntegrationError) -> Self {
        FactorizeError::Metadata(e.to_string())
    }
}

impl From<amalur_matrix::MatrixError> for FactorizeError {
    fn from(e: amalur_matrix::MatrixError) -> Self {
        FactorizeError::Matrix(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = FactorizeError::OperandMismatch {
            op: "lmm",
            expected: (4, 1),
            found: (3, 1),
        };
        assert!(e.to_string().contains("lmm"));
        let m: FactorizeError = amalur_matrix::MatrixError::Singular.into();
        assert!(matches!(m, FactorizeError::Matrix(_)));
    }
}
