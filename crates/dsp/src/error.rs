use std::error::Error;
use std::fmt;

/// Error type returned by fallible operations in this crate.
///
/// The `Display` messages are lowercase and concise, per the Rust API
/// guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// The input slice was empty where at least one sample is required.
    EmptyInput,
    /// The input signal is constant, so a scale-dependent operation (such
    /// as min–max normalization) is undefined.
    ConstantSignal,
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// The input contained a NaN or infinite sample.
    NonFiniteInput,
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::EmptyInput => write!(f, "input signal is empty"),
            DspError::ConstantSignal => write!(f, "input signal is constant"),
            DspError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DspError::NonFiniteInput => write!(f, "input contains non-finite samples"),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            DspError::EmptyInput,
            DspError::ConstantSignal,
            DspError::InvalidParameter {
                name: "n",
                reason: "must be positive",
            },
            DspError::NonFiniteInput,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
