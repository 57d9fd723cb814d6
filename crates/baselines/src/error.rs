//! Error type shared by the out-of-core schedules.

use std::error::Error;
use std::fmt;

/// Errors raised by out-of-core algorithm executors and planners.
#[derive(Debug, Clone, PartialEq)]
pub enum OocError {
    /// An error from the memory machine (capacity exceeded, bad region, ...).
    Memory(symla_memory::MemoryError),
    /// A numerical error from an in-core kernel (non-SPD pivot, ...).
    Matrix(symla_matrix::MatrixError),
    /// Operand shapes or planner parameters are inconsistent.
    Invalid(String),
}

impl fmt::Display for OocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OocError::Memory(e) => write!(f, "memory model error: {e}"),
            OocError::Matrix(e) => write!(f, "kernel error: {e}"),
            OocError::Invalid(msg) => write!(f, "invalid out-of-core invocation: {msg}"),
        }
    }
}

impl Error for OocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OocError::Memory(e) => Some(e),
            OocError::Matrix(e) => Some(e),
            OocError::Invalid(_) => None,
        }
    }
}

impl From<symla_memory::MemoryError> for OocError {
    fn from(e: symla_memory::MemoryError) -> Self {
        OocError::Memory(e)
    }
}

impl From<symla_matrix::MatrixError> for OocError {
    fn from(e: symla_matrix::MatrixError) -> Self {
        OocError::Matrix(e)
    }
}

impl From<symla_sched::EngineError> for OocError {
    fn from(e: symla_sched::EngineError) -> Self {
        match e {
            symla_sched::EngineError::Memory(m) => OocError::Memory(m),
            symla_sched::EngineError::Matrix(m) => OocError::Matrix(m),
            symla_sched::EngineError::InvalidSchedule(msg)
            | symla_sched::EngineError::InvalidArgument(msg)
            | symla_sched::EngineError::WorkerPanicked(msg) => OocError::Invalid(msg),
        }
    }
}

/// Result alias for out-of-core operations.
pub type Result<T> = std::result::Result<T, OocError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let mem: OocError = symla_memory::MemoryError::UnknownMatrix { id: 3 }.into();
        assert!(mem.to_string().contains("memory model"));
        assert!(Error::source(&mem).is_some());

        let mat: OocError = symla_matrix::MatrixError::SingularPivot { pivot: 1 }.into();
        assert!(mat.to_string().contains("kernel error"));

        let inv = OocError::Invalid("bad tile".into());
        assert!(inv.to_string().contains("bad tile"));
        assert!(Error::source(&inv).is_none());
    }
}
