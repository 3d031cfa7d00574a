//! Error types for the pyenv crate.

use std::fmt;

/// Errors produced while lexing, parsing, analyzing, resolving, or packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PyEnvError {
    /// Lexical error at a source position.
    Lex {
        line: usize,
        col: usize,
        message: String,
    },
    /// Syntax error at a source position.
    Parse {
        line: usize,
        col: usize,
        message: String,
    },
    /// A version string could not be parsed.
    BadVersion(String),
    /// A requirement string could not be parsed.
    BadRequirement(String),
    /// No distribution in the index provides the named module.
    UnknownModule(String),
    /// The named distribution does not exist in the index.
    UnknownDistribution(String),
    /// No version of a distribution satisfies the collected constraints.
    Unsatisfiable { dist: String, detail: String },
    /// Archive data is malformed or fails its checksum.
    CorruptArchive(String),
    /// Pickle data is malformed.
    CorruptPickle(String),
    /// The environment does not contain a needed distribution.
    MissingFromEnvironment(String),
}

impl fmt::Display for PyEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyEnvError::Lex { line, col, message } => {
                write!(f, "lex error at {line}:{col}: {message}")
            }
            PyEnvError::Parse { line, col, message } => {
                write!(f, "syntax error at {line}:{col}: {message}")
            }
            PyEnvError::BadVersion(s) => write!(f, "invalid version: {s:?}"),
            PyEnvError::BadRequirement(s) => write!(f, "invalid requirement: {s:?}"),
            PyEnvError::UnknownModule(m) => write!(f, "no distribution provides module {m:?}"),
            PyEnvError::UnknownDistribution(d) => write!(f, "unknown distribution {d:?}"),
            PyEnvError::Unsatisfiable { dist, detail } => {
                write!(f, "cannot satisfy constraints on {dist:?}: {detail}")
            }
            PyEnvError::CorruptArchive(s) => write!(f, "corrupt archive: {s}"),
            PyEnvError::CorruptPickle(s) => write!(f, "corrupt pickle: {s}"),
            PyEnvError::MissingFromEnvironment(d) => {
                write!(f, "distribution {d:?} is not installed in the environment")
            }
        }
    }
}

impl std::error::Error for PyEnvError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PyEnvError>;
