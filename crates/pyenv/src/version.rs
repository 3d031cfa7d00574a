//! PEP 440-inspired versions and version requirements.
//!
//! Versions are `major.minor.patch` triples (missing components default to
//! zero). Requirements support the comparison operators used by pip/Conda
//! requirement files: `==`, `!=`, `>=`, `<=`, `>`, `<`, and the
//! compatible-release operator `~=`.

use crate::error::{PyEnvError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A release version, ordered lexicographically by component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version {
    pub major: u32,
    pub minor: u32,
    pub patch: u32,
}

impl Version {
    /// Construct a version from its components.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        Version {
            major,
            minor,
            patch,
        }
    }

    /// The smallest version that is strictly larger at the same `~=` level.
    ///
    /// For `~=X.Y.Z` the upper bound is `X.(Y+1).0`; for `~=X.Y` it is
    /// `(X+1).0.0`. `had_patch` records whether the written form carried a
    /// patch component.
    fn compatible_upper(&self, had_patch: bool) -> Version {
        if had_patch {
            Version::new(self.major, self.minor + 1, 0)
        } else {
            Version::new(self.major + 1, 0, 0)
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

impl FromStr for Version {
    type Err = PyEnvError;

    fn from_str(s: &str) -> Result<Self> {
        let (v, _had_patch) = parse_version_parts(s)?;
        Ok(v)
    }
}

fn parse_version_parts(s: &str) -> Result<(Version, bool)> {
    let s = s.trim();
    if s.is_empty() {
        return Err(PyEnvError::BadVersion(s.to_string()));
    }
    let mut parts = [0u32; 3];
    let mut count = 0usize;
    for piece in s.split('.') {
        if count >= 3 {
            return Err(PyEnvError::BadVersion(s.to_string()));
        }
        parts[count] = piece
            .parse::<u32>()
            .map_err(|_| PyEnvError::BadVersion(s.to_string()))?;
        count += 1;
    }
    Ok((Version::new(parts[0], parts[1], parts[2]), count >= 3))
}

/// A single comparison against a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Comparator {
    /// `== v`
    Eq(Version),
    /// `!= v`
    Ne(Version),
    /// `>= v`
    Ge(Version),
    /// `<= v`
    Le(Version),
    /// `> v`
    Gt(Version),
    /// `< v`
    Lt(Version),
    /// `~= v` — compatible release: `>= v` and `< upper(v)`.
    Compatible { lower: Version, upper: Version },
}

impl Comparator {
    /// Does `v` satisfy this comparator?
    pub fn matches(&self, v: Version) -> bool {
        match *self {
            Comparator::Eq(x) => v == x,
            Comparator::Ne(x) => v != x,
            Comparator::Ge(x) => v >= x,
            Comparator::Le(x) => v <= x,
            Comparator::Gt(x) => v > x,
            Comparator::Lt(x) => v < x,
            Comparator::Compatible { lower, upper } => v >= lower && v < upper,
        }
    }
}

impl fmt::Display for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Comparator::Eq(v) => write!(f, "=={v}"),
            Comparator::Ne(v) => write!(f, "!={v}"),
            Comparator::Ge(v) => write!(f, ">={v}"),
            Comparator::Le(v) => write!(f, "<={v}"),
            Comparator::Gt(v) => write!(f, ">{v}"),
            Comparator::Lt(v) => write!(f, "<{v}"),
            // Render as the equivalent range so Display → FromStr preserves
            // the upper bound exactly (the written precision of `~=X.Y[.Z]`
            // is lost once parsed).
            Comparator::Compatible { lower, upper } => write!(f, ">={lower},<{upper}"),
        }
    }
}

/// A conjunction of comparators, e.g. `>=1.18,<2.0`.
///
/// An empty requirement (`*`) matches every version.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash, Serialize, Deserialize)]
pub struct VersionReq {
    comparators: Vec<Comparator>,
}

impl VersionReq {
    /// A requirement that matches any version.
    pub fn any() -> Self {
        VersionReq::default()
    }

    /// A requirement matching exactly `v`.
    pub fn exact(v: Version) -> Self {
        VersionReq {
            comparators: vec![Comparator::Eq(v)],
        }
    }

    /// Does `v` satisfy every comparator?
    pub fn matches(&self, v: Version) -> bool {
        self.comparators.iter().all(|c| c.matches(v))
    }

    /// True if this requirement matches every version.
    pub fn is_any(&self) -> bool {
        self.comparators.is_empty()
    }

    /// The individual comparators.
    pub fn comparators(&self) -> &[Comparator] {
        &self.comparators
    }

    /// Merge another requirement into this one (conjunction).
    pub fn intersect(&mut self, other: &VersionReq) {
        for c in &other.comparators {
            if !self.comparators.contains(c) {
                self.comparators.push(*c);
            }
        }
    }
}

impl fmt::Display for VersionReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.comparators.is_empty() {
            return write!(f, "*");
        }
        for (i, c) in self.comparators.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl FromStr for VersionReq {
    type Err = PyEnvError;

    /// Parse a comma-separated list of comparators, e.g. `>=1.18,<2.0`,
    /// `==1.4.1`, `~=2.1`, or `*`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        if s.is_empty() || s == "*" {
            return Ok(VersionReq::any());
        }
        let mut comparators = Vec::new();
        for piece in s.split(',') {
            let piece = piece.trim();
            let (op, rest) = if let Some(r) = piece.strip_prefix("==") {
                ("==", r)
            } else if let Some(r) = piece.strip_prefix("!=") {
                ("!=", r)
            } else if let Some(r) = piece.strip_prefix(">=") {
                (">=", r)
            } else if let Some(r) = piece.strip_prefix("<=") {
                ("<=", r)
            } else if let Some(r) = piece.strip_prefix("~=") {
                ("~=", r)
            } else if let Some(r) = piece.strip_prefix('>') {
                (">", r)
            } else if let Some(r) = piece.strip_prefix('<') {
                ("<", r)
            } else {
                // Bare version means exact pin, matching Conda's `pkg=1.2` habit.
                ("==", piece)
            };
            let (v, had_patch) = parse_version_parts(rest)?;
            let c = match op {
                "==" => Comparator::Eq(v),
                "!=" => Comparator::Ne(v),
                ">=" => Comparator::Ge(v),
                "<=" => Comparator::Le(v),
                ">" => Comparator::Gt(v),
                "<" => Comparator::Lt(v),
                "~=" => Comparator::Compatible {
                    lower: v,
                    upper: v.compatible_upper(had_patch),
                },
                _ => unreachable!(),
            };
            comparators.push(c);
        }
        Ok(VersionReq { comparators })
    }
}

/// Shorthand for building a version in tests and seed data.
#[macro_export]
macro_rules! ver {
    ($a:expr, $b:expr, $c:expr) => {
        $crate::version::Version::new($a, $b, $c)
    };
    ($a:expr, $b:expr) => {
        $crate::version::Version::new($a, $b, 0)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_version() {
        let v: Version = "1.18.5".parse().unwrap();
        assert_eq!(v, Version::new(1, 18, 5));
    }

    #[test]
    fn parse_short_version_defaults_zero() {
        let v: Version = "2.1".parse().unwrap();
        assert_eq!(v, Version::new(2, 1, 0));
        let v: Version = "3".parse().unwrap();
        assert_eq!(v, Version::new(3, 0, 0));
    }

    #[test]
    fn reject_garbage_versions() {
        assert!("".parse::<Version>().is_err());
        assert!("a.b".parse::<Version>().is_err());
        assert!("1.2.3.4".parse::<Version>().is_err());
        assert!("1..2".parse::<Version>().is_err());
    }

    #[test]
    fn version_ordering() {
        assert!(Version::new(1, 18, 5) > Version::new(1, 18, 4));
        assert!(Version::new(2, 0, 0) > Version::new(1, 99, 99));
        assert!(Version::new(1, 2, 0) < Version::new(1, 10, 0));
    }

    #[test]
    fn display_roundtrip() {
        let v = Version::new(3, 7, 4);
        assert_eq!(v.to_string().parse::<Version>().unwrap(), v);
    }

    #[test]
    fn req_any_matches_everything() {
        let r = VersionReq::any();
        assert!(r.matches(Version::new(0, 0, 0)));
        assert!(r.matches(Version::new(99, 99, 99)));
        assert!(r.is_any());
    }

    #[test]
    fn req_range() {
        let r: VersionReq = ">=1.18,<2.0".parse().unwrap();
        assert!(r.matches(Version::new(1, 18, 0)));
        assert!(r.matches(Version::new(1, 19, 5)));
        assert!(!r.matches(Version::new(2, 0, 0)));
        assert!(!r.matches(Version::new(1, 17, 9)));
    }

    #[test]
    fn req_exact_and_ne() {
        let r: VersionReq = "==1.4.1".parse().unwrap();
        assert!(r.matches(Version::new(1, 4, 1)));
        assert!(!r.matches(Version::new(1, 4, 2)));
        let r: VersionReq = "!=1.4.1,>=1.4".parse().unwrap();
        assert!(!r.matches(Version::new(1, 4, 1)));
        assert!(r.matches(Version::new(1, 4, 2)));
    }

    #[test]
    fn req_compatible_release_with_patch() {
        // ~=1.4.2 means >=1.4.2, <1.5.0
        let r: VersionReq = "~=1.4.2".parse().unwrap();
        assert!(r.matches(Version::new(1, 4, 2)));
        assert!(r.matches(Version::new(1, 4, 9)));
        assert!(!r.matches(Version::new(1, 5, 0)));
    }

    #[test]
    fn req_compatible_release_without_patch() {
        // ~=1.4 means >=1.4, <2.0
        let r: VersionReq = "~=1.4".parse().unwrap();
        assert!(r.matches(Version::new(1, 9, 0)));
        assert!(!r.matches(Version::new(2, 0, 0)));
    }

    #[test]
    fn req_bare_version_is_exact() {
        let r: VersionReq = "1.2.3".parse().unwrap();
        assert!(r.matches(Version::new(1, 2, 3)));
        assert!(!r.matches(Version::new(1, 2, 4)));
    }

    #[test]
    fn req_star() {
        let r: VersionReq = "*".parse().unwrap();
        assert!(r.is_any());
    }

    #[test]
    fn req_display_roundtrip() {
        for s in [">=1.18,<2.0", "==1.4.1", "~=2.1", "*", "!=3.0.0"] {
            let r: VersionReq = s.parse().unwrap();
            let r2: VersionReq = r.to_string().parse().unwrap();
            // Compare by behaviour on a probe set rather than representation.
            for probe in [
                Version::new(1, 4, 1),
                Version::new(1, 18, 0),
                Version::new(2, 0, 0),
                Version::new(2, 5, 3),
                Version::new(3, 0, 0),
            ] {
                assert_eq!(r.matches(probe), r2.matches(probe), "req {s} probe {probe}");
            }
        }
    }

    #[test]
    fn intersect_narrows() {
        let mut r: VersionReq = ">=1.0".parse().unwrap();
        r.intersect(&"<2.0".parse().unwrap());
        assert!(r.matches(Version::new(1, 5, 0)));
        assert!(!r.matches(Version::new(2, 1, 0)));
    }
}
