//! Crate-level property tests: robustness and round-trip invariants.

#![cfg(test)]

use crate::analyze::analyze_source;
use crate::lexer::Lexer;
use crate::parser::parse_module;
use crate::source::SourceBuilder;
use crate::unparse::unparse_module;
use crate::version::{Version, VersionReq};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer must never panic, whatever bytes arrive — it returns
    /// structured errors for garbage.
    #[test]
    fn lexer_never_panics(src in "\\PC*") {
        let _ = Lexer::tokenize(&src);
    }

    /// Same for ASCII soups heavy in Python punctuation.
    #[test]
    fn lexer_never_panics_on_punctuation(src in "[ \\t\\n(){}\\[\\]:;,.+*/<>=!#'\"a-z0-9_@-]{0,200}") {
        let _ = Lexer::tokenize(&src);
    }

    /// The parser must never panic either.
    #[test]
    fn parser_never_panics(src in "[ \\t\\n(){}\\[\\]:;,.+*/<>=a-z0-9_@]{0,200}") {
        let _ = parse_module(&src);
    }

    /// Version display/parse is an exact round trip.
    #[test]
    fn version_roundtrip(major in 0u32..1000, minor in 0u32..1000, patch in 0u32..1000) {
        let v = Version::new(major, minor, patch);
        let back: Version = v.to_string().parse().unwrap();
        prop_assert_eq!(back, v);
    }

    /// Requirement display/parse preserves matching behaviour.
    #[test]
    fn versionreq_display_preserves_matching(
        op in prop::sample::select(vec!["==", "!=", ">=", "<=", ">", "<", "~="]),
        major in 0u32..20,
        minor in 0u32..20,
        probe_major in 0u32..20,
        probe_minor in 0u32..20,
        probe_patch in 0u32..20,
    ) {
        let req: VersionReq = format!("{op}{major}.{minor}").parse().unwrap();
        let back: VersionReq = req.to_string().parse().unwrap();
        let probe = Version::new(probe_major, probe_minor, probe_patch);
        prop_assert_eq!(req.matches(probe), back.matches(probe));
    }

    /// Generated sources of any shape parse, unparse to a fix-point, and
    /// analyze to the same import set after unparsing.
    #[test]
    fn generated_sources_roundtrip(
        n_imports in 0usize..20,
        n_functions in 0usize..8,
        stmts in 0usize..8,
    ) {
        let src = crate::source::synthetic_module(n_imports, n_functions, stmts);
        let ast = parse_module(&src).unwrap();
        let printed = unparse_module(&ast);
        let ast2 = parse_module(&printed).unwrap();
        prop_assert_eq!(unparse_module(&ast2), printed.clone());
        let a1 = analyze_source(&src).unwrap();
        let a2 = analyze_source(&printed).unwrap();
        prop_assert_eq!(a1.top_level_modules(), a2.top_level_modules());
    }

    /// Builder-produced apps always parse and expose their body imports.
    #[test]
    fn builder_app_imports_discovered(
        imports in prop::collection::vec(
            prop::sample::select(vec!["numpy", "scipy", "pandas", "os", "json"]),
            1..4
        ),
        extra in 0usize..10,
    ) {
        let body: Vec<&str> = imports.clone();
        let src = SourceBuilder::new()
            .parsl_app("task", &["x"], &body, extra, "x")
            .build();
        let analysis = analyze_source(&src).unwrap();
        for m in imports {
            prop_assert!(analysis.top_level_modules().contains(m));
        }
    }
}
