//! Apps: decorated functions the lowering turns into tasks.
//!
//! An app pairs an optional mini-Python source (what the static dependency
//! analyzer inspects, §V-B) with a native implementation ([`App::call`]).
//! Parsl's `@python_app` decorator corresponds to constructing an [`App`];
//! [`crate::lowering::WqWorkflowBuilder`] lowers its invocations.

use lfm_pyenv::analyze::{analyze_source, Analysis};
use lfm_pyenv::error::Result as PyResult;
use lfm_pyenv::pickle::PyValue;
use std::fmt;
use std::sync::Arc;

/// The native implementation of an app.
pub type NativeFn = dyn Fn(&[PyValue]) -> Result<PyValue, String> + Send + Sync;

/// A registered app.
#[derive(Clone)]
pub struct App {
    pub name: String,
    /// Mini-Python source for dependency analysis (optional — pure-native
    /// apps have no Python-level dependencies).
    pub source: Option<String>,
    imp: Arc<NativeFn>,
}

impl fmt::Debug for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("App")
            .field("name", &self.name)
            .field("has_source", &self.source.is_some())
            .finish()
    }
}

impl App {
    /// A pure-native app.
    pub fn native(
        name: impl Into<String>,
        imp: impl Fn(&[PyValue]) -> Result<PyValue, String> + Send + Sync + 'static,
    ) -> Self {
        App {
            name: name.into(),
            source: None,
            imp: Arc::new(imp),
        }
    }

    /// An app with mini-Python source attached for dependency analysis.
    pub fn python(
        name: impl Into<String>,
        source: impl Into<String>,
        imp: impl Fn(&[PyValue]) -> Result<PyValue, String> + Send + Sync + 'static,
    ) -> Self {
        App {
            name: name.into(),
            source: Some(source.into()),
            imp: Arc::new(imp),
        }
    }

    /// Invoke the native implementation.
    pub fn call(&self, args: &[PyValue]) -> Result<PyValue, String> {
        (self.imp)(args)
    }

    /// Run static dependency analysis over the app's source. Pure-native
    /// apps analyze as empty.
    pub fn analyze(&self) -> PyResult<Analysis> {
        match &self.source {
            Some(src) => analyze_source(src),
            None => Ok(Analysis::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_app_calls_through() {
        let app = App::native("double", |args| {
            let x = args[0].as_int().ok_or("expected int")?;
            Ok(PyValue::Int(x * 2))
        });
        assert_eq!(app.call(&[PyValue::Int(21)]).unwrap(), PyValue::Int(42));
        assert_eq!(
            app.call(&[PyValue::Str("x".into())]).unwrap_err(),
            "expected int"
        );
        assert!(app.analyze().unwrap().top_level_modules().is_empty());
    }

    #[test]
    fn python_app_analyzes_source() {
        let app = App::python(
            "featurize",
            "@python_app\ndef featurize(s):\n    import numpy\n    from rdkit import Chem\n    return 1\n",
            |_| Ok(PyValue::None),
        );
        let a = app.analyze().unwrap();
        assert!(a.top_level_modules().contains("numpy"));
        assert!(a.top_level_modules().contains("rdkit"));
    }

    #[test]
    fn bad_source_surfaces_error() {
        let app = App::python("broken", "def f(:\n", |_| Ok(PyValue::None));
        assert!(app.analyze().is_err());
    }
}
