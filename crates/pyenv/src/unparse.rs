//! AST → source pretty-printer, for testing the parser.
//!
//! Produces canonical mini-Python source from an AST. Paired with the
//! parser it gives the front end's round-trip property:
//! `parse(unparse(ast))` must reproduce the AST.

use crate::ast::*;
use std::fmt::Write as _;

/// Render a whole module.
pub(crate) fn unparse_module(module: &Module) -> String {
    let mut out = String::new();
    for stmt in &module.body {
        unparse_stmt(stmt, 0, &mut out);
    }
    out
}

/// Render a single statement at the given indent level.
fn unparse_stmt(stmt: &Stmt, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Import { names, .. } => {
            let rendered: Vec<String> = names
                .iter()
                .map(|a| match &a.alias {
                    Some(alias) => format!("{} as {alias}", a.name.dotted()),
                    None => a.name.dotted(),
                })
                .collect();
            writeln!(out, "{pad}import {}", rendered.join(", ")).unwrap();
        }
        Stmt::ImportFrom {
            module,
            names,
            level,
            star,
            ..
        } => {
            let dots = ".".repeat(*level);
            let m = module.as_ref().map(DottedName::dotted).unwrap_or_default();
            if *star {
                writeln!(out, "{pad}from {dots}{m} import *").unwrap();
            } else {
                let rendered: Vec<String> = names
                    .iter()
                    .map(|a| match &a.alias {
                        Some(alias) => format!("{} as {alias}", a.name.dotted()),
                        None => a.name.dotted(),
                    })
                    .collect();
                writeln!(out, "{pad}from {dots}{m} import {}", rendered.join(", ")).unwrap();
            }
        }
        Stmt::FunctionDef {
            name,
            params,
            body,
            decorators,
            ..
        } => {
            for d in decorators {
                writeln!(out, "{pad}@{}", unparse_expr(d)).unwrap();
            }
            writeln!(out, "{pad}def {name}({}):", unparse_params(params)).unwrap();
            unparse_body(body, indent + 1, out);
        }
        Stmt::ClassDef {
            name, bases, body, ..
        } => {
            if bases.is_empty() {
                writeln!(out, "{pad}class {name}:").unwrap();
            } else {
                let b: Vec<String> = bases.iter().map(unparse_expr).collect();
                writeln!(out, "{pad}class {name}({}):", b.join(", ")).unwrap();
            }
            unparse_body(body, indent + 1, out);
        }
        Stmt::Assign { targets, value } => {
            let t: Vec<String> = targets.iter().map(unparse_expr).collect();
            writeln!(out, "{pad}{} = {}", t.join(" = "), unparse_expr(value)).unwrap();
        }
        Stmt::AugAssign { target, op, value } => {
            writeln!(
                out,
                "{pad}{} {op} {}",
                unparse_expr(target),
                unparse_expr(value)
            )
            .unwrap();
        }
        Stmt::ExprStmt(e) => writeln!(out, "{pad}{}", unparse_expr(e)).unwrap(),
        Stmt::Return(v) => match v {
            Some(e) => writeln!(out, "{pad}return {}", unparse_expr(e)).unwrap(),
            None => writeln!(out, "{pad}return").unwrap(),
        },
        Stmt::If { test, body, orelse } => {
            writeln!(out, "{pad}if {}:", unparse_expr(test)).unwrap();
            unparse_body(body, indent + 1, out);
            if !orelse.is_empty() {
                writeln!(out, "{pad}else:").unwrap();
                unparse_body(orelse, indent + 1, out);
            }
        }
        Stmt::While { test, body } => {
            writeln!(out, "{pad}while {}:", unparse_expr(test)).unwrap();
            unparse_body(body, indent + 1, out);
        }
        Stmt::For { target, iter, body } => {
            writeln!(
                out,
                "{pad}for {} in {}:",
                unparse_target(target),
                unparse_expr(iter)
            )
            .unwrap();
            unparse_body(body, indent + 1, out);
        }
        Stmt::With { items, body } => {
            let rendered: Vec<String> = items
                .iter()
                .map(|(ctx, alias)| match alias {
                    Some(a) => format!("{} as {}", unparse_expr(ctx), unparse_expr(a)),
                    None => unparse_expr(ctx),
                })
                .collect();
            writeln!(out, "{pad}with {}:", rendered.join(", ")).unwrap();
            unparse_body(body, indent + 1, out);
        }
        Stmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            writeln!(out, "{pad}try:").unwrap();
            unparse_body(body, indent + 1, out);
            for h in handlers {
                match (&h.typ, &h.name) {
                    (Some(t), Some(n)) => {
                        writeln!(out, "{pad}except {} as {n}:", unparse_expr(t)).unwrap()
                    }
                    (Some(t), None) => writeln!(out, "{pad}except {}:", unparse_expr(t)).unwrap(),
                    (None, _) => writeln!(out, "{pad}except:").unwrap(),
                }
                unparse_body(&h.body, indent + 1, out);
            }
            if !orelse.is_empty() {
                writeln!(out, "{pad}else:").unwrap();
                unparse_body(orelse, indent + 1, out);
            }
            if !finalbody.is_empty() {
                writeln!(out, "{pad}finally:").unwrap();
                unparse_body(finalbody, indent + 1, out);
            }
        }
        Stmt::Raise(v) => match v {
            Some(e) => writeln!(out, "{pad}raise {}", unparse_expr(e)).unwrap(),
            None => writeln!(out, "{pad}raise").unwrap(),
        },
        Stmt::Assert { test, msg } => match msg {
            Some(m) => writeln!(
                out,
                "{pad}assert {}, {}",
                unparse_expr(test),
                unparse_expr(m)
            )
            .unwrap(),
            None => writeln!(out, "{pad}assert {}", unparse_expr(test)).unwrap(),
        },
        Stmt::Global(names) => writeln!(out, "{pad}global {}", names.join(", ")).unwrap(),
        Stmt::Pass => writeln!(out, "{pad}pass").unwrap(),
        Stmt::Break => writeln!(out, "{pad}break").unwrap(),
        Stmt::Continue => writeln!(out, "{pad}continue").unwrap(),
        Stmt::Delete(targets) => {
            let t: Vec<String> = targets.iter().map(unparse_expr).collect();
            writeln!(out, "{pad}del {}", t.join(", ")).unwrap();
        }
    }
}

fn unparse_body(body: &[Stmt], indent: usize, out: &mut String) {
    if body.is_empty() {
        writeln!(out, "{}pass", "    ".repeat(indent)).unwrap();
    } else {
        for s in body {
            unparse_stmt(s, indent, out);
        }
    }
}

fn unparse_params(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| {
            let prefix = if p.double_star {
                "**"
            } else if p.star {
                "*"
            } else {
                ""
            };
            match &p.default {
                Some(d) => format!("{prefix}{}={}", p.name, unparse_expr(d)),
                None => format!("{prefix}{}", p.name),
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A `for`-target: bare tuples print without parens.
fn unparse_target(e: &Expr) -> String {
    match e {
        Expr::Tuple(items) if !items.is_empty() => items
            .iter()
            .map(unparse_expr)
            .collect::<Vec<_>>()
            .join(", "),
        other => unparse_expr(other),
    }
}

/// Render an expression (fully parenthesized where precedence matters —
/// canonical, not minimal).
fn unparse_expr(e: &Expr) -> String {
    match e {
        Expr::Name(n) => n.clone(),
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::Str(s) => format!("{s:?}").replace("\\n", "\\n"),
        Expr::FString(parts) => {
            let mut body = String::new();
            for p in parts {
                match p {
                    FStringPart::Literal(l) => {
                        body.push_str(&l.replace('{', "{{").replace('}', "}}"))
                    }
                    FStringPart::Expr(e) => {
                        body.push('{');
                        body.push_str(&unparse_expr(e));
                        body.push('}');
                    }
                }
            }
            format!("f\"{}\"", body.replace('"', "\\\""))
        }
        Expr::NoneLit => "None".into(),
        Expr::Bool(true) => "True".into(),
        Expr::Bool(false) => "False".into(),
        Expr::Attribute { value, attr } => format!("{}.{attr}", unparse_expr(value)),
        Expr::Call { func, args, kwargs } => {
            let mut parts: Vec<String> = args.iter().map(unparse_expr).collect();
            for (k, v) in kwargs {
                if k == "**" {
                    parts.push(format!("**{}", unparse_expr(v)));
                } else {
                    parts.push(format!("{k}={}", unparse_expr(v)));
                }
            }
            format!("{}({})", unparse_expr(func), parts.join(", "))
        }
        Expr::Subscript { value, index } => {
            format!("{}[{}]", unparse_expr(value), unparse_expr(index))
        }
        Expr::BinOp { left, op, right } => {
            format!("({} {op} {})", unparse_expr(left), unparse_expr(right))
        }
        Expr::UnaryOp { op, operand } => {
            if op == "not" {
                format!("(not {})", unparse_expr(operand))
            } else {
                format!("({op}{})", unparse_expr(operand))
            }
        }
        Expr::BoolOp { op, values } => {
            let parts: Vec<String> = values.iter().map(unparse_expr).collect();
            format!("({})", parts.join(&format!(" {op} ")))
        }
        Expr::Compare {
            left,
            ops,
            comparators,
        } => {
            let mut s = format!("({}", unparse_expr(left));
            for (op, c) in ops.iter().zip(comparators) {
                write!(s, " {op} {}", unparse_expr(c)).unwrap();
            }
            s.push(')');
            s
        }
        Expr::List(items) => {
            let parts: Vec<String> = items.iter().map(unparse_expr).collect();
            format!("[{}]", parts.join(", "))
        }
        Expr::Tuple(items) => {
            let parts: Vec<String> = items.iter().map(unparse_expr).collect();
            if items.len() == 1 {
                format!("({},)", parts[0])
            } else {
                format!("({})", parts.join(", "))
            }
        }
        Expr::Dict(pairs) => {
            let parts: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", unparse_expr(k), unparse_expr(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        Expr::Set(items) => {
            let parts: Vec<String> = items.iter().map(unparse_expr).collect();
            format!("{{{}}}", parts.join(", "))
        }
        Expr::Lambda { params, body } => {
            format!("lambda {}: {}", unparse_params(params), unparse_expr(body))
        }
        Expr::IfExp { test, body, orelse } => format!(
            "({} if {} else {})",
            unparse_expr(body),
            unparse_expr(test),
            unparse_expr(orelse)
        ),
        Expr::Yield(v) => match v {
            Some(e) => format!("(yield {})", unparse_expr(e)),
            None => "(yield)".into(),
        },
        Expr::Comprehension {
            kind,
            elt,
            value,
            target,
            iter,
            conditions,
        } => {
            let mut inner = match kind {
                ComprehensionKind::Dict => format!(
                    "{}: {} for {} in {}",
                    unparse_expr(elt),
                    unparse_expr(value.as_ref().expect("dict comp has value")),
                    unparse_target(target),
                    unparse_expr(iter)
                ),
                _ => format!(
                    "{} for {} in {}",
                    unparse_expr(elt),
                    unparse_target(target),
                    unparse_expr(iter)
                ),
            };
            for c in conditions {
                write!(inner, " if {}", unparse_expr(c)).unwrap();
            }
            match kind {
                ComprehensionKind::List => format!("[{inner}]"),
                ComprehensionKind::Set | ComprehensionKind::Dict => format!("{{{inner}}}"),
                ComprehensionKind::Generator => format!("({inner})"),
            }
        }
        Expr::Starred(inner) => format!("*{}", unparse_expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Parse → unparse → parse must fix-point on the AST.
    fn roundtrip(src: &str) {
        let ast1 = parse_module(src).unwrap();
        let printed = unparse_module(&ast1);
        let ast2 = parse_module(&printed)
            .unwrap_or_else(|e| panic!("unparsed source failed to parse: {e}\n{printed}"));
        let printed2 = unparse_module(&ast2);
        assert_eq!(printed, printed2, "unparse not a fix-point for:\n{src}");
    }

    #[test]
    fn roundtrip_imports() {
        roundtrip("import numpy as np\nfrom scipy.stats import norm, uniform\nfrom . import sibling\nfrom os.path import *\n");
    }

    #[test]
    fn roundtrip_function_with_control_flow() {
        roundtrip(
            "@python_app\ndef f(x, y=1, *rest, **kw):\n    if x > 0:\n        return x + y\n    elif x < 0:\n        return -x\n    else:\n        return 0\n",
        );
    }

    #[test]
    fn roundtrip_loops_and_try() {
        roundtrip(
            "def g(xs):\n    total = 0\n    for i, v in enumerate(xs):\n        total += v\n        if v > 10:\n            break\n    while total > 0:\n        total -= 1\n    try:\n        risky()\n    except ValueError as e:\n        handle(e)\n    finally:\n        cleanup()\n    return total\n",
        );
    }

    #[test]
    fn roundtrip_expressions() {
        roundtrip(
            "x = [a * 2 for a in range(10) if a % 2 == 0]\ny = {k: v for k, v in pairs}\nz = lambda q: q ** 2\nw = a if cond else b\nm = d['key'][0].attr.method(1, key=2)\n",
        );
    }

    #[test]
    fn roundtrip_application_sources() {
        for src in [
            crate::source::hep_process_source(),
            crate::source::drug_featurize_source(),
            crate::source::genomic_vep_source(),
            crate::source::funcx_classify_source(),
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn unparsed_source_analyzes_identically() {
        let src = crate::source::drug_featurize_source();
        let a1 = crate::analyze::analyze_source(src).unwrap();
        let printed = unparse_module(&parse_module(src).unwrap());
        let a2 = crate::analyze::analyze_source(&printed).unwrap();
        assert_eq!(
            a1.top_level_modules(),
            a2.top_level_modules(),
            "analysis changed across unparse"
        );
    }

    #[test]
    fn roundtrip_fstrings() {
        roundtrip("def f(name, n):\n    return f\"hi {name}: {n + 1} {{lit}}\"\n");
    }

    #[test]
    fn empty_bodies_get_pass() {
        let ast = parse_module("def f():\n    pass\n").unwrap();
        let printed = unparse_module(&ast);
        assert!(printed.contains("pass"));
    }
}
