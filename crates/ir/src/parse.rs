//! A tiny C-like frontend for kernels — the textual inverse of
//! [`pretty`](crate::pretty).
//!
//! The accepted language is the subset of C the synthesizer supports:
//! array declarations (optionally initialized), a perfect loop nest, and a
//! straight-line body of (optionally guarded) array-update statements.
//! Opaque runtime functions are written `h<seed>_<modulus>(expr)`:
//!
//! ```text
//! int a[16];
//! int b[8] = { 1, 2, 3, 4, 5, 6, 7, 8 };
//! for (int i = 0; i < 8; ++i) {
//!   if (i % 2 == 0) a[b[i] + h3_8(i)] += 5;
//!   b[i] = b[i] * 2;
//! }
//! ```
//!
//! Loop bounds may reference outer induction variables (`for (int j = i + 1;
//! j < 8; ++j)`), matching the triangular nests of the paper's kernels.
//!
//! A `depth_q = N;` directive among the declarations pins the
//! premature-queue depth the file was authored for; it overrides CLI depth
//! options downstream and is the span `prevv-lint --fix` rewrites when a
//! sizing lint (PV402/PV503) suggests a different depth.

use std::fmt;

use prevv_dataflow::components::{Bound, LoopLevel};
use prevv_dataflow::Value;

use crate::expr::{ArrayId, BinOp, Expr, OpaqueFn};
use crate::kernel::{ArrayDecl, KernelError, KernelSpec, Stmt, StmtSpans};
use crate::span::{self, Span};

/// A parse failure, with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// 1-based line and column of the failure within `source`.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        span::line_col(source, self.at)
    }

    /// Renders the error rustc-style against the original source, with a
    /// caret under the offending column:
    ///
    /// ```text
    /// error: expected `]`, found `;`
    ///  --> bad.pvk:3:10
    ///   |
    /// 3 |   a[i + 1 = 5;
    ///   |          ^
    /// ```
    pub fn render(&self, origin: &str, source: &str) -> String {
        format!(
            "error: {}\n{}",
            self.message,
            span::render_snippet(source, origin, Span::point(self.at))
        )
    }
}

impl From<KernelError> for ParseError {
    fn from(e: KernelError) -> Self {
        ParseError {
            at: 0,
            message: format!("kernel validation failed: {e}"),
        }
    }
}

/// Parses kernel source text.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed source or when the resulting kernel
/// fails [`KernelSpec::validate`].
///
/// ```
/// let spec = prevv_ir::parse::parse_kernel(
///     "histogram",
///     "int h[8];\nfor (int i = 0; i < 32; ++i) { h[h3_8(i)] += 1; }",
/// )?;
/// assert_eq!(spec.iteration_count(), 32);
/// # Ok::<(), prevv_ir::parse::ParseError>(())
/// ```
pub fn parse_kernel(name: &str, source: &str) -> Result<KernelSpec, ParseError> {
    let mut p = Parser::new(source);
    let arrays = p.parse_decls()?;
    let mut loop_vars = Vec::new();
    let mut levels = Vec::new();
    p.parse_loops(&mut loop_vars, &mut levels)?;
    let body = p.parse_body(&arrays, &loop_vars, levels.len())?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing input after the loop nest"));
    }
    let decls = arrays.into_iter().map(|(_, d)| d).collect();
    let mut spec = KernelSpec::new(name, levels, decls, body)?;
    if let Some((depth, span)) = p.depth_hint {
        spec = spec.with_depth_hint(depth, span);
    }
    Ok(spec)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Spans of array-load expressions, pushed as each load finishes parsing
    /// (inner loads before the loads containing them — the same depth-first
    /// order as [`Expr::loads`]). Drained per statement.
    load_spans: Vec<Span>,
    /// `depth_q = N;` directive seen among the declarations, with its span.
    depth_hint: Option<(usize, Span)>,
}

type Arrays = Vec<(String, ArrayDecl)>;

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            load_spans: Vec::new(),
            depth_hint: None,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            if let Some(nl) = self.rest().strip_prefix("//") {
                let skip = nl.find('\n').map_or(nl.len(), |i| i + 1);
                self.pos += 2 + skip;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else if self.at_end() {
            Err(self.error(format!("expected `{token}`, found end of input")))
        } else {
            let found: String = self
                .rest()
                .chars()
                .take_while(|c| !c.is_whitespace())
                .take(12)
                .collect();
            Err(self.error(format!("expected `{token}`, found `{found}`")))
        }
    }

    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        self.rest().starts_with(kw)
            && !self
                .rest()
                .as_bytes()
                .get(kw.len())
                .copied()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let r = self.rest();
        let len = r
            .char_indices()
            .take_while(|&(i, c)| {
                if i == 0 {
                    c.is_ascii_alphabetic() || c == '_'
                } else {
                    c.is_ascii_alphanumeric() || c == '_'
                }
            })
            .count();
        if len == 0 {
            return Err(self.error("expected an identifier"));
        }
        let s = r[..len].to_string();
        self.pos += len;
        Ok(s)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let r = self.rest();
        let neg = r.starts_with('-');
        let digits = r[usize::from(neg)..]
            .chars()
            .take_while(char::is_ascii_digit)
            .count();
        if digits == 0 {
            return Err(self.error("expected a number"));
        }
        let end = usize::from(neg) + digits;
        let v: Value = r[..end]
            .parse()
            .map_err(|e| self.error(format!("bad number: {e}")))?;
        self.pos += end;
        Ok(v)
    }

    // --- declarations -----------------------------------------------------

    /// `depth_q = N;` — pins the premature-queue depth the file was
    /// authored for (overrides CLI depth options downstream).
    fn parse_depth_directive(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        let start = self.pos;
        self.expect("depth_q")?;
        self.expect("=")?;
        let n = self.number()?;
        if n <= 0 {
            return Err(self.error("depth_q must be positive"));
        }
        self.expect(";")?;
        if self.depth_hint.is_some() {
            return Err(ParseError {
                at: start,
                message: "depth_q declared twice".into(),
            });
        }
        self.depth_hint = Some((n as usize, Span::new(start, self.pos)));
        Ok(())
    }

    fn parse_decls(&mut self) -> Result<Arrays, ParseError> {
        let mut arrays = Arrays::new();
        loop {
            if self.peek_keyword("depth_q") {
                self.parse_depth_directive()?;
                continue;
            }
            if !self.peek_keyword("int") {
                break;
            }
            // Lookahead: `int name[` is a declaration, `int i = 0` inside a
            // for-header never reaches here (we stop before `for`).
            let save = self.pos;
            self.expect("int")?;
            let name = self.ident()?;
            if !self.eat("[") {
                self.pos = save;
                break;
            }
            let len = self.number()?;
            if len <= 0 {
                return Err(self.error("array length must be positive"));
            }
            self.expect("]")?;
            let decl = if self.eat("=") {
                self.expect("{")?;
                let mut values = Vec::new();
                loop {
                    values.push(self.number()?);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect("}")?;
                if values.len() != len as usize {
                    return Err(self.error(format!(
                        "initializer has {} values for length {len}",
                        values.len()
                    )));
                }
                ArrayDecl::with_values(name.clone(), values)
            } else {
                ArrayDecl::zeroed(name.clone(), len as usize)
            };
            self.expect(";")?;
            if arrays.iter().any(|(n, _)| *n == name) {
                return Err(self.error(format!("array `{name}` declared twice")));
            }
            arrays.push((name, decl));
        }
        if arrays.is_empty() {
            return Err(self.error("expected at least one array declaration"));
        }
        Ok(arrays)
    }

    // --- loop nest ---------------------------------------------------------

    fn parse_bound(&mut self, loop_vars: &[String]) -> Result<Bound, ParseError> {
        self.skip_ws();
        if self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-')
        {
            return Ok(Bound::Const(self.number()?));
        }
        let name = self.ident()?;
        let level = loop_vars
            .iter()
            .position(|v| *v == name)
            .ok_or_else(|| self.error(format!("unknown loop variable `{name}` in bound")))?;
        let off = if self.eat("+") {
            self.number()?
        } else if self.eat("-") {
            let n = self.number()?;
            n.checked_neg()
                .ok_or_else(|| self.error(format!("bound offset -({n}) overflows")))?
        } else {
            0
        };
        Ok(Bound::OuterPlus(level, off))
    }

    fn parse_loops(
        &mut self,
        loop_vars: &mut Vec<String>,
        levels: &mut Vec<LoopLevel>,
    ) -> Result<(), ParseError> {
        self.expect("for")?;
        self.expect("(")?;
        self.expect("int")?;
        let var = self.ident()?;
        self.expect("=")?;
        let lo = self.parse_bound(loop_vars)?;
        self.expect(";")?;
        let var2 = self.ident()?;
        if var2 != var {
            return Err(self.error("loop condition must test the loop variable"));
        }
        self.expect("<")?;
        let hi = self.parse_bound(loop_vars)?;
        self.expect(";")?;
        self.expect("++")?;
        let var3 = self.ident()?;
        if var3 != var {
            return Err(self.error("loop increment must use the loop variable"));
        }
        self.expect(")")?;
        self.expect("{")?;
        loop_vars.push(var);
        levels.push(LoopLevel::new(lo, hi));
        if self.peek_keyword("for") {
            self.parse_loops(loop_vars, levels)?;
        }
        Ok(())
    }

    // --- statements ---------------------------------------------------------

    fn parse_body(
        &mut self,
        arrays: &Arrays,
        loop_vars: &[String],
        depth: usize,
    ) -> Result<Vec<Stmt>, ParseError> {
        let mut body = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("}") {
                break;
            }
            body.push(self.parse_stmt(arrays, loop_vars)?);
        }
        // Close the remaining loop braces.
        for _ in 1..depth {
            self.expect("}")?;
        }
        Ok(body)
    }

    fn array_id(&self, arrays: &Arrays, name: &str) -> Result<ArrayId, ParseError> {
        arrays
            .iter()
            .position(|(n, _)| n == name)
            .map(ArrayId)
            .ok_or_else(|| self.error(format!("unknown array `{name}`")))
    }

    fn parse_stmt(&mut self, arrays: &Arrays, loop_vars: &[String]) -> Result<Stmt, ParseError> {
        self.skip_ws();
        let stmt_start = self.pos;
        let guard = if self.peek_keyword("if") {
            self.expect("if")?;
            self.expect("(")?;
            let g = self.parse_expr(arrays, loop_vars)?;
            self.expect(")")?;
            Some(g)
        } else {
            None
        };
        // Guards must be affine (no loads — enforced by validation), so any
        // spans recorded while parsing one are discarded to keep the span
        // list aligned with the statement's canonical memory-op order.
        self.load_spans.clear();
        self.skip_ws();
        let target_start = self.pos;
        let target = self.ident()?;
        let array = self.array_id(arrays, &target)?;
        self.expect("[")?;
        self.skip_ws();
        let index_start = self.pos;
        let index = self.parse_expr(arrays, loop_vars)?;
        let index_span = Span::new(index_start, self.pos);
        let index_load_spans = std::mem::take(&mut self.load_spans);
        self.expect("]")?;
        let target_span = Span::new(target_start, self.pos);
        self.skip_ws();
        let compound = self.rest().starts_with("+=") || self.rest().starts_with("-=");
        let value = if self.eat("+=") {
            Expr::load(array, index.clone()).add(self.parse_expr(arrays, loop_vars)?)
        } else if self.eat("-=") {
            Expr::load(array, index.clone()).sub(self.parse_expr(arrays, loop_vars)?)
        } else if self.eat("=") {
            self.parse_expr(arrays, loop_vars)?
        } else {
            return Err(self.error("expected `=`, `+=` or `-=`"));
        };
        let rhs_load_spans = std::mem::take(&mut self.load_spans);
        self.expect(";")?;
        // Canonical memory-op order: index loads, then value loads, then the
        // store. A compound update's value is `load(target) op rhs`, whose
        // loads are the cloned index's loads, the implicit target load, then
        // the right-hand side's loads.
        let mut loads = index_load_spans.clone();
        if compound {
            loads.extend(index_load_spans);
            loads.push(target_span);
        }
        loads.extend(rhs_load_spans);
        let spans = StmtSpans {
            stmt: Some(Span::new(stmt_start, self.pos)),
            target: Some(target_span),
            index: Some(index_span),
            loads,
        };
        Ok(match guard {
            Some(g) => Stmt::guarded(array, index, value, g),
            None => Stmt::store(array, index, value),
        }
        .with_spans(spans))
    }

    // --- expressions (precedence climbing) ----------------------------------

    fn parse_expr(&mut self, arrays: &Arrays, loop_vars: &[String]) -> Result<Expr, ParseError> {
        let lhs = self.parse_additive(arrays, loop_vars)?;
        let op = if self.eat("==") {
            BinOp::Eq
        } else if self.eat("!=") {
            BinOp::Ne
        } else if self.eat("<=") {
            BinOp::Le
        } else if self.eat(">=") {
            BinOp::Ge
        } else if self.eat("<") {
            BinOp::Lt
        } else if self.eat(">") {
            BinOp::Gt
        } else {
            return Ok(lhs);
        };
        let rhs = self.parse_additive(arrays, loop_vars)?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn parse_additive(
        &mut self,
        arrays: &Arrays,
        loop_vars: &[String],
    ) -> Result<Expr, ParseError> {
        let mut e = self.parse_multiplicative(arrays, loop_vars)?;
        loop {
            if self.eat("+") {
                e = e.add(self.parse_multiplicative(arrays, loop_vars)?);
            } else if self.peek_minus() {
                self.expect("-")?;
                e = e.sub(self.parse_multiplicative(arrays, loop_vars)?);
            } else {
                return Ok(e);
            }
        }
    }

    /// `-` begins a subtraction only when not immediately part of `-=`.
    fn peek_minus(&mut self) -> bool {
        self.skip_ws();
        self.rest().starts_with('-')
            && !self.rest().starts_with("-=")
            // A negative literal after an operator never reaches here; a
            // bare `-` in additive position is subtraction.
            && self.rest().len() > 1
    }

    fn parse_multiplicative(
        &mut self,
        arrays: &Arrays,
        loop_vars: &[String],
    ) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary(arrays, loop_vars)?;
        loop {
            if self.eat("*") {
                e = e.mul(self.parse_primary(arrays, loop_vars)?);
            } else if self.eat("/") {
                e = Expr::bin(BinOp::Div, e, self.parse_primary(arrays, loop_vars)?);
            } else if self.eat("%") {
                e = Expr::bin(BinOp::Rem, e, self.parse_primary(arrays, loop_vars)?);
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self, arrays: &Arrays, loop_vars: &[String]) -> Result<Expr, ParseError> {
        self.skip_ws();
        let primary_start = self.pos;
        let c = self
            .rest()
            .chars()
            .next()
            .ok_or_else(|| self.error("unexpected end of input in expression"))?;
        if c.is_ascii_digit() || c == '-' {
            return Ok(Expr::lit(self.number()?));
        }
        if c == '(' {
            self.expect("(")?;
            let e = self.parse_expr(arrays, loop_vars)?;
            self.expect(")")?;
            return Ok(e);
        }
        let name = self.ident()?;
        self.skip_ws();
        // A declared array shadows everything else: an array that happens to
        // be named like an opaque function (`int h3_8[4];`) must still parse
        // as an array access, matching what `pretty::render` emits.
        let is_array = arrays.iter().any(|(n, _)| n == &name);
        if is_array && self.rest().starts_with('[') {
            let array = self.array_id(arrays, &name)?;
            self.expect("[")?;
            let idx = self.parse_expr(arrays, loop_vars)?;
            self.expect("]")?;
            // Record after any inner loads, matching `Expr::loads` order.
            self.load_spans.push(Span::new(primary_start, self.pos));
            return Ok(Expr::load(array, idx));
        }
        if !is_array && self.rest().starts_with('(') {
            // Opaque runtime function: h<seed>_<modulus>(expr).
            if let Some(spec) = parse_opaque_name(&name) {
                self.expect("(")?;
                let arg = self.parse_expr(arrays, loop_vars)?;
                self.expect(")")?;
                return Ok(arg.opaque(spec));
            }
            // min(x, y) / max(x, y) — the spelling `pretty::render` uses
            // for `BinOp::Min`/`BinOp::Max`.
            if name == "min" || name == "max" {
                let op = if name == "min" {
                    BinOp::Min
                } else {
                    BinOp::Max
                };
                self.expect("(")?;
                let lhs = self.parse_expr(arrays, loop_vars)?;
                self.expect(",")?;
                let rhs = self.parse_expr(arrays, loop_vars)?;
                self.expect(")")?;
                return Ok(Expr::bin(op, lhs, rhs));
            }
        }
        if let Some(level) = loop_vars.iter().position(|v| *v == name) {
            return Ok(Expr::var(level));
        }
        Err(self.error(format!(
            "`{name}` is neither a loop variable, an array access, nor an opaque function"
        )))
    }
}

/// `h<seed>_<modulus>` names denote opaque runtime functions.
fn parse_opaque_name(name: &str) -> Option<OpaqueFn> {
    let rest = name.strip_prefix('h')?;
    let (seed, modulus) = rest.split_once('_')?;
    let seed: u64 = seed.parse().ok()?;
    let modulus: Value = modulus.parse().ok()?;
    (modulus > 0).then(|| OpaqueFn::new(seed, modulus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden;

    #[test]
    fn parses_histogram() {
        let spec = parse_kernel(
            "hist",
            "int h[8];\nfor (int i = 0; i < 32; ++i) { h[h3_8(i)] += 1; }",
        )
        .expect("parses");
        assert_eq!(spec.iteration_count(), 32);
        let g = golden::execute(&spec);
        assert_eq!(g.arrays[0].iter().sum::<i64>(), 32);
    }

    #[test]
    fn parse_then_pretty_round_trips_semantics() {
        let src = "int a[16];
int b[4] = { 2, 0, 3, 1 };
for (int i = 0; i < 4; ++i) {
  a[b[i]] += 7;
  b[i] = b[i] * 2;
}";
        let spec = parse_kernel("rt", src).expect("parses");
        let g1 = golden::execute(&spec);
        // Render and re-parse: semantics must be identical.
        let rendered = crate::pretty::render(&spec);
        let body_only: String = rendered
            .lines()
            .filter(|l| !l.starts_with("//"))
            .collect::<Vec<_>>()
            .join("\n");
        let spec2 = parse_kernel("rt2", &body_only).expect("re-parses");
        let g2 = golden::execute(&spec2);
        assert_eq!(g1.arrays, g2.arrays);
    }

    #[test]
    fn parses_triangular_bounds_and_guards() {
        let src = "int a[36];
for (int i = 0; i < 6; ++i) {
  for (int j = i + 1; j < 6; ++j) {
    if (j % 2 == 0) a[i * 6 + j] = i + j;
  }
}";
        let spec = parse_kernel("tri", src).expect("parses");
        assert_eq!(spec.levels.len(), 2);
        assert_eq!(spec.iteration_count(), 15);
        assert!(spec.body[0].guard.is_some());
    }

    #[test]
    fn reports_unknown_identifiers() {
        let err = parse_kernel(
            "bad",
            "int a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = z; }",
        )
        .expect_err("must fail");
        assert!(err.message.contains('z'), "{err}");
    }

    #[test]
    fn reports_initializer_length_mismatch() {
        let err = parse_kernel(
            "bad",
            "int a[4] = { 1, 2 };\nfor (int i = 0; i < 4; ++i) { a[i] = 1; }",
        )
        .expect_err("must fail");
        assert!(err.message.contains("2 values for length 4"), "{err}");
    }

    #[test]
    fn reports_duplicate_arrays_and_trailing_garbage() {
        let err = parse_kernel(
            "bad",
            "int a[4];\nint a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = 1; }",
        )
        .expect_err("must fail");
        assert!(err.message.contains("declared twice"));

        let err = parse_kernel(
            "bad",
            "int a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = 1; } garbage",
        )
        .expect_err("must fail");
        assert!(err.message.contains("trailing input"), "{err}");
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// declare\nint a[4]; // the array\nfor (int i = 0; i < 4; ++i) {\n  // body\n  a[i] = i; \n}";
        let spec = parse_kernel("c", src).expect("parses");
        let g = golden::execute(&spec);
        assert_eq!(g.arrays[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn operator_precedence_is_conventional() {
        let spec = parse_kernel(
            "prec",
            "int a[16];\nfor (int i = 0; i < 4; ++i) { a[i] = 1 + i * 2; }",
        )
        .expect("parses");
        let g = golden::execute(&spec);
        assert_eq!(g.arrays[0][3], 7, "1 + (3*2), not (1+3)*2");
    }

    #[test]
    fn statements_carry_source_spans() {
        let src = "int a[8];\nint b[4] = { 2, 0, 3, 1 };\nfor (int i = 0; i < 4; ++i) {\n  a[b[i]] += 7;\n  b[i] = b[i] * 2;\n}";
        let spec = parse_kernel("spans", src).expect("parses");

        let s0 = &spec.body[0];
        let stmt_span = s0.span().expect("stmt span");
        assert_eq!(&src[stmt_span.start..stmt_span.end], "a[b[i]] += 7;");
        let idx = s0.index_span().expect("index span");
        assert_eq!(&src[idx.start..idx.end], "b[i]");
        // Canonical op order for `a[b[i]] += 7`: load b[i] (index), load
        // b[i] (cloned index inside the implicit target load), load a[b[i]],
        // then the store. Spans must cover every op.
        assert_eq!(s0.mem_op_count(), 4);
        let texts: Vec<&str> = (0..4)
            .map(|k| {
                let sp = s0.op_span(k).expect("op span");
                &src[sp.start..sp.end]
            })
            .collect();
        assert_eq!(texts, vec!["b[i]", "b[i]", "a[b[i]]", "a[b[i]]"]);

        let s1 = &spec.body[1];
        let stmt_span = s1.span().expect("stmt span");
        assert_eq!(&src[stmt_span.start..stmt_span.end], "b[i] = b[i] * 2;");
        assert_eq!(s1.mem_op_count(), 2);
        let sp = s1.op_span(0).expect("value load span");
        assert_eq!(&src[sp.start..sp.end], "b[i]");
        let (line, col) = sp.line_col(src);
        assert_eq!((line, col), (5, 10));
    }

    #[test]
    fn guarded_statement_spans_include_the_guard() {
        let src = "int a[8];\nfor (int i = 0; i < 4; ++i) {\n  if (i % 2 == 0) a[i] += 1;\n}";
        let spec = parse_kernel("g", src).expect("parses");
        let sp = spec.body[0].span().expect("span");
        assert_eq!(&src[sp.start..sp.end], "if (i % 2 == 0) a[i] += 1;");
        // Guard loads never leak into the op spans.
        assert_eq!(spec.body[0].mem_op_count(), 2);
        assert!(spec.body[0].op_span(0).is_some());
        assert!(spec.body[0].op_span(1).is_some());
    }

    #[test]
    fn render_points_a_caret_at_the_failure() {
        let src = "int a[4];\nfor (int i = 0; i < 4; ++i) {\n  a[i + 1 = 5;\n}";
        let err = parse_kernel("bad", src).expect_err("must fail");
        let rendered = err.render("bad.pvk", src);
        assert!(rendered.starts_with("error: expected `]`"), "{rendered}");
        assert!(rendered.contains("--> bad.pvk:3:11"), "{rendered}");
        assert!(rendered.contains("3 |   a[i + 1 = 5;"), "{rendered}");
        // The caret lines up with the offending `=` in the echoed source.
        let text_line = rendered.lines().nth(3).unwrap();
        let caret_line = rendered.lines().nth(4).unwrap();
        assert_eq!(caret_line.find('^'), text_line.find('='), "{rendered}");
    }

    #[test]
    fn expect_reports_end_of_input() {
        let err = parse_kernel("bad", "int a[4];\nfor (int i = 0; i < 4; ++i) { a[i] = 1")
            .expect_err("must fail");
        assert!(err.message.contains("end of input"), "{err}");
    }

    #[test]
    fn subtraction_and_compound_ops() {
        let spec = parse_kernel(
            "sub",
            "int a[8] = { 9, 9, 9, 9, 9, 9, 9, 9 };\nfor (int i = 0; i < 8; ++i) { a[i] -= i; }",
        )
        .expect("parses");
        let g = golden::execute(&spec);
        assert_eq!(g.arrays[0], vec![9, 8, 7, 6, 5, 4, 3, 2]);
    }
}
