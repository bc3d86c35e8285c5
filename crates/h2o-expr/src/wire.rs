//! Wire (de)serialization: hand-rolled JSON for queries and results.
//!
//! The `h2o-server` crate speaks a line-delimited JSON protocol; this
//! module is its vocabulary, kept next to the query model so the two can
//! never drift. No external JSON dependency — a [`Json`] tree with a
//! recursive-descent parser and a canonical writer, plus converters
//! between the tree and [`Query`] / [`JoinQuery`] / [`QueryResult`]. Both
//! query kinds encode their [`Select`] clause through one encoder and
//! decoder (`"select"` / `"aggs"` / `"group_by"`), so the two kinds cannot
//! drift apart either.
//!
//! Two deliberate choices:
//!
//! * **Integers survive exactly.** [`Json::Int`] is separate from
//!   [`Json::Num`]: a number literal with no fraction or exponent parses
//!   as `i64`, so the engine's 64-bit lanes round-trip bit-for-bit
//!   instead of sagging through `f64` (exact only to 2^53). Result
//!   fingerprints are `u64` and exceed even that — they travel as
//!   strings.
//! * **Columns travel by name.** Wire queries reference attributes by
//!   schema name (`{"col":"ra"}`), resolved against the engine's actual
//!   schemas at decode time — the client never needs to know dense
//!   attribute ids, and a schema mismatch is a typed decode error, not a
//!   silent misread.

use crate::agg::{AggFunc, Aggregate};
use crate::datum::Datum;
use crate::expr::{ArithOp, Expr};
use crate::join::{self, JoinQuery, RelRef, Side};
use crate::predicate::{CmpOp, Conjunction, Predicate};
use crate::query::{Query, QueryError};
use crate::result::QueryResult;
use crate::select::Select;
use h2o_storage::Schema;
use std::fmt;
use std::sync::Arc;

/// A parsed JSON value. Objects keep insertion order (lookup is linear —
/// wire objects are small by construction).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number literal with no fraction or exponent part: exact `i64`.
    Int(i64),
    /// Any other number literal.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A typed wire-layer error. Rendered messages are stable — the server's
/// protocol tests pin them, mirroring the engine's rendered-message
/// convention for [`QueryError`] and `EngineError`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The request is not well-formed JSON. Payload: byte offset and what
    /// the parser expected.
    Syntax { offset: usize, msg: String },
    /// The JSON is well-formed but not the shape the protocol expects
    /// (missing field, wrong type, unknown operator…).
    Shape(String),
    /// The decoded query is invalid against the engine's schemas.
    Query(QueryError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax { offset, msg } => {
                write!(f, "malformed json at byte {offset}: {msg}")
            }
            WireError::Shape(msg) => write!(f, "malformed request: {msg}"),
            WireError::Query(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<QueryError> for WireError {
    fn from(e: QueryError) -> WireError {
        WireError::Query(e)
    }
}

/// Deepest container (or expression) nesting a wire document may carry.
/// The parser and the expression decoder recurse once per level, and a
/// stack overflow aborts the process rather than unwinding, so hostile
/// input must be refused before it can exhaust a session thread's stack.
const MAX_NESTING: usize = 128;

fn shape(msg: impl Into<String>) -> WireError {
    WireError::Shape(msg.into())
}

impl Json {
    /// Looks up a field of an object. `Null` on missing fields and
    /// non-objects (the protocol treats absent and null alike).
    pub fn get(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The value as a string, or a shape error naming `what`.
    pub fn str(&self, what: &str) -> Result<&str, WireError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(shape(format!(
                "{what} must be a string, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as an exact integer, or a shape error naming `what`.
    pub fn int(&self, what: &str) -> Result<i64, WireError> {
        match self {
            Json::Int(v) => Ok(*v),
            other => Err(shape(format!(
                "{what} must be an integer, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as a float (integers widen), or a shape error.
    pub fn num(&self, what: &str) -> Result<f64, WireError> {
        match self {
            Json::Int(v) => Ok(*v as f64),
            Json::Num(v) => Ok(*v),
            other => Err(shape(format!(
                "{what} must be a number, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as a bool, or a shape error naming `what`.
    pub fn bool(&self, what: &str) -> Result<bool, WireError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(shape(format!(
                "{what} must be a boolean, got {}",
                other.type_name()
            ))),
        }
    }

    /// The value as an array, or a shape error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], WireError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(shape(format!(
                "{what} must be an array, got {}",
                other.type_name()
            ))),
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Serializes canonically (no whitespace, fields in insertion order).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip form; force a marker so it
                    // re-parses as Num, not Int.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no Inf/NaN; null is the conventional hole.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> WireError {
        WireError::Syntax {
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, WireError>,
    ) -> Result<Json, WireError> {
        if self.depth == MAX_NESTING {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, WireError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the protocol is ASCII-heavy and the writer
                            // never emits them.
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number literal '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// Query model <-> Json
// ---------------------------------------------------------------------------

/// How a decoder turns a column name into a combined-space expression,
/// and an encoder does the reverse. One implementation for single-relation
/// schemas, one for a join's two relation bindings.
trait ColSpace {
    fn resolve(&self, key: &str, name: &str) -> Result<Expr, WireError>;
    fn name_of(&self, attr: h2o_storage::AttrId) -> (&'static str, String);
}

/// The name of `attr` in `schema`, or its id rendering outside it.
fn attr_name(schema: &Schema, attr: h2o_storage::AttrId) -> String {
    schema
        .attr(attr)
        .map(|a| a.name().to_string())
        .unwrap_or_else(|_| attr.to_string())
}

struct SingleRel<'a>(&'a Schema);

impl ColSpace for SingleRel<'_> {
    fn resolve(&self, key: &str, name: &str) -> Result<Expr, WireError> {
        if key != "col" {
            return Err(shape(format!(
                "column key \"{key}\" is join-only; single-relation queries use \"col\""
            )));
        }
        self.0
            .attr_by_name(name)
            .map(Expr::col)
            .map_err(|_| shape(format!("unknown column \"{name}\"")))
    }

    fn name_of(&self, attr: h2o_storage::AttrId) -> (&'static str, String) {
        ("col", attr_name(self.0, attr))
    }
}

/// A join's combined column space: `"col"` resolves on whichever side
/// uniquely defines the name, `"lcol"` / `"rcol"` on one side (the
/// [`JoinBuilder`](crate::JoinBuilder) rules and errors); encoding always
/// side-qualifies.
struct JoinRels<'a>(&'a RelRef, &'a RelRef);

impl ColSpace for JoinRels<'_> {
    fn resolve(&self, key: &str, name: &str) -> Result<Expr, WireError> {
        let side = match key {
            "col" => None,
            "lcol" => Some(Side::Left),
            "rcol" => Some(Side::Right),
            other => return Err(shape(format!("unknown column key \"{other}\""))),
        };
        Ok(join::column(self.0, self.1, side, name)?)
    }

    fn name_of(&self, attr: h2o_storage::AttrId) -> (&'static str, String) {
        let width = self.0.schema().len();
        if attr.index() < width {
            ("lcol", attr_name(self.0.schema(), attr))
        } else {
            let local = h2o_storage::AttrId((attr.index() - width) as u32);
            ("rcol", attr_name(self.1.schema(), local))
        }
    }
}

/// Encodes a constant: `I64` → `Int`, `F64` → `Num`, `Str` → `Str`.
pub fn datum_to_json(d: &Datum) -> Json {
    match d {
        Datum::I64(v) => Json::Int(*v),
        Datum::F64(v) => Json::Num(*v),
        Datum::Str(s) => Json::Str(s.to_string()),
    }
}

/// Decodes a constant (number or string); `what` names the field in
/// shape errors. Used by the server's prepared-statement parameters as
/// well as `"lit"` expression nodes.
pub fn datum_from_json(j: &Json, what: &str) -> Result<Datum, WireError> {
    match j {
        Json::Int(v) => Ok(Datum::I64(*v)),
        Json::Num(v) => Ok(Datum::F64(*v)),
        Json::Str(s) => Ok(Datum::Str(Arc::from(s.as_str()))),
        other => Err(shape(format!(
            "{what} must be a number or string constant, got {}",
            other.type_name()
        ))),
    }
}

fn expr_to_json(e: &Expr, space: &dyn ColSpace) -> Json {
    match e {
        Expr::Col(a) => {
            let (key, name) = space.name_of(*a);
            Json::Obj(vec![(key.to_string(), Json::Str(name))])
        }
        Expr::Const(d) => Json::Obj(vec![("lit".to_string(), datum_to_json(d))]),
        Expr::Binary { op, lhs, rhs } => Json::Obj(vec![
            ("op".to_string(), Json::Str(op.symbol().to_string())),
            ("lhs".to_string(), expr_to_json(lhs, space)),
            ("rhs".to_string(), expr_to_json(rhs, space)),
        ]),
    }
}

fn expr_from_json(j: &Json, space: &dyn ColSpace, depth: usize) -> Result<Expr, WireError> {
    if depth == MAX_NESTING {
        return Err(shape("expression nesting too deep"));
    }
    let Json::Obj(fields) = j else {
        return Err(shape(format!(
            "expression must be an object, got {}",
            j.type_name()
        )));
    };
    for key in ["col", "lcol", "rcol"] {
        if let Json::Str(name) = j.get(key) {
            return space.resolve(key, name);
        }
    }
    if !j.get("lit").is_null() {
        return Ok(Expr::Const(datum_from_json(j.get("lit"), "\"lit\"")?));
    }
    if let Json::Str(sym) = j.get("op") {
        let op = match sym.as_str() {
            "+" => ArithOp::Add,
            "-" => ArithOp::Sub,
            "*" => ArithOp::Mul,
            other => return Err(shape(format!("unknown arithmetic operator \"{other}\""))),
        };
        let lhs = expr_from_json(j.get("lhs"), space, depth + 1)?;
        let rhs = expr_from_json(j.get("rhs"), space, depth + 1)?;
        return Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        });
    }
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    Err(shape(format!(
        "expression object needs \"col\"/\"lcol\"/\"rcol\", \"lit\" or \"op\"; got keys {keys:?}"
    )))
}

fn cmp_from_symbol(sym: &str) -> Result<CmpOp, WireError> {
    Ok(match sym {
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        "=" | "==" => CmpOp::Eq,
        "<>" | "!=" => CmpOp::Ne,
        other => return Err(shape(format!("unknown comparison operator \"{other}\""))),
    })
}

fn pred_to_json(p: &Predicate, space: &dyn ColSpace) -> Json {
    let (key, name) = space.name_of(p.attr);
    Json::Obj(vec![
        (key.to_string(), Json::Str(name)),
        ("op".to_string(), Json::Str(p.op.symbol().to_string())),
        ("value".to_string(), datum_to_json(&p.value)),
    ])
}

fn pred_from_json(j: &Json, space: &dyn ColSpace) -> Result<Predicate, WireError> {
    if !matches!(j, Json::Obj(_)) {
        return Err(shape(format!(
            "predicate must be an object, got {}",
            j.type_name()
        )));
    }
    let mut attr = None;
    for key in ["col", "lcol", "rcol"] {
        if let Json::Str(name) = j.get(key) {
            match space.resolve(key, name)? {
                Expr::Col(a) => attr = Some(a),
                _ => unreachable!("resolve returns column expressions"),
            }
            break;
        }
    }
    let attr = attr.ok_or_else(|| shape("predicate needs a \"col\"/\"lcol\"/\"rcol\" field"))?;
    let op = cmp_from_symbol(j.get("op").str("predicate \"op\"")?)?;
    let value = datum_from_json(j.get("value"), "predicate \"value\"")?;
    Ok(Predicate { attr, op, value })
}

fn conj_to_json(c: &Conjunction, space: &dyn ColSpace) -> Json {
    Json::Arr(
        c.predicates()
            .iter()
            .map(|p| pred_to_json(p, space))
            .collect(),
    )
}

fn conj_from_json(j: &Json, space: &dyn ColSpace, what: &str) -> Result<Conjunction, WireError> {
    if j.is_null() {
        return Ok(Conjunction::always());
    }
    let preds = j
        .arr(what)?
        .iter()
        .map(|p| pred_from_json(p, space))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Conjunction::of(preds))
}

fn agg_to_json(a: &Aggregate, space: &dyn ColSpace) -> Json {
    let mut fields = vec![("fn".to_string(), Json::Str(a.func.name().to_string()))];
    if a.func != AggFunc::Count {
        fields.push(("expr".to_string(), expr_to_json(&a.expr, space)));
    }
    Json::Obj(fields)
}

fn agg_from_json(j: &Json, space: &dyn ColSpace) -> Result<Aggregate, WireError> {
    let func = match j.get("fn").str("aggregate \"fn\"")? {
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        "avg" => AggFunc::Avg,
        "count" => return Ok(Aggregate::count()),
        other => return Err(shape(format!("unknown aggregate function \"{other}\""))),
    };
    let expr = expr_from_json(j.get("expr"), space, 0)?;
    Ok(Aggregate::new(func, expr))
}

fn exprs_from_json(j: &Json, space: &dyn ColSpace, what: &str) -> Result<Vec<Expr>, WireError> {
    j.arr(what)?
        .iter()
        .map(|e| expr_from_json(e, space, 0))
        .collect()
}

/// Encodes a select clause as its object fields: `"select"` for a
/// projection, `"aggs"` for a scalar aggregate, `"group_by"` then `"aggs"`
/// when grouped.
fn select_to_json(select: &Select, space: &dyn ColSpace) -> Vec<(String, Json)> {
    let (exprs, aggs) = select.parts();
    let exprs = Json::Arr(exprs.iter().map(|e| expr_to_json(e, space)).collect());
    let aggs = Json::Arr(aggs.iter().map(|a| agg_to_json(a, space)).collect());
    match select {
        Select::Project(_) => vec![("select".to_string(), exprs)],
        Select::Aggregate(_) => vec![("aggs".to_string(), aggs)],
        Select::Grouped { .. } => vec![("group_by".to_string(), exprs), ("aggs".to_string(), aggs)],
    }
}

/// Decodes the select clause of a query object `j` (the field rules of
/// [`query_from_json`], shared by both query kinds). `what` names the
/// query kind in the error for a missing clause.
fn select_from_json(j: &Json, space: &dyn ColSpace, what: &str) -> Result<Select, WireError> {
    let aggs = || -> Result<Vec<Aggregate>, WireError> {
        if j.get("aggs").is_null() {
            return Ok(Vec::new());
        }
        j.get("aggs")
            .arr("\"aggs\"")?
            .iter()
            .map(|a| agg_from_json(a, space))
            .collect()
    };
    let select = if !j.get("group_by").is_null() {
        let keys = exprs_from_json(j.get("group_by"), space, "\"group_by\"")?;
        Select::grouped(keys, aggs()?)?
    } else if !j.get("aggs").is_null() {
        Select::new([], aggs()?)?
    } else if !j.get("select").is_null() {
        Select::new(exprs_from_json(j.get("select"), space, "\"select\"")?, [])?
    } else {
        return Err(shape(format!(
            "{what} needs a \"select\", \"aggs\" or \"group_by\" field"
        )));
    };
    Ok(select)
}

/// Encodes a single-relation query, referencing attributes by their
/// `schema` names. Inverse of [`query_from_json`].
pub fn query_to_json(q: &Query, schema: &Schema) -> Json {
    let space = SingleRel(schema);
    let mut fields = select_to_json(q.select_clause(), &space);
    if !q.filter().is_always_true() {
        fields.push(("where".to_string(), conj_to_json(q.filter(), &space)));
    }
    Json::Obj(fields)
}

/// Decodes a single-relation query against `schema`. The select shape is
/// chosen by which fields are present: `group_by` (+ optional `aggs`) ⇒
/// grouped, `aggs` alone ⇒ scalar aggregation, `select` ⇒ projection.
/// `where` is an optional predicate array (absent = no where-clause).
pub fn query_from_json(j: &Json, schema: &Schema) -> Result<Query, WireError> {
    if !matches!(j, Json::Obj(_)) {
        return Err(shape(format!(
            "query must be an object, got {}",
            j.type_name()
        )));
    }
    let space = SingleRel(schema);
    let filter = conj_from_json(j.get("where"), &space, "\"where\"")?;
    Ok(Query::new(select_from_json(j, &space, "query")?, filter))
}

/// Encodes a join query. Relation bindings travel by name; columns by
/// side-qualified name. Inverse of [`join_from_json`].
pub fn join_to_json(q: &JoinQuery) -> Json {
    let (lschema, rschema) = (q.left().schema(), q.right().schema());
    let on = q.on().iter().map(|&(l, r)| {
        Json::Arr(vec![
            Json::Str(attr_name(lschema, l)),
            Json::Str(attr_name(rschema, r)),
        ])
    });
    let mut fields = vec![
        ("left".to_string(), Json::Str(q.left().name().to_string())),
        ("right".to_string(), Json::Str(q.right().name().to_string())),
        ("on".to_string(), Json::Arr(on.collect())),
    ];
    // Side filters are encoded in each side's local name space.
    for (side, key, schema) in [
        (Side::Left, "where_left", lschema),
        (Side::Right, "where_right", rschema),
    ] {
        if !q.filter(side).is_always_true() {
            fields.push((
                key.to_string(),
                conj_to_json(q.filter(side), &SingleRel(schema)),
            ));
        }
    }
    fields.extend(select_to_json(
        q.select_clause(),
        &JoinRels(q.left(), q.right()),
    ));
    Json::Obj(fields)
}

/// Decodes a join query. `resolve` maps a relation name to its schema —
/// the server passes a lookup against the engine's bindings, so an
/// unknown name fails here with the engine's own
/// [`QueryError::UnknownRelation`] rendering.
pub fn join_from_json(
    j: &Json,
    resolve: &dyn Fn(&str) -> Option<Arc<Schema>>,
) -> Result<JoinQuery, WireError> {
    if !matches!(j, Json::Obj(_)) {
        return Err(shape(format!(
            "join query must be an object, got {}",
            j.type_name()
        )));
    }
    let lname = j.get("left").str("\"left\"")?;
    let rname = j.get("right").str("\"right\"")?;
    let lschema =
        resolve(lname).ok_or(WireError::Query(QueryError::UnknownRelation(lname.into())))?;
    let rschema =
        resolve(rname).ok_or(WireError::Query(QueryError::UnknownRelation(rname.into())))?;

    let mut b = Query::join((lname, lschema.clone()), (rname, rschema.clone()));
    for pair in j.get("on").arr("\"on\"")? {
        let pair = pair.arr("\"on\" entry")?;
        if pair.len() != 2 {
            return Err(shape("\"on\" entries must be [left_col, right_col] pairs"));
        }
        b = b.on(
            pair[0].str("\"on\" left column")?,
            pair[1].str("\"on\" right column")?,
        )?;
    }
    let lf = conj_from_json(j.get("where_left"), &SingleRel(&lschema), "\"where_left\"")?;
    let rf = conj_from_json(
        j.get("where_right"),
        &SingleRel(&rschema),
        "\"where_right\"",
    )?;
    b = b.filter_left(lf).filter_right(rf);
    // Select-clause columns live in the combined space of both bindings.
    let (left, right) = b.rels();
    let select = select_from_json(j, &JoinRels(left, right), "join query")?;
    Ok(b.finish(select)?)
}

/// Encodes a result: row count, width, sorted-rows fingerprint (as a
/// string — `u64` exceeds the exact range of JSON's `f64` numbers), and
/// the raw lane rows in order.
pub fn result_to_json(r: &QueryResult) -> Json {
    Json::Obj(vec![
        ("rows".to_string(), Json::Int(r.rows() as i64)),
        ("width".to_string(), Json::Int(r.width() as i64)),
        (
            "fingerprint".to_string(),
            Json::Str(r.fingerprint().to_string()),
        ),
        (
            "data".to_string(),
            Json::Arr(
                r.iter_rows()
                    .map(|row| Json::Arr(row.iter().map(|&v| Json::Int(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::LogicalType;

    fn schema() -> Arc<Schema> {
        Schema::typed([
            ("id", LogicalType::I64),
            ("mag", LogicalType::I64),
            ("ra", LogicalType::F64),
            ("class", LogicalType::Dict),
        ])
        .into_shared()
    }

    #[test]
    fn json_parses_and_writes_canonically() {
        let j = Json::parse(r#" {"a": [1, -2.5, "x\n", true, null], "b": {}} "#).unwrap();
        assert_eq!(j.get("a").arr("a").unwrap().len(), 5);
        assert_eq!(j.get("a").arr("a").unwrap()[0], Json::Int(1));
        assert_eq!(j.get("a").arr("a").unwrap()[1], Json::Num(-2.5));
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j, "writer output re-parses");
        assert_eq!(text, r#"{"a":[1,-2.5,"x\n",true,null],"b":{}}"#);
    }

    #[test]
    fn integers_round_trip_exactly() {
        for v in [i64::MAX, i64::MIN, 0, -1, 1 << 60] {
            let j = Json::parse(&Json::Int(v).to_string()).unwrap();
            assert_eq!(j, Json::Int(v), "{v} must survive as an exact integer");
        }
        // A fraction marker forces Num even for integral values.
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
    }

    #[test]
    fn syntax_errors_are_typed_and_positioned() {
        for (input, want_off) in [("{", 1usize), ("[1,]", 3), ("nul", 0), ("\"abc", 4)] {
            match Json::parse(input) {
                Err(WireError::Syntax { offset, .. }) => {
                    assert_eq!(offset, want_off, "offset for {input:?}")
                }
                other => panic!("expected syntax error for {input:?}, got {other:?}"),
            }
        }
        let msg = Json::parse("{\"a\":}").unwrap_err().to_string();
        assert!(msg.starts_with("malformed json at byte "), "got {msg}");
    }

    /// One query per select shape: projection, scalar aggregate, grouped.
    fn single_queries() -> [Query; 3] {
        [
            Query::project(
                [Expr::col(0u32), Expr::col(1u32).add(Expr::lit(3))],
                Conjunction::of([Predicate::lt(1u32, 100), Predicate::eq(3u32, "STAR")]),
            )
            .unwrap(),
            Query::aggregate(
                [
                    Aggregate::sum(Expr::col(2u32).mul(Expr::lit(2.0))),
                    Aggregate::count(),
                ],
                Conjunction::of([Predicate::gt(2u32, 180.0)]),
            )
            .unwrap(),
            Query::grouped(
                [Expr::col(3u32)],
                [Aggregate::min(Expr::col(1u32)), Aggregate::count()],
                Conjunction::always(),
            )
            .unwrap(),
        ]
    }

    fn spec_schema() -> Arc<Schema> {
        Schema::typed([("bestid", LogicalType::I64), ("z", LogicalType::I64)]).into_shared()
    }

    /// One join per select shape over `R` (the [`schema`] fixture) and
    /// `spec`, with a filter on each side.
    fn join_queries(photo: &Arc<Schema>, spec: &Arc<Schema>) -> [JoinQuery; 3] {
        let b = Query::join(("R", photo.clone()), ("spec", spec.clone()))
            .on("id", "bestid")
            .unwrap()
            .filter_left(Conjunction::of([Predicate::lt(1u32, 5)]))
            .filter_right(Conjunction::of([Predicate::gt(1u32, 2)]));
        let mag = b.col("mag").unwrap();
        let z = b.col("z").unwrap();
        [
            b.clone()
                .project([mag.clone(), z.clone().add(mag.clone())])
                .unwrap(),
            b.clone()
                .aggregate([Aggregate::max(mag.clone()), Aggregate::count()])
                .unwrap(),
            b.grouped([z], [Aggregate::sum(mag), Aggregate::count()])
                .unwrap(),
        ]
    }

    #[test]
    fn queries_round_trip_through_json_by_name() {
        let s = schema();
        for q in single_queries() {
            let wire = query_to_json(&q, &s).to_string();
            let back = query_from_json(&Json::parse(&wire).unwrap(), &s).unwrap();
            assert_eq!(back, q, "round-trip diverged for {q} via {wire}");
        }
    }

    #[test]
    fn join_queries_round_trip_through_json() {
        let photo = schema();
        let spec = spec_schema();
        let resolve = |name: &str| -> Option<Arc<Schema>> {
            match name {
                "R" => Some(photo.clone()),
                "spec" => Some(spec.clone()),
                _ => None,
            }
        };
        for q in join_queries(&photo, &spec) {
            let wire = join_to_json(&q).to_string();
            let back = join_from_json(&Json::parse(&wire).unwrap(), &resolve).unwrap();
            // JoinQuery has no PartialEq; its Display form pins the whole shape.
            assert_eq!(back.to_string(), q.to_string(), "via {wire}");
            assert_eq!(back.on(), q.on());

            // Unknown relation names surface the engine's own error rendering.
            let bad = wire.replace("\"spec\"", "\"nope\"");
            let err = join_from_json(&Json::parse(&bad).unwrap(), &resolve).unwrap_err();
            assert_eq!(err.to_string(), "invalid query: unknown relation: nope");
        }
    }

    /// The encoders' exact bytes, one per (query kind, select shape): a
    /// field reorder or a renamed key breaks every deployed client, and
    /// the round-trip tests above cannot see either.
    #[test]
    fn encodings_are_pinned_byte_for_byte() {
        let s = schema();
        let single: Vec<String> = single_queries()
            .iter()
            .map(|q| query_to_json(q, &s).to_string())
            .collect();
        let joins: Vec<String> = join_queries(&s, &spec_schema())
            .iter()
            .map(|q| join_to_json(q).to_string())
            .collect();
        assert_eq!(
            single,
            [
                r#"{"select":[{"col":"id"},{"op":"+","lhs":{"col":"mag"},"rhs":{"lit":3}}],"where":[{"col":"mag","op":"<","value":100},{"col":"class","op":"=","value":"STAR"}]}"#,
                r#"{"aggs":[{"fn":"sum","expr":{"op":"*","lhs":{"col":"ra"},"rhs":{"lit":2.0}}},{"fn":"count"}],"where":[{"col":"ra","op":">","value":180.0}]}"#,
                r#"{"group_by":[{"col":"class"}],"aggs":[{"fn":"min","expr":{"col":"mag"}},{"fn":"count"}]}"#,
            ]
        );
        let head = r#""left":"R","right":"spec","on":[["id","bestid"]],"where_left":[{"col":"mag","op":"<","value":5}],"where_right":[{"col":"z","op":">","value":2}]"#;
        assert_eq!(
            joins,
            [
                format!(
                    r#"{{{head},"select":[{{"lcol":"mag"}},{{"op":"+","lhs":{{"rcol":"z"}},"rhs":{{"lcol":"mag"}}}}]}}"#
                ),
                format!(
                    r#"{{{head},"aggs":[{{"fn":"max","expr":{{"lcol":"mag"}}}},{{"fn":"count"}}]}}"#
                ),
                format!(
                    r#"{{{head},"group_by":[{{"rcol":"z"}}],"aggs":[{{"fn":"sum","expr":{{"lcol":"mag"}}}},{{"fn":"count"}}]}}"#
                ),
            ]
        );
    }

    #[test]
    fn shape_errors_render_stably() {
        let s = schema();
        let cases = [
            (
                r#"{}"#,
                "malformed request: query needs a \"select\", \"aggs\" or \"group_by\" field",
            ),
            (
                r#"{"select":[{"col":"nope"}]}"#,
                "malformed request: unknown column \"nope\"",
            ),
            (
                r#"{"select":[{"col":"id"}],"where":[{"col":"id","op":"~","value":1}]}"#,
                "malformed request: unknown comparison operator \"~\"",
            ),
            (
                r#"{"select":"id"}"#,
                "malformed request: \"select\" must be an array, got string",
            ),
        ];
        for (input, want) in cases {
            let err = query_from_json(&Json::parse(input).unwrap(), &s).unwrap_err();
            assert_eq!(err.to_string(), want, "for {input}");
        }
        let resolve = |_: &str| Some(s.clone());
        let join = r#"{"left":"R","right":"R","on":[["id","id"]]}"#;
        let err = join_from_json(&Json::parse(join).unwrap(), &resolve).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed request: join query needs a \"select\", \"aggs\" or \"group_by\" field"
        );
    }

    #[test]
    fn results_serialize_with_string_fingerprints() {
        let s = schema();
        let q = Query::project([Expr::col(0u32)], Conjunction::always()).unwrap();
        let _ = (s, q);
        let r = QueryResult::from_rows(2, vec![1, 2, 3, 4]);
        let j = result_to_json(&r);
        assert_eq!(j.get("rows"), &Json::Int(2));
        assert_eq!(j.get("width"), &Json::Int(2));
        assert_eq!(
            j.get("fingerprint"),
            &Json::Str(r.fingerprint().to_string())
        );
        assert_eq!(
            j.get("data").arr("data").unwrap()[1],
            Json::Arr(vec![Json::Int(3), Json::Int(4)])
        );
    }
}
