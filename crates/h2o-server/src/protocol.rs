//! The line-delimited JSON protocol.
//!
//! One request per line, one response per line, in order. A request is
//! a JSON object:
//!
//! ```json
//! {"id":1,"kind":"query","q":{...},"opts":{...},"check":true}
//! ```
//!
//! * `id` — echoed verbatim in the response (any JSON value; `null`
//!   when a line is too malformed to extract one).
//! * `kind` — `"query"`, `"join"`, `"prepare"`, `"exec"`, `"ping"` or
//!   `"stats"` (an engine/server counter snapshot).
//! * `q` — the query document ([`h2o_expr::wire`] encoding): a
//!   single-relation query against the primary relation, or (for
//!   `"join"`) a two-relation document with `"left"`/`"right"`
//!   bindings.
//! * `opts` — execution options, mirroring
//!   [`ExecOptions`] field-for-field; [`options_from_json`] is the one
//!   conversion point.
//! * `check` — when `true`, the server re-runs the query through the
//!   generic interpreter on the same snapshot the engine executed
//!   against and reports whether the fingerprints agree.
//!
//! Responses are `{"id":...,"ok":{...}}` or
//! `{"id":...,"err":{"kind":"...","msg":"..."}}`, where `msg` reuses
//! the rendered-message taxonomy of the layers below verbatim.

use crate::error::ServerError;
use h2o_core::{ExecOptions, Request};
use h2o_expr::wire::datum_from_json;
use h2o_expr::{join_from_json, query_from_json, Datum, JoinQuery, Json, Query, Side, WireError};
use h2o_storage::Schema;
use std::sync::Arc;
use std::time::Duration;

/// Decodes an `"opts"` object onto [`ExecOptions`] — the single
/// protocol↔engine conversion. Fields map 1:1:
///
/// | wire            | option                       |
/// |-----------------|------------------------------|
/// | `"hint"`        | [`ExecOptions::hint`]        |
/// | `"deadline_ms"` | [`ExecOptions::deadline`]    |
/// | `"budget"`      | [`ExecOptions::budget`]      |
/// | `"build_side"`  | [`ExecOptions::build_side`]  |
///
/// Unset fields stay unset: the server adds no deadline or budget of its
/// own. (Cancellation tokens are process-local by nature and have no
/// wire form; a client cancels by closing its connection or bounding the
/// query with a deadline/budget.)
pub fn options_from_json(j: &Json) -> Result<ExecOptions, WireError> {
    let mut opts = ExecOptions::new();
    if j.is_null() {
        return Ok(opts);
    }
    let hint = j.get("hint");
    if !hint.is_null() {
        opts = opts.hint(hint.num("\"opts.hint\"")?);
    }
    let deadline = j.get("deadline_ms");
    if !deadline.is_null() {
        let ms = deadline.int("\"opts.deadline_ms\"")?;
        if ms < 0 {
            return Err(WireError::Shape(
                "\"opts.deadline_ms\" must be non-negative".to_string(),
            ));
        }
        opts = opts.deadline(Duration::from_millis(ms as u64));
    }
    let budget = j.get("budget");
    if !budget.is_null() {
        let units = budget.int("\"opts.budget\"")?;
        if units < 0 {
            return Err(WireError::Shape(
                "\"opts.budget\" must be non-negative".to_string(),
            ));
        }
        opts = opts.budget(units as u64);
    }
    let side = j.get("build_side");
    if !side.is_null() {
        let side = match side.str("\"opts.build_side\"")? {
            "left" => Side::Left,
            "right" => Side::Right,
            other => {
                return Err(WireError::Shape(format!(
                    "\"opts.build_side\" must be \"left\" or \"right\", got \"{other}\""
                )))
            }
        };
        opts = opts.build_side(side);
    }
    Ok(opts)
}

/// What a request asks the engine to answer.
#[derive(Debug)]
pub enum Statement {
    /// A single-relation query against the primary relation.
    Query(Query),
    /// A two-relation hash join.
    Join(Box<JoinQuery>),
}

impl Statement {
    /// The engine request for this statement under `opts`.
    pub fn request(&self, opts: ExecOptions) -> Request<'_> {
        match self {
            Statement::Query(q) => Request::query(q),
            Statement::Join(q) => Request::join(q),
        }
        .with_options(opts)
    }
}

/// A decoded request line, ready for the session loop to execute.
#[derive(Debug)]
pub enum WireRequest {
    /// Liveness probe; answered without taking an admission slot.
    Ping,
    /// Engine + server counter snapshot; answered without taking an
    /// admission slot.
    Stats,
    /// A one-shot `"query"` or `"join"`.
    Run {
        stmt: Statement,
        opts: ExecOptions,
        check: bool,
    },
    /// Cache a single-relation statement under `name` for this session.
    Prepare { name: String, q: Query },
    /// Execute a prepared statement, rebinding its filter constants to
    /// `params` (positional, one per predicate in preparation order).
    Exec {
        name: String,
        params: Vec<Datum>,
        opts: ExecOptions,
        check: bool,
    },
}

/// Decodes one parsed request line. `primary` is the primary relation's
/// schema (for `"query"`/`"prepare"`); `resolve` maps relation names to
/// schemas (for `"join"`).
pub fn request_from_json(
    j: &Json,
    primary: &Schema,
    resolve: &dyn Fn(&str) -> Option<Arc<Schema>>,
) -> Result<WireRequest, ServerError> {
    let kind = j.get("kind").str("\"kind\"").map_err(ServerError::Wire)?;
    let check = {
        let c = j.get("check");
        if c.is_null() {
            false
        } else {
            c.bool("\"check\"").map_err(ServerError::Wire)?
        }
    };
    let run = |stmt| {
        let opts = options_from_json(j.get("opts"))?;
        Ok(WireRequest::Run { stmt, opts, check })
    };
    match kind {
        "ping" => Ok(WireRequest::Ping),
        "stats" => Ok(WireRequest::Stats),
        "query" => run(Statement::Query(query_from_json(j.get("q"), primary)?)),
        "join" => run(Statement::Join(Box::new(join_from_json(
            j.get("q"),
            resolve,
        )?))),
        "prepare" => {
            let name = j.get("name").str("\"name\"").map_err(ServerError::Wire)?;
            let doc = j.get("q");
            if !doc.get("on").is_null() || !doc.get("left").is_null() {
                return Err(ServerError::Unsupported(
                    "join queries cannot be prepared; send them as kind \"join\"",
                ));
            }
            let q = query_from_json(doc, primary)?;
            Ok(WireRequest::Prepare {
                name: name.to_string(),
                q,
            })
        }
        "exec" => {
            let name = j.get("name").str("\"name\"").map_err(ServerError::Wire)?;
            let params = j
                .get("params")
                .arr("\"params\"")
                .map_err(ServerError::Wire)?
                .iter()
                .map(|p| datum_from_json(p, "\"params\" entry"))
                .collect::<Result<Vec<Datum>, WireError>>()?;
            let opts = options_from_json(j.get("opts"))?;
            Ok(WireRequest::Exec {
                name: name.to_string(),
                params,
                opts,
                check,
            })
        }
        other => Err(ServerError::Wire(WireError::Shape(format!(
            "\"kind\" must be one of \"query\", \"join\", \"prepare\", \"exec\", \"ping\", \"stats\"; got \"{other}\""
        )))),
    }
}

/// Renders an `"ok"` response line (no trailing newline). `checked` is
/// `Some(matched)` when the request asked for an interpreter check.
pub fn ok_line(id: &Json, body: Json, checked: Option<bool>) -> String {
    let mut fields = vec![("id".to_string(), id.clone()), ("ok".to_string(), body)];
    if let Some(matched) = checked {
        fields.push(("checked".to_string(), Json::Bool(true)));
        fields.push(("match".to_string(), Json::Bool(matched)));
    }
    let mut out = String::new();
    Json::Obj(fields).write(&mut out);
    out
}

/// Renders an `"err"` response line (no trailing newline) from the
/// typed error's `kind` discriminant and rendered message.
pub fn err_line(id: &Json, err: &ServerError) -> String {
    let body = Json::Obj(vec![
        ("kind".to_string(), Json::Str(err.kind().to_string())),
        ("msg".to_string(), Json::Str(err.to_string())),
    ]);
    let mut out = String::new();
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("err".to_string(), body),
    ])
    .write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_storage::{LogicalType, Schema};

    fn schema() -> Schema {
        Schema::typed([
            ("id", LogicalType::I64),
            ("mag", LogicalType::I64),
            ("ra", LogicalType::F64),
        ])
    }

    fn parse(line: &str) -> Result<WireRequest, ServerError> {
        let j = Json::parse(line).map_err(ServerError::Wire)?;
        request_from_json(&j, &schema(), &|_| None)
    }

    #[test]
    fn unknown_kind_renders_a_stable_shape_error() {
        let err = parse(r#"{"id":1,"kind":"drop"}"#).unwrap_err();
        assert_eq!(err.kind(), "malformed");
        assert_eq!(
            err.to_string(),
            "malformed request: \"kind\" must be one of \"query\", \"join\", \"prepare\", \
             \"exec\", \"ping\", \"stats\"; got \"drop\""
        );
    }

    #[test]
    fn options_validate_their_fields() {
        let bad_deadline = options_from_json(&Json::parse(r#"{"deadline_ms":-5}"#).unwrap());
        assert_eq!(
            bad_deadline.unwrap_err().to_string(),
            "malformed request: \"opts.deadline_ms\" must be non-negative"
        );
        let bad_side = options_from_json(&Json::parse(r#"{"build_side":"up"}"#).unwrap());
        assert_eq!(
            bad_side.unwrap_err().to_string(),
            "malformed request: \"opts.build_side\" must be \"left\" or \"right\", got \"up\""
        );
        let all = options_from_json(
            &Json::parse(r#"{"hint":0.25,"deadline_ms":40,"budget":8,"build_side":"right"}"#)
                .unwrap(),
        )
        .unwrap();
        let all = format!("{all:?}");
        for field in ["Some(0.25)", "Some(40ms)", "Some(8)", "Some(Right)"] {
            assert!(all.contains(field), "{field} missing from {all}");
        }
    }

    #[test]
    fn prepare_rejects_join_documents() {
        let err = parse(
            r#"{"id":1,"kind":"prepare","name":"j","q":{"left":"R","right":"S","on":[["id","id"]],"select":[{"lcol":"id"}]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        assert_eq!(
            err.to_string(),
            "unsupported request: join queries cannot be prepared; send them as kind \"join\""
        );
    }

    #[test]
    fn query_requests_decode_with_check_flag() {
        let req = parse(
            r#"{"id":7,"kind":"query","q":{"select":[{"col":"id"}],"where":[{"col":"mag","op":"<","value":10}]},"check":true}"#,
        )
        .unwrap();
        match req {
            WireRequest::Run {
                stmt: Statement::Query(q),
                check,
                ..
            } => {
                assert!(check);
                assert_eq!(q.projections().len(), 1);
            }
            _ => panic!("expected a query request"),
        }
    }

    #[test]
    fn response_lines_render_canonically() {
        let ok = ok_line(&Json::Int(3), Json::Bool(true), Some(true));
        assert_eq!(ok, r#"{"id":3,"ok":true,"checked":true,"match":true}"#);
        let err = err_line(
            &Json::Null,
            &ServerError::Wire(WireError::Syntax {
                offset: 0,
                msg: "expected a value".to_string(),
            }),
        );
        assert_eq!(
            err,
            r#"{"id":null,"err":{"kind":"malformed","msg":"malformed json at byte 0: expected a value"}}"#
        );
    }
}
