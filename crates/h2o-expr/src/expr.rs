//! Arithmetic expressions over attributes.

use crate::datum::Datum;
use crate::query::QueryError;
use h2o_storage::{f64_lane, lane_f64, AttrId, AttrSet, LogicalType, Value};
use std::fmt;

/// A binary arithmetic operator. Integer arithmetic is wrapping and `f64`
/// arithmetic is IEEE-754 in evaluation order, so every execution strategy
/// in the engine agrees bit-for-bit (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
}

impl ArithOp {
    /// Applies the operator on `i64` lanes (wrapping).
    #[inline]
    pub fn apply(self, l: Value, r: Value) -> Value {
        match self {
            ArithOp::Add => l.wrapping_add(r),
            ArithOp::Sub => l.wrapping_sub(r),
            ArithOp::Mul => l.wrapping_mul(r),
        }
    }

    /// Applies the operator on `f64` lanes (bit patterns in, bit pattern
    /// out).
    #[inline]
    pub fn apply_f64(self, l: Value, r: Value) -> Value {
        let (l, r) = (lane_f64(l), lane_f64(r));
        f64_lane(match self {
            ArithOp::Add => l + r,
            ArithOp::Sub => l - r,
            ArithOp::Mul => l * r,
        })
    }

    /// Applies the operator on lanes of numeric type `ty`. Cross-type
    /// arithmetic is rejected at plan time, so an expression has one
    /// uniform numeric type and the dispatch hoists out of inner loops.
    #[inline]
    pub fn apply_lane(self, ty: LogicalType, l: Value, r: Value) -> Value {
        match ty {
            LogicalType::F64 => self.apply_f64(l, r),
            _ => self.apply(l, r),
        }
    }

    /// The SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
        }
    }
}

/// An arithmetic expression tree, e.g. `a + b + c` from the paper's query
/// `Q1: select a+b+c from R where d<v1 and e>v2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A reference to an attribute of the relation.
    Col(AttrId),
    /// A typed constant.
    Const(Datum),
    /// A binary operation.
    Binary {
        op: ArithOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col<A: Into<AttrId>>(a: A) -> Expr {
        Expr::Col(a.into())
    }

    /// Shorthand for a constant (`i64`, `f64` or string — see [`Datum`]).
    pub fn lit<D: Into<Datum>>(v: D) -> Expr {
        Expr::Const(v.into())
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder by design
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary {
            op: ArithOp::Add,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder by design
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary {
            op: ArithOp::Sub,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)] // fluent builder by design
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary {
            op: ArithOp::Mul,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// The left-deep sum `a0 + a1 + ... + ak` — the paper's template (iii)
    /// "select a + b + ... from R".
    pub fn sum_of<I: IntoIterator<Item = AttrId>>(attrs: I) -> Expr {
        let mut it = attrs.into_iter();
        let first = Expr::Col(it.next().expect("sum_of requires at least one attribute"));
        it.fold(first, |acc, a| acc.add(Expr::Col(a)))
    }

    /// Collects the attributes referenced by the expression into `out`.
    pub fn collect_attrs(&self, out: &mut AttrSet) {
        match self {
            Expr::Col(a) => {
                out.insert(*a);
            }
            Expr::Const(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_attrs(out);
                rhs.collect_attrs(out);
            }
        }
    }

    /// The attributes referenced by the expression.
    pub fn attrs(&self) -> AttrSet {
        let mut s = AttrSet::new();
        self.collect_attrs(&mut s);
        s
    }

    /// Number of nodes in the tree (a proxy for interpretation overhead;
    /// used by the cost model's CPU term).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Col(_) | Expr::Const(_) => 1,
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.node_count() + rhs.node_count(),
        }
    }

    /// Evaluates the expression over **`i64` lanes** with attribute values
    /// supplied by `fetch` — shorthand for
    /// [`eval_lane`](Self::eval_lane)`(LogicalType::I64, fetch)`, the
    /// correct evaluator for the all-integer relations of the paper's
    /// evaluation. Typed callers (the interpreter) resolve the
    /// expression's type first and use [`Self::eval_lane`].
    pub fn eval<F: Fn(AttrId) -> Value + Copy>(&self, fetch: F) -> Value {
        self.eval_lane(LogicalType::I64, fetch)
    }

    /// Evaluates the expression over lane words of the (uniform, already
    /// type-checked) numeric type `ty`. This *is* the interpretation
    /// overhead the paper's generated code removes: one virtual walk of
    /// the tree per tuple.
    pub fn eval_lane<F: Fn(AttrId) -> Value + Copy>(&self, ty: LogicalType, fetch: F) -> Value {
        match self {
            Expr::Col(a) => fetch(*a),
            Expr::Const(d) => d.numeric_lane(),
            Expr::Binary { op, lhs, rhs } => {
                op.apply_lane(ty, lhs.eval_lane(ty, fetch), rhs.eval_lane(ty, fetch))
            }
        }
    }

    /// Infers the expression's [`LogicalType`] given per-attribute types,
    /// rejecting everything the engine's strict typing forbids: cross-type
    /// arithmetic (there are no implicit coercions), arithmetic over
    /// dictionary-encoded attributes, and string literals outside
    /// predicates. A pure-constant expression types as its constants.
    pub fn type_of<F>(&self, ty_of: &F) -> Result<LogicalType, QueryError>
    where
        F: Fn(AttrId) -> Result<LogicalType, QueryError>,
    {
        match self {
            Expr::Col(a) => ty_of(*a),
            Expr::Const(d) => match d {
                Datum::Str(_) => Err(QueryError::TypeMismatch(format!(
                    "string literal {d} is only allowed as a predicate constant"
                ))),
                _ => Ok(d.logical()),
            },
            Expr::Binary { op, lhs, rhs } => {
                let lt = lhs.type_of(ty_of)?;
                let rt = rhs.type_of(ty_of)?;
                if lt != rt {
                    return Err(QueryError::TypeMismatch(format!(
                        "arithmetic ({lhs} {} {rhs}) mixes {} and {} operands \
                         (the engine has no implicit casts)",
                        op.symbol(),
                        lt.name(),
                        rt.name()
                    )));
                }
                if !lt.is_numeric() {
                    return Err(QueryError::TypeMismatch(format!(
                        "arithmetic ({lhs} {} {rhs}) over dictionary-encoded \
                         operands is undefined",
                        op.symbol()
                    )));
                }
                Ok(lt)
            }
        }
    }

    /// Whether the expression is a bare column reference.
    pub fn as_col(&self) -> Option<AttrId> {
        match self {
            Expr::Col(a) => Some(*a),
            _ => None,
        }
    }

    /// Whether the expression is a left-deep sum of columns
    /// (`((a + b) + ...) + k`, every right operand a bare column). The
    /// specialized kernels fast-path this shape, mirroring the paper's
    /// generated code for Q1 (Figs. 5–6), and add the columns left to
    /// right — the interpreter's order for this tree alone, which matters
    /// for `F64` sums. Returns the columns in order if so.
    pub fn as_column_sum(&self) -> Option<Vec<AttrId>> {
        fn walk(e: &Expr, out: &mut Vec<AttrId>) -> bool {
            match e {
                Expr::Col(a) => {
                    out.push(*a);
                    true
                }
                Expr::Binary {
                    op: ArithOp::Add,
                    lhs,
                    rhs,
                } => match rhs.as_col() {
                    Some(a) => {
                        let ok = walk(lhs, out);
                        out.push(a);
                        ok
                    }
                    None => false,
                },
                _ => false,
            }
        }
        let mut cols = Vec::new();
        if walk(self, &mut cols) {
            Some(cols)
        } else {
            None
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(a) => write!(f, "{a}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arith_ops_wrap() {
        assert_eq!(ArithOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(ArithOp::Sub.apply(i64::MIN, 1), i64::MAX);
        assert_eq!(ArithOp::Mul.apply(3, 4), 12);
    }

    #[test]
    fn eval_walks_tree() {
        // (a0 + a1) * 2 - a2
        let e = Expr::col(0u32)
            .add(Expr::col(1u32))
            .mul(Expr::lit(2))
            .sub(Expr::col(2u32));
        let vals = [5, 7, 3];
        let got = e.eval(|a| vals[a.index()]);
        assert_eq!(got, (5 + 7) * 2 - 3);
    }

    #[test]
    fn attrs_collected() {
        let e = Expr::col(3u32).add(Expr::col(9u32).mul(Expr::lit(2)));
        let attrs = e.attrs();
        assert_eq!(attrs.len(), 2);
        assert!(attrs.contains(AttrId(3)));
        assert!(attrs.contains(AttrId(9)));
        assert_eq!(e.node_count(), 5);
    }

    #[test]
    fn sum_of_builds_left_deep_chain() {
        let e = Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(e.eval(|a| a.index() as i64 + 1), 6);
        assert_eq!(
            e.as_column_sum().unwrap(),
            vec![AttrId(0), AttrId(1), AttrId(2)]
        );
        assert_eq!(format!("{e}"), "((a0 + a1) + a2)");
    }

    #[test]
    fn column_sum_detection_rejects_other_shapes() {
        assert!(Expr::col(0u32)
            .mul(Expr::col(1u32))
            .as_column_sum()
            .is_none());
        assert!(Expr::col(0u32).add(Expr::lit(1)).as_column_sum().is_none());
        assert_eq!(Expr::col(4u32).as_column_sum().unwrap(), vec![AttrId(4)]);
        // A right-nested sum adds in another order: not a column sum.
        let right_nested = Expr::col(0u32).add(Expr::col(1u32).add(Expr::col(2u32)));
        assert!(right_nested.as_column_sum().is_none());
        let mixed = Expr::col(0u32)
            .add(Expr::col(1u32))
            .add(Expr::col(2u32).add(Expr::col(3u32)));
        assert!(mixed.as_column_sum().is_none());
    }

    #[test]
    fn as_col() {
        assert_eq!(Expr::col(2u32).as_col(), Some(AttrId(2)));
        assert_eq!(Expr::lit(1).as_col(), None);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn sum_of_empty_panics() {
        Expr::sum_of(Vec::<AttrId>::new());
    }
}
