//! Compiled expressions: the "generated code" for select-items.
//!
//! At operator-generation time every select expression is lowered into a
//! [`CompiledExpr`]. The common shapes of the paper's templates get
//! dedicated variants whose per-tuple evaluation is a straight-line loop —
//! the Rust equivalent of `ptr[0] + ptr[1] + ptr[2]` in the paper's
//! generated code (Fig. 5 line 11):
//!
//! * [`CompiledExpr::Col`] — a bare projection,
//! * [`CompiledExpr::SumCols`] / [`CompiledExpr::SumColsF`] — `a + b + ...`
//!   (templates i/iii) over `i64` / `f64` lanes,
//! * [`CompiledExpr::Program`] — arbitrary expressions, flattened into a
//!   postfix opcode sequence evaluated on a small stack: no tree walk, no
//!   recursion, but still general.
//!
//! Types are **baked in at lowering time** ([`CompiledExpr::lower_typed`]):
//! an `f64` expression compiles into `SumColsF` / [`OpCode::ArithF`]
//! opcodes and constants are resolved to lane words, so per-tuple
//! evaluation never consults a type. (Cross-type expressions are rejected
//! at plan time, so each compiled expression has one uniform numeric
//! type.)

use crate::bind::BoundAttr;
use h2o_expr::{ArithOp, Expr};
use h2o_storage::{f64_lane, lane_f64, LogicalType, Value};
use std::ops::Range;

/// A postfix opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// Push the lane of a bound attribute.
    Load(BoundAttr),
    /// Push a constant lane.
    Const(Value),
    /// Pop two, apply as wrapping `i64`, push.
    Arith(ArithOp),
    /// Pop two, apply as IEEE-754 `f64` (lanes are bit patterns), push.
    ArithF(ArithOp),
}

impl OpCode {
    #[inline(always)]
    fn apply_arith(self, l: Value, r: Value) -> Value {
        match self {
            OpCode::Arith(o) => o.apply(l, r),
            OpCode::ArithF(o) => o.apply_f64(l, r),
            _ => unreachable!("not an arithmetic opcode"),
        }
    }
}

/// A compiled select expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledExpr {
    /// A single attribute (any type — a bare load).
    Col(BoundAttr),
    /// A left-deep wrapping `i64` sum of attributes.
    SumCols(Vec<BoundAttr>),
    /// A left-deep `f64` sum of attributes (lanes are bit patterns;
    /// addition folds left-to-right from the first attribute, the
    /// engine's ordered-sum convention).
    SumColsF(Vec<BoundAttr>),
    /// General postfix program with its required stack depth.
    Program { ops: Vec<OpCode>, stack: usize },
}

impl CompiledExpr {
    /// Lowers `expr` as an **`i64`** expression, resolving attributes
    /// through `bind` — the paper's all-integer setting; typed callers use
    /// [`Self::lower_typed`].
    pub fn lower<F: FnMut(h2o_storage::AttrId) -> BoundAttr>(expr: &Expr, bind: F) -> CompiledExpr {
        Self::lower_typed(expr, LogicalType::I64, bind)
    }

    /// Lowers `expr` of (checked, uniform) type `ty`, baking the typed
    /// arithmetic into the generated program: `F64` expressions get
    /// [`CompiledExpr::SumColsF`] / [`OpCode::ArithF`] forms; constants
    /// are resolved to lane words. `Dict`-typed expressions are bare
    /// columns by construction (the checker rejects anything else) and
    /// lower to [`CompiledExpr::Col`].
    pub fn lower_typed<F: FnMut(h2o_storage::AttrId) -> BoundAttr>(
        expr: &Expr,
        ty: LogicalType,
        mut bind: F,
    ) -> CompiledExpr {
        if let Some(a) = expr.as_col() {
            return CompiledExpr::Col(bind(a));
        }
        if let Some(cols) = expr.as_column_sum() {
            let bound = cols.into_iter().map(bind).collect();
            return match ty {
                LogicalType::F64 => CompiledExpr::SumColsF(bound),
                _ => CompiledExpr::SumCols(bound),
            };
        }
        let mut ops = Vec::with_capacity(expr.node_count());
        fn emit<F: FnMut(h2o_storage::AttrId) -> BoundAttr>(
            e: &Expr,
            ty: LogicalType,
            ops: &mut Vec<OpCode>,
            bind: &mut F,
        ) {
            match e {
                Expr::Col(a) => ops.push(OpCode::Load(bind(*a))),
                Expr::Const(d) => ops.push(OpCode::Const(d.numeric_lane())),
                Expr::Binary { op, lhs, rhs } => {
                    emit(lhs, ty, ops, bind);
                    emit(rhs, ty, ops, bind);
                    ops.push(match ty {
                        LogicalType::F64 => OpCode::ArithF(*op),
                        _ => OpCode::Arith(*op),
                    });
                }
            }
        }
        emit(expr, ty, &mut ops, &mut bind);
        // Stack depth: +1 per push, -1 per arith (pops 2, pushes 1).
        let mut depth = 0usize;
        let mut max = 0usize;
        for op in &ops {
            match op {
                OpCode::Load(_) | OpCode::Const(_) => {
                    depth += 1;
                    max = max.max(depth);
                }
                OpCode::Arith(_) | OpCode::ArithF(_) => depth -= 1,
            }
        }
        CompiledExpr::Program { ops, stack: max }
    }

    /// The plan slots the expression reads, one per lane it loads.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        let (cols, ops): (&[BoundAttr], &[OpCode]) = match self {
            CompiledExpr::Col(a) => (std::slice::from_ref(a), &[]),
            CompiledExpr::SumCols(cols) | CompiledExpr::SumColsF(cols) => (cols, &[]),
            CompiledExpr::Program { ops, .. } => (&[], ops),
        };
        let loads = ops.iter().filter_map(|op| match op {
            OpCode::Load(a) => Some(a),
            _ => None,
        });
        cols.iter().chain(loads).map(|a| a.slot)
    }

    /// Evaluates the expression for one row, whose lanes `get` fetches
    /// by bound attribute (the idiom of [`h2o_expr::Expr::eval`]); a batch
    /// of rows evaluates through `eval_batch`.
    #[inline(always)]
    pub fn eval(&self, get: impl Fn(BoundAttr) -> Value) -> Value {
        match self {
            CompiledExpr::Col(a) => get(*a),
            CompiledExpr::SumCols(cols) => {
                let mut acc: Value = 0;
                for &c in cols {
                    acc = acc.wrapping_add(get(c));
                }
                acc
            }
            CompiledExpr::SumColsF(cols) => {
                // From the first column, as the interpreter adds: a sum of
                // `-0.0`s is `-0.0`, which `0.0 + -0.0` is not.
                let mut acc = lane_f64(get(cols[0]));
                for &c in &cols[1..] {
                    acc += lane_f64(get(c));
                }
                f64_lane(acc)
            }
            CompiledExpr::Program { ops, stack } => {
                // Small fixed stack; expressions in the evaluation never
                // exceed a handful of operands, but fall back to the heap
                // safely if they do.
                let mut buf = [0 as Value; 16];
                if *stack <= buf.len() {
                    eval_program(ops, get, &mut buf)
                } else {
                    let mut heap = vec![0 as Value; *stack];
                    eval_program(ops, get, &mut heap)
                }
            }
        }
    }
}

/// Where a batch evaluation puts lane `i` of `exprs[j]` in its `out`: one
/// row after another (the output block of a projection, a grouped block's
/// key lanes) or one column after another (aggregate inputs, each folded
/// down its column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `out[i * exprs.len() + j]`.
    Rows,
    /// `out[j * stride + i]`, `stride = out.len() / exprs.len()`: at
    /// least the batch's rows, and more where columns are padded apart.
    Columns,
}

/// Evaluates `exprs` over the rows `rows` of a batch into `out`, laid out
/// by `layout`. `row(i)` is the source's fetch of row `i`'s lanes — a
/// tuple of a scan's block, a joined pair's lanes
/// from their two sides, a build row of the join's payload — made once
/// per row, so a row's tuple is located once for all its lanes. One
/// expression is evaluated a column at a time (a bare column is one
/// gather loop), several a row at a time, so a wide batch reads each
/// tuple once.
#[inline]
pub(crate) fn eval_batch<F: Fn(BoundAttr) -> Value>(
    exprs: &[&CompiledExpr],
    out: &mut [Value],
    layout: Layout,
    rows: Range<usize>,
    row: impl Fn(usize) -> F,
) {
    let (k, slice) = (exprs.len(), rows.clone());
    match exprs {
        [] => return,
        [CompiledExpr::Col(a)] => {
            let out = out[slice].iter_mut().zip(rows);
            return out.for_each(|(o, i)| *o = row(i)(*a));
        }
        [e] => {
            return out[slice]
                .iter_mut()
                .zip(rows)
                .for_each(|(o, i)| *o = e.eval(row(i)))
        }
        _ => {}
    }
    let stride = out.len() / k;
    // Bare columns skip the per-lane expression dispatch.
    let cols: Option<Vec<BoundAttr>> = exprs
        .iter()
        .map(|e| match e {
            CompiledExpr::Col(a) => Some(*a),
            _ => None,
        })
        .collect();
    match (layout, cols) {
        (Layout::Rows, Some(cols)) => {
            for (i, o) in out
                .chunks_exact_mut(k)
                .enumerate()
                .take(rows.end)
                .skip(rows.start)
            {
                let get = row(i);
                o.iter_mut().zip(&cols).for_each(|(o, &a)| *o = get(a));
            }
        }
        (Layout::Rows, None) => {
            for (i, o) in out
                .chunks_exact_mut(k)
                .enumerate()
                .take(rows.end)
                .skip(rows.start)
            {
                let get = row(i);
                o.iter_mut().zip(exprs).for_each(|(o, e)| *o = e.eval(&get));
            }
        }
        (Layout::Columns, Some(cols)) => {
            for i in rows {
                let get = row(i);
                for (col, &a) in out.chunks_exact_mut(stride).zip(&cols) {
                    col[i] = get(a);
                }
            }
        }
        (Layout::Columns, None) => {
            for i in rows {
                let get = row(i);
                for (col, e) in out.chunks_exact_mut(stride).zip(exprs) {
                    col[i] = e.eval(&get);
                }
            }
        }
    }
}

#[inline]
fn eval_program(ops: &[OpCode], get: impl Fn(BoundAttr) -> Value, stack: &mut [Value]) -> Value {
    let mut sp = 0usize;
    for op in ops {
        match op {
            OpCode::Load(a) => {
                stack[sp] = get(*a);
                sp += 1;
            }
            OpCode::Const(v) => {
                stack[sp] = *v;
                sp += 1;
            }
            op @ (OpCode::Arith(_) | OpCode::ArithF(_)) => {
                let r = stack[sp - 1];
                let l = stack[sp - 2];
                stack[sp - 2] = op.apply_arith(l, r);
                sp -= 1;
            }
        }
    }
    debug_assert_eq!(sp, 1);
    stack[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::GroupViews;
    use h2o_storage::{AttrId, ColumnGroup};

    fn one_group_views(cols: &[&[Value]]) -> h2o_storage::ColumnGroup {
        let attrs: Vec<AttrId> = (0..cols.len()).map(AttrId::from).collect();
        ColumnGroup::from_columns(attrs, cols).unwrap()
    }

    fn direct_bind(a: h2o_storage::AttrId) -> BoundAttr {
        BoundAttr {
            slot: 0,
            offset: a.index() as u32,
        }
    }

    #[test]
    fn lower_picks_fast_variants() {
        let c = CompiledExpr::lower(&Expr::col(2u32), direct_bind);
        assert!(matches!(c, CompiledExpr::Col(_)));
        let s = CompiledExpr::lower(&Expr::sum_of([AttrId(0), AttrId(1)]), direct_bind);
        assert!(matches!(s, CompiledExpr::SumCols(_)));
        let p = CompiledExpr::lower(&Expr::col(0u32).mul(Expr::lit(3)), direct_bind);
        assert!(matches!(p, CompiledExpr::Program { .. }));
    }

    /// `Expr::sum_of` (the paper's template (iii), `scan_steady`'s
    /// `expr_1pct`) builds a left-deep chain and lowers to the column-sum
    /// forms; a right-nested sum adds in another order and lowers to a
    /// program, which evaluates its tree as written.
    #[test]
    fn only_left_deep_sums_lower_to_column_sums() {
        let chain = Expr::sum_of([AttrId(2), AttrId(3), AttrId(4)]);
        let want = [2u32, 3, 4].map(|a| direct_bind(AttrId(a))).to_vec();
        match CompiledExpr::lower(&chain, direct_bind) {
            CompiledExpr::SumCols(cols) => assert_eq!(cols, want),
            other => panic!("sum_of lowered to {other:?}"),
        }
        match CompiledExpr::lower_typed(&chain, LogicalType::F64, direct_bind) {
            CompiledExpr::SumColsF(cols) => assert_eq!(cols, want),
            other => panic!("F64 sum_of lowered to {other:?}"),
        }
        let right_nested = Expr::col(2u32).add(Expr::col(3u32).add(Expr::col(4u32)));
        for ty in [LogicalType::I64, LogicalType::F64] {
            let p = CompiledExpr::lower_typed(&right_nested, ty, direct_bind);
            assert!(matches!(p, CompiledExpr::Program { .. }), "{ty:?}");
        }
    }

    #[test]
    fn eval_matches_interpreter_for_all_variants() {
        let g = one_group_views(&[&[5, -2], &[7, 11], &[1, 100]]);
        let views = GroupViews::from_groups(&[&g]);
        let exprs = [
            Expr::col(1u32),
            Expr::sum_of([AttrId(0), AttrId(1), AttrId(2)]),
            Expr::col(0u32).mul(Expr::col(1u32)).sub(Expr::lit(4)),
            Expr::col(2u32)
                .add(Expr::col(0u32).mul(Expr::col(1u32)))
                .mul(Expr::col(2u32).sub(Expr::lit(1))),
        ];
        for expr in &exprs {
            let compiled = CompiledExpr::lower(expr, direct_bind);
            for row in 0..2 {
                let want = expr.eval(|a| g.value(row, a.index()));
                assert_eq!(
                    compiled.eval(|a| views.get(a, row)),
                    want,
                    "{expr} row {row}"
                );
            }
        }
    }

    #[test]
    fn stack_depth_computed() {
        // (a0 + (a1 * (a2 + a0))): postfix loads a0,a1,a2,a0 before the
        // first reduction, so the peak stack depth is 4.
        let e = Expr::col(0u32).add(Expr::col(1u32).mul(Expr::col(2u32).add(Expr::col(0u32))));
        if let CompiledExpr::Program { stack, .. } = CompiledExpr::lower(&e, direct_bind) {
            assert_eq!(stack, 4);
        } else {
            panic!("expected Program");
        }
    }

    #[test]
    fn deep_expression_uses_heap_stack() {
        // Build a right-deep chain of adds 20 deep: a0 + (a0 + (...)).
        let mut e = Expr::col(0u32);
        for _ in 0..20 {
            e = Expr::Binary {
                op: ArithOp::Add,
                lhs: Box::new(Expr::col(0u32)),
                rhs: Box::new(e.mul(Expr::lit(1))), // mul blocks SumCols detection
            };
        }
        let g = one_group_views(&[&[1, 2]]);
        let views = GroupViews::from_groups(&[&g]);
        let c = CompiledExpr::lower(&e, direct_bind);
        let want = e.eval(|_| 2);
        assert_eq!(c.eval(|a| views.get(a, 1)), want);
    }
}
