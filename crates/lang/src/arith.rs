//! SMPL arithmetic: what a run computes for every operator and intrinsic.
//!
//! The interpreter evaluates expressions with these functions, and every
//! analysis that folds a constant folds it with [`fold`], so a constant an
//! analysis claims is the value a run computes. Every number is an `f64` at
//! run time, whatever its declared type:
//!
//! * `int` does not truncate: `7 / 2` is 3.5;
//! * `x / 0` is 0;
//! * `exp` clamps its argument at 50, `log` takes `ln max(|x|, 1e-12)` and
//!   `sqrt` takes `sqrt |x|`;
//! * `mod(x, m)` truncates both operands to integers ([`to_int`]) and takes
//!   the Euclidean remainder; `m` truncating to 0 fails the rank, and
//!   `mod(i64::MIN, -1)` is 0;
//! * comparisons and `!`, `&&`, `||` give 1 or 0, and any nonzero value is
//!   true;
//! * a rank, tag, communicator or subscript is the value converted by
//!   [`to_int`], which truncates toward zero and saturates (NaN is 0).

use crate::ast::{BinOp, Expr, ExprKind, Intrinsic, LValue, UnOp};
use mpi_dfa_core::lattice::ConstLattice;
use std::fmt;

/// A number as a run holds it, compared as a constant rather than by IEEE
/// rules: every NaN equals every NaN (a `Const(NaN)` that never equalled
/// itself would count as changed on every pass, so a solve holding it could
/// never reach its fixpoint), and `0.0 == -0.0`.
#[derive(Debug, Clone, Copy)]
pub struct Value(pub f64);

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 || (self.0.is_nan() && other.0.is_nan())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The truth value a condition, `!`, `&&` or `||` gives.
#[inline]
fn truth(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[inline]
pub fn unary(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Not => truth(x == 0.0),
    }
}

#[inline]
pub fn binary(op: BinOp, x: f64, y: f64) -> f64 {
    use BinOp::*;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        // Benign: the benchmarks guard their real divisions.
        Div if y == 0.0 => 0.0,
        Div => x / y,
        Eq => truth(x == y),
        Ne => truth(x != y),
        Lt => truth(x < y),
        Le => truth(x <= y),
        Gt => truth(x > y),
        Ge => truth(x >= y),
        And => truth(x != 0.0 && y != 0.0),
        Or => truth(x != 0.0 || y != 0.0),
    }
}

/// `i` applied to `x` (and `y` for the two-argument intrinsics), or `None`
/// where the run fails the rank instead: `mod` by a divisor that truncates
/// to 0.
#[inline]
pub fn intrinsic(i: Intrinsic, x: f64, y: f64) -> Option<f64> {
    Some(match i {
        Intrinsic::Sqrt => x.abs().sqrt(),
        Intrinsic::Exp => x.min(50.0).exp(),
        Intrinsic::Log => x.abs().max(1e-12).ln(),
        Intrinsic::Sin => x.sin(),
        Intrinsic::Cos => x.cos(),
        Intrinsic::Abs => x.abs(),
        Intrinsic::Max => x.max(y),
        Intrinsic::Min => x.min(y),
        Intrinsic::Mod => match to_int(y) {
            0 => return None,
            m => to_int(x).wrapping_rem_euclid(m) as f64,
        },
    })
}

/// The integer a run makes of `x` for a rank, tag, communicator, subscript
/// or `mod` operand: truncated toward zero, saturated at the `i64` range,
/// NaN as 0.
#[inline]
pub fn to_int(x: f64) -> i64 {
    x as i64
}

/// Fold `e` to the constant a run computes for it, reading each `Var` leaf
/// through `leaf`, which is called once per leaf in evaluation order, every
/// operand folded. Subscripts are not evaluated; an element reads as its
/// array does.
///
/// The result is ⊥ when an operand is ⊥ or not constant by nature
/// (`rank()`, `nprocs()`, `ANY`) or when the run would fail the rank (see
/// [`intrinsic`]), and ⊤ only when no operand is ⊥ and some operand is ⊤.
pub fn fold(
    e: &Expr,
    leaf: &mut impl FnMut(&LValue) -> ConstLattice<Value>,
) -> ConstLattice<Value> {
    use ConstLattice::*;
    let c = |x: f64| Const(Value(x));
    match &e.kind {
        ExprKind::IntLit(v) => c(*v as f64),
        ExprKind::RealLit(v) => c(*v),
        ExprKind::BoolLit(b) => c(truth(*b)),
        ExprKind::Rank | ExprKind::Nprocs | ExprKind::AnyWildcard => Bottom,
        ExprKind::Var(lv) => leaf(lv),
        ExprKind::Unary(op, inner) => match fold(inner, leaf) {
            Const(Value(x)) => c(unary(*op, x)),
            other => other,
        },
        ExprKind::Binary(op, a, b) => match (fold(a, leaf), fold(b, leaf)) {
            (Bottom, _) | (_, Bottom) => Bottom,
            (Top, _) | (_, Top) => Top,
            (Const(Value(x)), Const(Value(y))) => c(binary(*op, x, y)),
        },
        ExprKind::Intrinsic(i, args) => {
            // Sema allows at most two arguments; a missing one reads 0, as
            // in a run.
            let mut vals = [0.0; 2];
            let (mut bottom, mut top) = (false, false);
            for (k, a) in args.iter().enumerate() {
                match fold(a, leaf) {
                    Bottom => bottom = true,
                    Top => top = true,
                    Const(Value(x)) => {
                        if let Some(slot) = vals.get_mut(k) {
                            *slot = x;
                        }
                    }
                }
            }
            if bottom {
                Bottom
            } else if top {
                Top
            } else {
                intrinsic(*i, vals[0], vals[1]).map_or(Bottom, c)
            }
        }
    }
}

/// The value of `e` when it is built from literals alone.
pub fn literal(e: &Expr) -> Option<f64> {
    match fold(e, &mut |_| ConstLattice::Bottom) {
        ConstLattice::Const(Value(x)) => Some(x),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rhs(src: &str) -> Expr {
        let p = crate::parser::parse(&format!(
            "program t global g: real; sub f() {{ var q: real; q = {src}; }}"
        ))
        .unwrap();
        match &p.subs[0].body.stmts[1].kind {
            crate::ast::StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => unreachable!(),
        }
    }

    fn lit(src: &str) -> Option<f64> {
        literal(&rhs(src))
    }

    #[test]
    fn literals_fold_as_a_run_computes() {
        let min = "(0 - 9223372036854775807 - 1)";
        for (src, want) in [
            ("7 / 2 * 2", 7.0),
            ("7 / 0", 0.0),
            ("1.0 / 0.0", 0.0),
            ("exp(100.0)", 50f64.exp()),
            ("log(0.0)", 1e-12f64.ln()),
            ("sqrt(-(4.0))", 2.0),
            ("mod(10, 3)", 1.0),
            ("mod(-(7), 3)", 2.0),
            ("mod(7.9, 3.2)", 1.0),
            (&format!("mod({min}, 0 - 1)"), 0.0),
            (&format!("{min} / (0 - 1)"), 9223372036854775808.0),
            ("9223372036854775807 + 1", 9223372036854775808.0),
            ("9007199254740993 - 9007199254740992", 0.0),
            ("max(2, 3.5) + abs(-(1))", 4.5),
            ("(1 < 2) && !(0)", 1.0),
            ("2 == 3 || 0", 0.0),
        ] {
            assert_eq!(lit(src), Some(want), "{src}");
        }
        assert!(lit("1e308 * 10.0 - 1e308 * 10.0").unwrap().is_nan());
    }

    #[test]
    fn what_a_run_cannot_know_or_fails_on_is_not_a_constant() {
        for src in ["rank()", "nprocs() - 1", "mod(5, 0.5)", "g + 1", "exp(g)"] {
            assert_eq!(lit(src), None, "{src}");
        }
    }

    #[test]
    fn leaves_are_read_in_order_and_top_yields_to_bottom() {
        use ConstLattice::*;
        let e = rhs("max(g, g) + g");
        let mut seen = Vec::new();
        let mut reads = [Top, Const(Value(2.0)), Bottom].into_iter();
        let v = fold(&e, &mut |lv| {
            seen.push(lv.name.clone());
            reads.next().unwrap()
        });
        assert_eq!((v, seen.len()), (Bottom, 3));
        let mut reads = [Top, Const(Value(2.0)), Const(Value(1.0))].into_iter();
        assert_eq!(fold(&e, &mut |_| reads.next().unwrap()), Top);
    }

    #[test]
    fn conversion_truncates_and_saturates() {
        assert_eq!(to_int(2.9), 2);
        assert_eq!(to_int(-2.9), -2);
        assert_eq!(to_int(1e300), i64::MAX);
        assert_eq!(to_int(f64::NEG_INFINITY), i64::MIN);
        assert_eq!(to_int(f64::NAN), 0);
    }

    #[test]
    fn constants_compare_nan_equal_and_zeros_equal() {
        assert_eq!(Value(f64::NAN), Value(-f64::NAN));
        assert_eq!(Value(0.0), Value(-0.0));
        assert_ne!(Value(f64::NAN), Value(0.0));
        assert_eq!(Value(-0.0).to_string(), "-0");
        assert_eq!(Value(8.0).to_string(), "8");
    }
}
