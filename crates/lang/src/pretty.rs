//! Pretty-printer for SMPL ASTs.
//!
//! Emits valid SMPL source. `parse(pretty(parse(src)))` produces an AST equal
//! to the original up to spans and statement-id renumbering — tested here and
//! property-tested against generated programs in the suite crate.

use crate::ast::*;
use std::fmt::Write;

/// Render a whole program as SMPL source.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", p.name);
    for g in &p.globals {
        let _ = writeln!(out, "global {}: {};", g.name, g.ty);
    }
    for s in &p.subs {
        out.push_str(&sub_to_string(s));
    }
    out
}

/// Render one subroutine declaration (signature + body) as SMPL source.
fn sub_to_string(s: &SubDecl) -> String {
    let mut out = String::new();
    let _ = write!(out, "sub {}(", s.name);
    for (i, pm) in s.params.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ", ");
        }
        let _ = write!(out, "{}: {}", pm.name, pm.ty);
    }
    let _ = writeln!(out, ") {{");
    block(&mut out, &s.body, 1);
    let _ = writeln!(out, "}}");
    out
}

/// Render a single statement (without trailing newline) — used in diagnostics
/// and analysis dumps.
pub fn stmt_to_string(s: &Stmt) -> String {
    let mut out = String::new();
    stmt(&mut out, s, 0);
    out.trim_end().to_string()
}

/// Render an expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    expr(&mut out, e);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn block(out: &mut String, b: &Block, level: usize) {
    for s in &b.stmts {
        stmt(out, s, level);
    }
}

fn stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match &s.kind {
        StmtKind::Local { decl, init } => {
            let _ = write!(out, "var {}: {}", decl.name, decl.ty);
            if let Some(e) = init {
                out.push_str(" = ");
                expr(out, e);
            }
            out.push_str(";\n");
        }
        StmtKind::Assign { lhs, rhs } => {
            lvalue(out, lhs);
            out.push_str(" = ");
            expr(out, rhs);
            out.push_str(";\n");
        }
        StmtKind::If {
            cond,
            then_blk,
            else_blk,
        } => {
            out.push_str("if (");
            expr(out, cond);
            out.push_str(") {\n");
            block(out, then_blk, level + 1);
            indent(out, level);
            out.push('}');
            if let Some(e) = else_blk {
                out.push_str(" else {\n");
                block(out, e, level + 1);
                indent(out, level);
                out.push('}');
            }
            out.push('\n');
        }
        StmtKind::While { cond, body } => {
            out.push_str("while (");
            expr(out, cond);
            out.push_str(") {\n");
            block(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let _ = write!(out, "for {var} = ");
            expr(out, lo);
            out.push_str(", ");
            expr(out, hi);
            if let Some(st) = step {
                out.push_str(", ");
                expr(out, st);
            }
            out.push_str(" {\n");
            block(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Call { name, args } => {
            let _ = write!(out, "call {name}(");
            exprs(out, args);
            out.push_str(");\n");
        }
        StmtKind::Return => out.push_str("return;\n"),
        StmtKind::Read(lv) => {
            out.push_str("read(");
            lvalue(out, lv);
            out.push_str(");\n");
        }
        StmtKind::Print(e) => {
            out.push_str("print(");
            expr(out, e);
            out.push_str(");\n");
        }
        StmtKind::Mpi(m) => mpi(out, m),
    }
}

fn mpi(out: &mut String, m: &MpiStmt) {
    match m {
        MpiStmt::Send {
            buf,
            dest,
            tag,
            comm,
            blocking,
        } => {
            out.push_str(if *blocking { "send(" } else { "isend(" });
            lvalue(out, buf);
            out.push_str(", ");
            expr(out, dest);
            out.push_str(", ");
            expr(out, tag);
            opt_comm(out, comm);
            out.push_str(");\n");
        }
        MpiStmt::Recv {
            buf,
            src,
            tag,
            comm,
            blocking,
        } => {
            out.push_str(if *blocking { "recv(" } else { "irecv(" });
            lvalue(out, buf);
            out.push_str(", ");
            expr(out, src);
            out.push_str(", ");
            expr(out, tag);
            opt_comm(out, comm);
            out.push_str(");\n");
        }
        MpiStmt::Bcast { buf, root, comm } => {
            out.push_str("bcast(");
            lvalue(out, buf);
            out.push_str(", ");
            expr(out, root);
            opt_comm(out, comm);
            out.push_str(");\n");
        }
        MpiStmt::Reduce {
            op,
            send,
            recv,
            root,
            comm,
        } => {
            let _ = write!(out, "reduce({op}, ");
            expr(out, send);
            out.push_str(", ");
            lvalue(out, recv);
            out.push_str(", ");
            expr(out, root);
            opt_comm(out, comm);
            out.push_str(");\n");
        }
        MpiStmt::Allreduce {
            op,
            send,
            recv,
            comm,
        } => {
            let _ = write!(out, "allreduce({op}, ");
            expr(out, send);
            out.push_str(", ");
            lvalue(out, recv);
            opt_comm(out, comm);
            out.push_str(");\n");
        }
        MpiStmt::Barrier => out.push_str("barrier();\n"),
        MpiStmt::Wait => out.push_str("wait();\n"),
    }
}

fn opt_comm(out: &mut String, comm: &Option<Expr>) {
    if let Some(c) = comm {
        out.push_str(", ");
        expr(out, c);
    }
}

fn lvalue(out: &mut String, lv: &LValue) {
    out.push_str(&lv.name);
    if !lv.indices.is_empty() {
        out.push('[');
        exprs(out, &lv.indices);
        out.push(']');
    }
}

fn exprs(out: &mut String, es: &[Expr]) {
    for (i, e) in es.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        expr(out, e);
    }
}

fn expr(out: &mut String, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        ExprKind::RealLit(v) => {
            // Always keep a decimal point or exponent so the literal re-lexes
            // as a real.
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        ExprKind::BoolLit(b) => {
            let _ = write!(out, "{b}");
        }
        ExprKind::Var(lv) => lvalue(out, lv),
        ExprKind::Unary(op, inner) => {
            out.push(match op {
                UnOp::Neg => '-',
                UnOp::Not => '!',
            });
            paren(out, inner);
        }
        ExprKind::Binary(op, a, b) => {
            paren(out, a);
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "&&",
                BinOp::Or => "||",
            };
            let _ = write!(out, " {sym} ");
            paren(out, b);
        }
        ExprKind::Rank => out.push_str("rank()"),
        ExprKind::Nprocs => out.push_str("nprocs()"),
        ExprKind::AnyWildcard => out.push_str("ANY"),
        ExprKind::Intrinsic(i, args) => {
            let _ = write!(out, "{}(", i.name());
            exprs(out, args);
            out.push(')');
        }
    }
}

/// Print a subexpression, parenthesizing anything compound so the output
/// never depends on precedence rules. Negative literals count as compound:
/// they re-parse as a unary minus, so printing them bare would break the
/// print/parse fixpoint (found by the property tests).
fn paren(out: &mut String, e: &Expr) {
    let atomic = match e.kind {
        ExprKind::IntLit(v) => v >= 0,
        ExprKind::RealLit(v) => v >= 0.0,
        ExprKind::BoolLit(_)
        | ExprKind::Var(_)
        | ExprKind::Rank
        | ExprKind::Nprocs
        | ExprKind::AnyWildcard
        | ExprKind::Intrinsic(..) => true,
        _ => false,
    };
    if atomic {
        expr(out, e);
    } else {
        out.push('(');
        expr(out, e);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SAMPLE: &str = "program demo\n\
        global u: real[4,4];\n\
        global n: int;\n\
        sub main() {\n\
          var i: int;\n\
          var s: real;\n\
          for i = 1, 4 { u[i, 1] = 0.0; }\n\
          if (rank() == 0) { send(u, 1, 7); } else { recv(u, 0, 7); }\n\
          while (s > 0.0) { s = s - 1.0; }\n\
          reduce(SUM, s, s, 0);\n\
          allreduce(MAX, s, s);\n\
          bcast(u, 0, 0);\n\
          isend(s, 1, 2, 0); irecv(s, ANY, ANY); wait(); barrier();\n\
          call helper(u, n);\n\
          read(s); print(s + 1.0); return;\n\
        }\n\
        sub helper(a: real[4,4], m: int) { a[m, m] = sqrt(abs(a[1, 1])); }";

    /// Strip spans/ids by comparing the *second* round trip against the first:
    /// pretty(parse(x)) must be a fixpoint.
    #[test]
    fn round_trip_is_fixpoint() {
        let p1 = parse(SAMPLE).expect("parse original");
        let s1 = program_to_string(&p1);
        let p2 = parse(&s1).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{s1}"));
        let s2 = program_to_string(&p2);
        assert_eq!(s1, s2);
        assert_eq!(p1.stmt_count, p2.stmt_count);
    }

    #[test]
    fn real_literals_stay_real() {
        let p = parse("program t sub f() { var x: real; x = 2.0; }").unwrap();
        let s = program_to_string(&p);
        assert!(s.contains("2.0"), "{s}");
        let p2 = parse(&s).unwrap();
        assert_eq!(program_to_string(&p2), s);
    }

    #[test]
    fn stmt_and_expr_helpers() {
        let p = parse("program t sub f() { var x: real; x = 1.0 + 2.0 * x; }").unwrap();
        let f = p.sub("f").unwrap();
        let s = stmt_to_string(&f.body.stmts[1]);
        assert_eq!(s, "x = 1.0 + (2.0 * x);");
    }

    #[test]
    fn negative_step_round_trips() {
        let src = "program t sub f() { var i: int; for i = 10, 1, -1 { } }";
        let p = parse(src).unwrap();
        let s = program_to_string(&p);
        assert!(parse(&s).is_ok(), "{s}");
    }
}
