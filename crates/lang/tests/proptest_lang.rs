//! Property tests for the SMPL front end: the pretty-printer/parser pair
//! must be a round trip on arbitrary generated ASTs, and the lexer/parser
//! must be total on arbitrary input.
//!
//! The workspace builds fully offline, so instead of `proptest` these are
//! seeded sweeps driven by the shared `mpi_dfa_core::rng::SplitMix64`
//! stream. A failing case panics with its seed for replay.

use mpi_dfa_core::rng::SplitMix64;
use mpi_dfa_lang::ast::*;
use mpi_dfa_lang::parser::parse;
use mpi_dfa_lang::pretty::program_to_string;
use mpi_dfa_lang::span::Span;
use mpi_dfa_lang::types::{BaseType, Type};

const CASES: u64 = 128;

fn sp() -> Span {
    Span::DUMMY
}

fn ident(rng: &mut SplitMix64) -> String {
    // Avoid keywords and intrinsic names by prefixing.
    let mut s = String::from("v");
    s.push((b'a' + rng.below(26) as u8) as char);
    for _ in 0..rng.below(5) {
        let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789";
        s.push(alphabet[rng.below(alphabet.len())] as char);
    }
    s
}

fn base_type(rng: &mut SplitMix64) -> BaseType {
    *rng.pick(&[
        BaseType::Int,
        BaseType::Real,
        BaseType::Real4,
        BaseType::Logical,
    ])
}

fn ty(rng: &mut SplitMix64) -> Type {
    let b = base_type(rng);
    let ndims = rng.below(3);
    if ndims == 0 {
        Type::scalar(b)
    } else {
        let dims = (0..ndims).map(|_| rng.range_i64(1, 20)).collect();
        Type::array(b, dims)
    }
}

fn literal(rng: &mut SplitMix64) -> ExprKind {
    match rng.below(5) {
        0 => ExprKind::IntLit(rng.range_i64(-1000, 1000)),
        1 => ExprKind::RealLit(rng.range_i64(-100, 100) as f64 / 4.0),
        2 => ExprKind::BoolLit(rng.chance(0.5)),
        3 => ExprKind::Rank,
        _ => ExprKind::Nprocs,
    }
}

fn bin_op(rng: &mut SplitMix64) -> BinOp {
    *rng.pick(&[
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Lt,
        BinOp::Eq,
    ])
}

fn expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 || rng.chance(0.4) {
        // leaf
        let kind = if rng.chance(0.5) {
            literal(rng)
        } else {
            ExprKind::Var(LValue::var(ident(rng), sp()))
        };
        return Expr { kind, span: sp() };
    }
    match rng.below(3) {
        0 => {
            let a = expr(rng, depth - 1);
            let b = expr(rng, depth - 1);
            Expr {
                kind: ExprKind::Binary(bin_op(rng), Box::new(a), Box::new(b)),
                span: sp(),
            }
        }
        1 => {
            let e = expr(rng, depth - 1);
            Expr {
                kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                span: sp(),
            }
        }
        _ => {
            let a = expr(rng, depth - 1);
            let b = expr(rng, depth - 1);
            Expr {
                kind: ExprKind::Intrinsic(Intrinsic::Max, vec![a, b]),
                span: sp(),
            }
        }
    }
}

fn program(rng: &mut SplitMix64) -> Program {
    let nglobals = rng.range(1, 5);
    let nstmts = rng.range(1, 6);
    let mut names = std::collections::HashSet::new();
    let globals = (0..nglobals)
        .map(|_| (ident(rng), ty(rng)))
        .filter(|(n, _)| names.insert(n.clone()))
        .map(|(name, ty)| VarDecl {
            name,
            ty,
            span: sp(),
        })
        .collect();
    let stmts: Vec<Stmt> = (0..nstmts)
        .map(|i| Stmt {
            id: StmtId(i as u32),
            kind: StmtKind::Assign {
                lhs: LValue::var(ident(rng), sp()),
                rhs: expr(rng, 2),
            },
            span: sp(),
        })
        .collect();
    let n = stmts.len() as u32;
    Program {
        name: "gen".into(),
        globals,
        subs: vec![SubDecl {
            name: "main".into(),
            params: vec![],
            body: Block { stmts },
            span: sp(),
        }],
        stmt_count: n,
    }
}

/// pretty ∘ parse ∘ pretty = pretty: printing a generated AST, parsing
/// it back, and printing again reaches a fixpoint after one round.
#[test]
fn pretty_parse_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let p = program(&mut rng);
        let s1 = program_to_string(&p);
        let reparsed = parse(&s1)
            .unwrap_or_else(|e| panic!("seed {seed}: pretty output failed to parse: {e}\n{s1}"));
        let s2 = program_to_string(&reparsed);
        assert_eq!(&s1, &s2, "seed {seed}: pretty/parse not a fixpoint");
        assert_eq!(reparsed.stmt_count, p.stmt_count, "seed {seed}");
    }
}

/// The lexer never panics and either produces tokens or a diagnostic on
/// arbitrary input bytes (printable-ish plus embedded controls).
#[test]
fn lexer_total_on_arbitrary_input() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ 0xA5A5_A5A5);
        let len = rng.below(201);
        let s: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII, occasionally control bytes or
                // multi-byte unicode.
                match rng.below(10) {
                    0 => char::from_u32(rng.below(0x20) as u32).unwrap_or('\n'),
                    1 => char::from_u32(0x00C0 + rng.below(0x100) as u32).unwrap_or('é'),
                    _ => (0x20 + rng.below(0x5F) as u8) as char,
                }
            })
            .collect();
        let _ = mpi_dfa_lang::lexer::lex(&s);
    }
}

/// The parser is total on arbitrary token-ish text.
#[test]
fn parser_total_on_arbitrary_input() {
    let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789(){};=+*,<> \n"
        .chars()
        .collect();
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ 0x5A5A_5A5A);
        let len = rng.below(201);
        let s: String = (0..len).map(|_| *rng.pick(&alphabet)).collect();
        let _ = parse(&s);
    }
}
