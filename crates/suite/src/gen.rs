//! Random SPMD program generator.
//!
//! Produces syntactically and semantically valid SMPL programs of a
//! configurable size for property tests (precision/soundness relations that
//! must hold on *every* program) and for the solver scaling benchmarks.
//! Generation is fully deterministic given the seed.
//!
//! Programs are built bottom-up so calls can never recurse: procedure `i`
//! may only call procedures `j < i`. Array subscripts are always of the
//! form `mod(<int var>, dim) + 1`, which keeps every generated index in
//! bounds by construction.

use mpi_dfa_core::rng::SplitMix64;
use std::fmt::Write;

/// Size/shape knobs for generated programs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of global real scalars.
    pub scalars: usize,
    /// Number of global real arrays.
    pub arrays: usize,
    /// Number of subroutines besides `main`.
    pub subs: usize,
    /// Statements per subroutine body (before nesting expansion).
    pub stmts_per_sub: usize,
    /// Maximum nesting depth of if/for blocks.
    pub max_depth: usize,
    /// Number of distinct message tags (smaller = denser comm matching).
    pub tags: usize,
    /// Probability (0..100) that a statement slot becomes an MPI operation.
    pub mpi_percent: u32,
    /// Emit only deadlock-free communication: collectives and paired
    /// neighbour shifts, never inside rank-dependent branches. Used by the
    /// dynamic-vs-static cross-validation, which needs programs the
    /// interpreter can actually run to completion.
    pub runnable: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scalars: 6,
            arrays: 3,
            subs: 4,
            stmts_per_sub: 10,
            max_depth: 2,
            tags: 4,
            mpi_percent: 25,
            runnable: false,
        }
    }
}

impl GenConfig {
    /// A configuration scaled by `factor` (for the scaling bench).
    pub fn scaled(factor: usize) -> Self {
        GenConfig {
            scalars: 4 + 2 * factor,
            arrays: 2 + factor,
            subs: 2 + factor,
            stmts_per_sub: 8 * factor.max(1),
            ..Default::default()
        }
    }
}

/// Generate one SMPL program as source text.
pub fn generate(seed: u64, config: &GenConfig) -> String {
    Generator {
        rng: SplitMix64::new(seed),
        config: config.clone(),
    }
    .run()
}

struct Generator {
    rng: SplitMix64,
    config: GenConfig,
}

impl Generator {
    fn run(&mut self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "program generated");
        for i in 0..self.config.scalars {
            let _ = writeln!(out, "global s{i}: real;");
        }
        for i in 0..self.config.arrays {
            let dim = self.rng.range(4, 64);
            let _ = writeln!(out, "global a{i}: real[{dim}];");
        }
        let _ = writeln!(out, "global iv: int;");

        for sub in 0..self.config.subs {
            let _ = writeln!(out, "sub f{sub}() {{");
            let _ = writeln!(out, "  var i: int;");
            let _ = writeln!(out, "  var t: real;");
            let body = self.block(sub, self.config.max_depth, self.config.stmts_per_sub);
            out.push_str(&body);
            let _ = writeln!(out, "}}");
        }

        let _ = writeln!(out, "sub main() {{");
        for sub in 0..self.config.subs {
            let _ = writeln!(out, "  call f{sub}();");
        }
        let _ = writeln!(out, "  print(s0);");
        let _ = writeln!(out, "}}");
        out
    }

    fn scalar(&mut self) -> String {
        if self.rng.chance(0.3) {
            "t".to_string()
        } else {
            format!("s{}", self.rng.range(0, self.config.scalars))
        }
    }

    /// An in-bounds array element reference.
    fn element(&mut self) -> String {
        let a = self.rng.range(0, self.config.arrays);
        // dims are unknown here, so index via mod of the smallest possible
        // dim (4), which is always in bounds.
        format!("a{a}[mod(i, 4) + 1]")
    }

    fn operand(&mut self) -> String {
        match self.rng.range(0, 4) {
            0 => format!("{:.1}", self.rng.range(0, 100) as f64 / 10.0),
            1 => self.element(),
            _ => self.scalar(),
        }
    }

    fn expr(&mut self) -> String {
        let a = self.operand();
        let b = self.operand();
        let op = ["+", "-", "*"][self.rng.range(0, 3)];
        if self.rng.chance(0.2) {
            format!("sqrt(abs({a} {op} {b}))")
        } else {
            format!("{a} {op} {b}")
        }
    }

    fn tag(&mut self) -> usize {
        self.rng.range(0, self.config.tags)
    }

    fn block(&mut self, sub: usize, depth: usize, stmts: usize) -> String {
        self.block_inner(sub, depth, stmts, false)
    }

    fn block_inner(&mut self, sub: usize, depth: usize, stmts: usize, in_branch: bool) -> String {
        let mut out = String::new();
        for _ in 0..stmts {
            let roll = self.rng.range(0, 100) as u32;
            if roll < self.config.mpi_percent {
                // In runnable mode, communication inside a rank-dependent
                // branch would desynchronize the processes.
                if !self.config.runnable || !in_branch {
                    out.push_str(&self.mpi_stmt());
                } else {
                    let s = self.scalar();
                    let v = self.expr();
                    let _ = writeln!(out, "  {s} = {v};");
                }
            } else if roll < self.config.mpi_percent + 10 && depth > 0 {
                // nested control flow
                if self.rng.chance(0.5) {
                    let _ = writeln!(out, "  if (rank() == {}) {{", self.rng.range(0, 4));
                    out.push_str(&self.block_inner(sub, depth - 1, 2, true));
                    if self.rng.chance(0.5) {
                        let _ = writeln!(out, "  }} else {{");
                        out.push_str(&self.block_inner(sub, depth - 1, 2, true));
                    }
                    let _ = writeln!(out, "  }}");
                } else {
                    let _ = writeln!(out, "  for i = 1, {} {{", self.rng.range(2, 8));
                    out.push_str(&self.block_inner(sub, depth - 1, 2, in_branch));
                    let _ = writeln!(out, "  }}");
                }
            } else if roll < self.config.mpi_percent + 15 && sub > 0 {
                let callee = self.rng.range(0, sub);
                let _ = writeln!(out, "  call f{callee}();");
            } else if roll < self.config.mpi_percent + 20 {
                let e = self.element();
                let v = self.expr();
                let _ = writeln!(out, "  {e} = {v};");
            } else {
                let s = self.scalar();
                let v = self.expr();
                let _ = writeln!(out, "  {s} = {v};");
            }
        }
        out
    }

    fn mpi_stmt(&mut self) -> String {
        let mut out = String::new();
        let kinds = if self.config.runnable { 5 } else { 6 };
        match self.rng.range(0, kinds) {
            0 if self.config.runnable => {
                // A paired neighbour shift: every send has its receive.
                let s = self.scalar();
                let r = self.scalar();
                let tag = self.tag();
                let _ = writeln!(out, "  if (rank() > 0) {{ send({s}, rank() - 1, {tag}); }}");
                let _ = writeln!(
                    out,
                    "  if (rank() < nprocs() - 1) {{ recv({r}, rank() + 1, {tag}); }}"
                );
            }
            0 => {
                let s = self.scalar();
                let tag = self.tag();
                let _ = writeln!(out, "  if (rank() > 0) {{ send({s}, rank() - 1, {tag}); }}");
            }
            1 if self.config.runnable => {
                // Ring exchange: unconditional, always matched.
                let s = self.scalar();
                let r = self.scalar();
                let tag = self.tag();
                let _ = writeln!(out, "  send({s}, mod(rank() + 1, nprocs()), {tag});");
                let _ = writeln!(
                    out,
                    "  recv({r}, mod(rank() + nprocs() - 1, nprocs()), {tag});"
                );
            }
            1 => {
                let s = self.scalar();
                let tag = self.tag();
                let _ = writeln!(
                    out,
                    "  if (rank() < nprocs() - 1) {{ recv({s}, rank() + 1, {tag}); }}"
                );
            }
            2 => {
                let a = self.rng.range(0, self.config.arrays);
                let _ = writeln!(out, "  bcast(a{a}, 0);");
            }
            3 => {
                let s = self.scalar();
                let d = self.scalar();
                let _ = writeln!(out, "  reduce(SUM, {s}, {d}, 0);");
            }
            4 => {
                let s = self.scalar();
                let d = self.scalar();
                let _ = writeln!(out, "  allreduce(MAX, {s}, {d});");
            }
            _ => {
                let s = self.scalar();
                let tag = self.tag();
                let _ = writeln!(out, "  if (rank() > 0) {{ recv({s}, ANY, {tag}); }}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_dfa_lang::compile;

    #[test]
    fn generated_programs_compile() {
        for seed in 0..50 {
            let src = generate(seed, &GenConfig::default());
            compile(&src).unwrap_or_else(|e| panic!("seed {seed} failed: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(generate(7, &cfg), generate(7, &cfg));
        assert_ne!(generate(7, &cfg), generate(8, &cfg));
    }

    #[test]
    fn scaled_configs_grow() {
        let small = generate(1, &GenConfig::scaled(1));
        let big = generate(1, &GenConfig::scaled(6));
        assert!(big.len() > small.len());
        assert!(compile(&big).is_ok());
    }

    #[test]
    fn generated_programs_contain_mpi() {
        let mut any = false;
        for seed in 0..10 {
            let src = generate(seed, &GenConfig::default());
            any |= src.contains("send(") || src.contains("bcast(") || src.contains("reduce(");
        }
        assert!(any, "generator should emit MPI operations");
    }
}
