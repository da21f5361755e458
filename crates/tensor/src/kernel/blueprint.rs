//! The blueprint layer: a plain-data description of a GEMM problem.
//!
//! A [`Blueprint`] is the *key* the kernel subsystem dispatches on: the
//! problem extents (`m`/`k`/`n`), which operand (if any) is stored
//! transposed ([`Op`]), and the worker budget. It deliberately
//! carries no data pointers — the same blueprint value describes every
//! GEMM of that shape, which is what lets the
//! [selector](super::selector) be a pure function from blueprints to
//! plans.

/// Which operand, if any, is stored transposed.
///
/// The reduction (`p` over `0..k`) is identical in all three forms;
/// only the storage layout of the operands differs. `dst` is always
/// row-major `[m, n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = a·b` with row-major `a: [m, k]`, `b: [k, n]`.
    Nn,
    /// `dst = a·btᵀ` with row-major `a: [m, k]`, `bt: [n, k]` — the
    /// fc-forward / conv-weight-gradient form (`y = x·Wᵀ`,
    /// `dW = dy·colsᵀ`).
    Nt,
    /// `dst = atᵀ·b` with row-major `at: [k, m]`, `b: [k, n]` — the
    /// fc-weight-gradient form (`dW = dyᵀ·x`) without materializing
    /// the transpose.
    Tn,
}

impl Op {
    /// Short lowercase tag (`nn` | `nt` | `tn`) for reports.
    pub fn tag(self) -> &'static str {
        match self {
            Op::Nn => "nn",
            Op::Nt => "nt",
            Op::Tn => "tn",
        }
    }
}

/// A GEMM problem shape: the plain-data key the selector dispatches on.
///
/// # Examples
///
/// ```
/// use procrustes_tensor::kernel::{Blueprint, Op};
/// let bp = Blueprint::nn(64, 288, 2048);
/// assert_eq!(bp.op, Op::Nn);
/// assert_eq!(bp.threads, 1);
/// assert_eq!(bp.flops(), 2 * 64 * 288 * 2048);
/// assert_eq!(bp.with_threads(4).threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Blueprint {
    /// Output rows.
    pub m: usize,
    /// Reduction extent.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Operand storage layout.
    pub op: Op,
    /// Worker-thread budget the caller grants the selector (including
    /// the calling thread itself). `1` — the constructors' default —
    /// pins the problem to the serial tier; larger values let the
    /// selector choose the threaded tier, which splits the output
    /// across up to this many workers. The budget never changes a
    /// result byte (every output element's reduction stays sequential
    /// on one worker); it only widens the strategies the selector may
    /// pick, so hot-path callers pass
    /// [`default_threads`](super::thread::default_threads) and tests
    /// pin explicit counts.
    pub threads: usize,
}

impl Blueprint {
    /// `dst = a·b`, both operands row-major (see [`Op::Nn`]).
    pub fn nn(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            op: Op::Nn,
            threads: 1,
        }
    }

    /// `dst = a·btᵀ` with `bt: [n, k]` (see [`Op::Nt`]).
    pub fn nt(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            op: Op::Nt,
            threads: 1,
        }
    }

    /// `dst = atᵀ·b` with `at: [k, m]` (see [`Op::Tn`]).
    pub fn tn(m: usize, k: usize, n: usize) -> Self {
        Self {
            m,
            k,
            n,
            op: Op::Tn,
            threads: 1,
        }
    }

    /// Grants the selector a worker budget of `threads` (clamped to at
    /// least 1; see [`Blueprint::threads`]). Hot-path callers pass
    /// [`default_threads`](super::thread::default_threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Multiply-accumulate count, counting each multiply and add
    /// (`2·m·k·n`).
    pub fn flops(&self) -> u128 {
        2 * self.m as u128 * self.k as u128 * self.n as u128
    }

    /// Expected lhs slice length for this shape.
    pub fn lhs_len(&self) -> usize {
        self.m * self.k
    }

    /// Expected rhs slice length for this shape.
    pub fn rhs_len(&self) -> usize {
        self.k * self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Blueprint::nn(4, 4, 4).with_threads(0).threads, 1);
    }
}
