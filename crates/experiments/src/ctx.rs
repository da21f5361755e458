//! Shared experiment context and output plumbing.

use std::path::PathBuf;

use procrustes_core::report::Table;
use procrustes_core::Engine;

/// Scale and output configuration shared by all experiments, and the
/// one [`Engine`] behind the accelerator-model sweeps.
pub struct ExpContext {
    quick: bool,
    out: Option<PathBuf>,
    engine: Engine,
}

impl ExpContext {
    /// Creates a context; `quick` shrinks training-based experiments.
    pub fn new(quick: bool, out: Option<PathBuf>) -> Self {
        if let Some(dir) = &out {
            std::fs::create_dir_all(dir).expect("create --out directory");
        }
        Self {
            quick,
            out,
            engine: Engine::default(),
        }
    }

    /// The engine Figs 17–20 share, so a layer cost one figure computed
    /// (every dense baseline, for a start) is a cache hit in the next.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of training steps for accuracy experiments.
    ///
    /// Quick mode keeps ~40% of the full step count so that the decay
    /// horizon (see [`ExpContext::lambda`]) still leaves a recovery
    /// window before the final evaluation.
    pub fn train_steps(&self, full: usize) -> usize {
        if self.quick {
            (full * 2 / 5).max(160)
        } else {
            full
        }
    }

    /// Initial-weight decay λ, scaled so the decay horizon lands at a
    /// similar *fraction* of training as the paper's (their λ = 0.9
    /// zeroes the scaffolding within the first ~0.5 % of 234k
    /// iterations; our runs are 100–400 steps, so quick mode uses a
    /// faster decay to keep the horizon inside the run).
    pub fn lambda(&self) -> f32 {
        if self.quick {
            0.8
        } else {
            0.9
        }
    }

    /// Evaluation cadence (steps between validation points).
    pub fn eval_every(&self) -> usize {
        if self.quick {
            20
        } else {
            40
        }
    }

    /// Validation-set size.
    pub fn val_size(&self) -> usize {
        if self.quick {
            96
        } else {
            256
        }
    }

    /// Prints a table and, when `--out` was given, writes `<name>.csv`.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        if let Some(dir) = &self.out {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("[wrote {}]", path.display());
        }
    }

    /// Prints a free-form note beneath a table.
    pub fn note(&self, text: &str) {
        println!("note: {text}\n");
    }
}
