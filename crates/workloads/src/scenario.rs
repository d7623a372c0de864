//! Fixed-seed generated scenarios promoted into the stock corpus.
//!
//! Two representative seeds from the `ute-scenario` generator ride along
//! with the hand-written workloads, so every corpus-driven test walking
//! [`crate::all_workloads`] exercises traces nobody designed. The seeds
//! are pinned: a change in the generator that alters their expansion
//! shows up as a diff in every downstream artifact, which is exactly the
//! regression signal we want.

use ute_scenario::{generate, ScenarioSpec};

use crate::Workload;

/// Wraps a seed's expansion as a stock [`Workload`]. Panics only if the
/// generator rejects its own sampled spec, which `ute-scenario`'s tests
/// rule out for all seeds.
pub fn seeded(name: &'static str, seed: u64) -> Workload {
    let sc = generate(&ScenarioSpec::from_seed(seed))
        .unwrap_or_else(|e| panic!("scenario seed {seed}: {e}"));
    Workload {
        name,
        config: sc.config,
        job: sc.job,
    }
}

/// The pinned representative scenarios included in [`crate::all_workloads`].
pub fn representative() -> Vec<Workload> {
    vec![seeded("scenario_alpha", 11), seeded("scenario_beta", 42)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_seeds_expand_identically_every_call() {
        let a = representative();
        let b = representative();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.job, y.job, "{} expansion drifted", x.name);
            assert_eq!(x.config.nodes, y.config.nodes);
        }
    }
}
