//! Seed → input: the same seed gives the same bytes, another seed others.

use ute_benchmark::workloads::{encode, model, simulate, Workload};

/// One hash per file of the smoke-sized input, plus the event count.
fn input(w: Workload, seed: u64) -> (Vec<(String, u64)>, u64) {
    let sim = simulate(model(w, seed, true).unwrap()).unwrap();
    let files = encode(&sim).unwrap();
    let hashes = files
        .iter()
        .map(|(name, bytes)| (name.clone(), ute_store::fnv64(bytes)))
        .collect();
    (hashes, sim.stats.events_cut)
}

#[test]
fn the_same_seed_gives_identical_input_hashes_and_another_seed_different_ones() {
    for w in Workload::ALL {
        let (a, events) = input(w, 7);
        assert!(events > 0);
        assert_eq!(input(w, 7), (a.clone(), events), "{}", w.name());
        let (b, _) = input(w, 8);
        assert_ne!(a, b, "{}: seeds 7 and 8 give the same input", w.name());
    }
}

#[test]
fn record_counts_barely_move_with_the_seed() {
    // Runs on different seeds must stay comparable: the seed shapes the
    // input, it does not size it.
    for w in Workload::ALL {
        let counts: Vec<u64> = (1..=4).map(|seed| input(w, seed).1).collect();
        let (lo, hi) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(
            (hi - lo) as f64 <= 0.05 * lo as f64,
            "{}: {counts:?}",
            w.name()
        );
    }
}
