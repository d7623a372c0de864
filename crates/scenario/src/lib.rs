//! # ute-scenario — seeded random workload generation
//!
//! The stock workloads (`ute-workloads`) are a handful of hand-written
//! shapes; every invariant and diagnostic in the tree is only ever
//! exercised on traces a human designed. This crate makes "as many
//! scenarios as you can imagine" systematic: a [`ScenarioSpec`] captures
//! the knobs of a synthetic distributed workload — topology,
//! communication structure, phase schedule, imbalance — and
//! [`generate`] expands it into a deterministic `(ClusterConfig,
//! JobProgram)` pair ready for the simulator.
//!
//! Two determinism layers stack to make scenarios reproducible bug
//! reports:
//!
//! 1. **spec → program**: every random choice in [`ScenarioSpec::from_seed`]
//!    and [`generate`] is drawn from a `SmallRng` seeded purely from the
//!    scenario seed (per-phase/per-rank streams are derived by hashing the
//!    seed with the phase and rank indices, so generation order never
//!    matters). Same seed ⇒ identical spec ⇒ identical op lists.
//! 2. **program → trace bytes**: the cluster simulator is itself a
//!    seeded discrete-event simulation, so an identical program on an
//!    identical config yields byte-identical raw trace files.
//!
//! `ute scenario --seed N` is therefore a complete, shareable repro: the
//! seed (plus any explicit knob overrides) names the trace corpus
//! exactly.
//!
//! Ground-truth hooks for the diagnostics layer: a spec with a straggler
//! knob always carries a `Collect` phase whose blocking gather traffic
//! exposes the slow rank to the late-sender and imbalance diagnostics,
//! and a hub-patterned spec routes every point-to-point message through
//! rank 0 so the communication-pattern classifier must report `hub`.

mod gen;

pub use gen::{generate, Scenario};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ute_core::error::{Result, UteError};

/// Machine shape of the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySpec {
    /// SMP node count (the DES is sparse in events, so thousands work).
    pub nodes: u16,
    /// CPUs per node.
    pub cpus_per_node: u16,
    /// MPI tasks per node (ranks are node-major).
    pub tasks_per_node: u16,
    /// Threads per task; thread 0 makes the MPI calls, the rest compute.
    pub threads_per_task: u16,
}

impl TopologySpec {
    /// Total MPI ranks.
    pub fn ntasks(&self) -> u32 {
        self.nodes as u32 * self.tasks_per_node as u32
    }
}

/// Communication structure of a busy phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Halo exchange with both ring neighbours (Irecv/Isend/Waitall).
    NearestNeighbor,
    /// Sendrecv shift around the ring.
    Ring,
    /// k-ary reduction up a rank tree and broadcast back down.
    Tree,
    /// Request/reply farm through rank 0.
    Hub,
    /// Pairwise full exchange (plus a small allreduce).
    AllToAll,
    /// Service-graph request/reply chains: rank 0 is the client, ranks
    /// form a call tree of the spec's depth/width/fan-out, and each
    /// request recurses depth-first before its reply returns.
    ServiceGraph,
}

impl PatternKind {
    /// Every pattern, in the order `from_seed` samples them.
    pub const ALL: [PatternKind; 6] = [
        PatternKind::NearestNeighbor,
        PatternKind::Ring,
        PatternKind::Tree,
        PatternKind::Hub,
        PatternKind::AllToAll,
        PatternKind::ServiceGraph,
    ];

    /// Stable lower-case name (also the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            PatternKind::NearestNeighbor => "nearest_neighbor",
            PatternKind::Ring => "ring",
            PatternKind::Tree => "tree",
            PatternKind::Hub => "hub",
            PatternKind::AllToAll => "all_to_all",
            PatternKind::ServiceGraph => "service_graph",
        }
    }

    /// Parses a CLI spelling (several aliases per pattern).
    pub fn parse(s: &str) -> Option<PatternKind> {
        Some(match s {
            "nn" | "nearest" | "nearest_neighbor" | "stencil" => PatternKind::NearestNeighbor,
            "ring" | "shift" => PatternKind::Ring,
            "tree" | "reduce" => PatternKind::Tree,
            "hub" | "star" | "masterworker" => PatternKind::Hub,
            "alltoall" | "all_to_all" | "a2a" => PatternKind::AllToAll,
            "service" | "service_graph" | "chain" => PatternKind::ServiceGraph,
            _ => return None,
        })
    }
}

/// What a phase does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Pure computation — nothing "interesting" (FLASH's quiet stretch).
    Quiet,
    /// Pattern traffic interleaved with compute.
    Busy,
    /// A few hot senders fire message bursts at rank 0.
    Bursty,
    /// Blocking gather to rank 0 — the straggler ground-truth phase.
    Collect,
}

impl PhaseKind {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Quiet => "quiet",
            PhaseKind::Busy => "busy",
            PhaseKind::Bursty => "bursty",
            PhaseKind::Collect => "collect",
        }
    }
}

/// One phase of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Quiet, busy, bursty, or the straggler collect phase.
    pub kind: PhaseKind,
    /// Communication structure of a busy phase (ignored by quiet phases).
    pub pattern: PatternKind,
    /// Iterations of the phase's inner loop.
    pub rounds: u32,
    /// Base compute per iteration, microseconds.
    pub compute_us: u64,
    /// Message payload bytes.
    pub bytes: u64,
}

/// Imbalance knobs layered over every phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImbalanceSpec {
    /// `Some((rank, factor))`: that rank computes `factor`× longer
    /// everywhere. A spec with a straggler always has a `Collect` phase.
    pub straggler: Option<(u32, u64)>,
    /// Message-size multiplier applied to the upper half of the ranks
    /// (1 = no skew).
    pub size_skew: u64,
    /// Messages per burst in `Bursty` phases.
    pub burst_len: u32,
    /// Hot senders in `Bursty` phases.
    pub bursty_senders: u32,
}

/// A fully-specified scenario. `PartialEq`/`Eq` make the determinism
/// guarantee testable at the spec level too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// The seed everything is derived from.
    pub seed: u64,
    /// Machine shape.
    pub topology: TopologySpec,
    /// Service-graph depth (levels below the client).
    pub chain_depth: u32,
    /// Service-graph width (max services per level).
    pub chain_width: u32,
    /// Fan-out: children per service, and the tree pattern's arity.
    pub fanout: u32,
    /// The phase schedule, in execution order.
    pub phases: Vec<PhaseSpec>,
    /// Imbalance knobs.
    pub imbalance: ImbalanceSpec,
}

impl ScenarioSpec {
    /// Samples a complete random spec from a seed. Sizes are bounded so
    /// the scenario runs in well under a second — scale up explicitly
    /// via the topology knobs (`ute scenario --nodes 512 ...`).
    pub fn from_seed(seed: u64) -> ScenarioSpec {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ce0_a210_0000_5eed);
        let nodes = rng.gen_range(2u16..13);
        let tasks_per_node = if nodes <= 6 && rng.gen_bool(0.3) {
            2
        } else {
            1
        };
        let threads_per_task = rng.gen_range(1u16..3);
        let cpus_per_node = (tasks_per_node * threads_per_task).max(2);
        let topology = TopologySpec {
            nodes,
            cpus_per_node,
            tasks_per_node,
            threads_per_task,
        };
        let ntasks = topology.ntasks();

        let chain_depth = rng.gen_range(1u32..4);
        let chain_width = rng.gen_range(1u32..5);
        let fanout = rng.gen_range(2u32..4);

        let nphases = rng.gen_range(2usize..6);
        let mut phases = Vec::with_capacity(nphases);
        for _ in 0..nphases {
            let roll = rng.gen_range(0u32..10);
            let kind = match roll {
                0..=5 => PhaseKind::Busy,
                6..=7 => PhaseKind::Quiet,
                _ => PhaseKind::Bursty,
            };
            let pattern = PatternKind::ALL[rng.gen_range(0usize..PatternKind::ALL.len())];
            phases.push(PhaseSpec {
                kind,
                pattern,
                rounds: rng.gen_range(2u32..9),
                compute_us: rng.gen_range(200u64..1500),
                bytes: 1u64 << rng.gen_range(8u32..17),
            });
        }
        // A schedule with no traffic at all exercises nothing; force at
        // least one busy phase.
        if phases.iter().all(|p| matches!(p.kind, PhaseKind::Quiet)) {
            phases.last_mut().expect("nphases >= 2").kind = PhaseKind::Busy;
        }

        let straggler = if ntasks >= 3 && rng.gen_bool(0.35) {
            Some((rng.gen_range(1u32..ntasks), rng.gen_range(3u64..7)))
        } else {
            None
        };
        let size_skew = if rng.gen_bool(0.25) {
            rng.gen_range(2u64..5)
        } else {
            1
        };
        let imbalance = ImbalanceSpec {
            straggler,
            size_skew,
            burst_len: rng.gen_range(4u32..13),
            bursty_senders: rng.gen_range(1u32..3),
        };

        let mut spec = ScenarioSpec {
            seed,
            topology,
            chain_depth,
            chain_width,
            fanout,
            phases,
            imbalance,
        };
        if spec.imbalance.straggler.is_some() {
            spec.ensure_collect_phase();
        }
        spec
    }

    /// The torture preset: a deliberately nasty merge workload at scale.
    /// 256+ nodes (the DES is sparse in events, so this stays CI-sized),
    /// symmetric ring/stencil/tree phases whose lock-step traffic mints
    /// long runs of equal end timestamps across every node, a bursty
    /// phase to pile ties onto rank 0, and a straggler so the schedule
    /// ends in a blocking `Collect`. Built to stress the k-way merge's
    /// tie-break: every tie group must come out in source order, so the
    /// `--jobs N` output is byte-identical to the serial merge.
    pub fn torture(seed: u64) -> ScenarioSpec {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7047_u64.rotate_left(33) ^ 0x5eed);
        let nodes = 256 + rng.gen_range(0u16..65);
        let topology = TopologySpec {
            nodes,
            cpus_per_node: 2,
            tasks_per_node: 1,
            threads_per_task: 1,
        };
        let ntasks = topology.ntasks();
        // O(ranks) patterns only — all-to-all at 256+ ranks would square
        // the record count without stressing the merge any harder.
        let symmetric = [
            PatternKind::NearestNeighbor,
            PatternKind::Ring,
            PatternKind::Tree,
        ];
        let mut phases = Vec::new();
        for i in 0..5usize {
            phases.push(PhaseSpec {
                kind: PhaseKind::Busy,
                pattern: symmetric[(seed as usize).wrapping_add(i) % symmetric.len()],
                rounds: rng.gen_range(3u32..6),
                // Identical compute on every rank keeps the lock-step
                // symmetry that makes end-timestamp ties common.
                compute_us: 400 + 100 * i as u64,
                bytes: 1u64 << rng.gen_range(8u32..13),
            });
        }
        phases.push(PhaseSpec {
            kind: PhaseKind::Bursty,
            pattern: PatternKind::Hub,
            rounds: rng.gen_range(3u32..5),
            compute_us: 300,
            bytes: 512,
        });
        let spec = ScenarioSpec {
            seed,
            topology,
            chain_depth: 1,
            chain_width: 1,
            fanout: 2,
            phases,
            imbalance: ImbalanceSpec {
                straggler: None,
                size_skew: 2,
                burst_len: 8,
                bursty_senders: 2,
            },
        };
        spec.with_straggler(1 + rng.gen_range(0u32..(ntasks - 1)), 4)
    }

    /// Sets the straggler knob and guarantees the `Collect` ground-truth
    /// phase exists (appending one sized like the busiest phase if not).
    pub fn with_straggler(mut self, rank: u32, slowdown: u64) -> ScenarioSpec {
        self.imbalance.straggler = Some((rank, slowdown));
        self.ensure_collect_phase();
        self
    }

    /// Forces every phase onto one pattern (the CLI's `--pattern`
    /// override). Bursty and Collect phases already target rank 0, so a
    /// forced-`hub` spec routes *all* point-to-point traffic through
    /// rank 0 and must classify as `hub`.
    pub fn force_pattern(&mut self, pattern: PatternKind) {
        for p in &mut self.phases {
            p.pattern = pattern;
        }
    }

    fn ensure_collect_phase(&mut self) {
        if self.phases.iter().any(|p| p.kind == PhaseKind::Collect) {
            return;
        }
        let rounds = self.phases.iter().map(|p| p.rounds).max().unwrap_or(4);
        self.phases.push(PhaseSpec {
            kind: PhaseKind::Collect,
            pattern: PatternKind::Hub,
            rounds,
            compute_us: 1000,
            bytes: 4096,
        });
    }

    /// Checks the spec is generatable, with errors naming the bad knob.
    pub fn validate(&self) -> Result<()> {
        let t = &self.topology;
        if t.nodes == 0 || t.tasks_per_node == 0 || t.threads_per_task == 0 {
            return Err(UteError::Invalid(
                "scenario: nodes, tasks-per-node, and threads must be >= 1".into(),
            ));
        }
        let ntasks = t.ntasks();
        if ntasks < 2 {
            return Err(UteError::Invalid(
                "scenario: need at least 2 MPI ranks for any pattern".into(),
            ));
        }
        if let Some((rank, slowdown)) = self.imbalance.straggler {
            if rank == 0 || rank >= ntasks {
                return Err(UteError::Invalid(format!(
                    "scenario: straggler rank {rank} must be a worker rank (1..{ntasks})"
                )));
            }
            if slowdown < 2 {
                return Err(UteError::Invalid(
                    "scenario: straggler slowdown must be >= 2".into(),
                ));
            }
            if ntasks < 3 {
                return Err(UteError::Invalid(
                    "scenario: straggler scenarios need >= 3 ranks".into(),
                ));
            }
        }
        if self.phases.is_empty() {
            return Err(UteError::Invalid("scenario: no phases".into()));
        }
        if self.fanout == 0 || self.chain_width == 0 {
            return Err(UteError::Invalid(
                "scenario: fanout and chain-width must be >= 1".into(),
            ));
        }
        if self.imbalance.size_skew == 0 {
            return Err(UteError::Invalid("scenario: size skew must be >= 1".into()));
        }
        Ok(())
    }

    /// Renders the spec as JSON — the `--describe` output and the
    /// `scenario.json` provenance file a scenario run leaves next to its
    /// artifacts. Hand-rolled (no serde in the tree); key order is fixed
    /// so the output is byte-stable.
    pub fn to_json(&self) -> String {
        let t = &self.topology;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"topology\": {{\"nodes\": {}, \"cpus_per_node\": {}, \"tasks_per_node\": {}, \
             \"threads_per_task\": {}, \"ranks\": {}}},\n",
            t.nodes,
            t.cpus_per_node,
            t.tasks_per_node,
            t.threads_per_task,
            t.ntasks()
        ));
        s.push_str(&format!(
            "  \"chain\": {{\"depth\": {}, \"width\": {}, \"fanout\": {}}},\n",
            self.chain_depth, self.chain_width, self.fanout
        ));
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"pattern\": \"{}\", \
                 \"rounds\": {}, \"compute_us\": {}, \"bytes\": {}}}{}\n",
                phase_name(i, p),
                p.kind.name(),
                p.pattern.name(),
                p.rounds,
                p.compute_us,
                p.bytes,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        let im = &self.imbalance;
        match im.straggler {
            Some((rank, slowdown)) => s.push_str(&format!(
                "  \"imbalance\": {{\"straggler_rank\": {rank}, \"straggler_slowdown\": \
                 {slowdown}, \"size_skew\": {}, \"burst_len\": {}, \"bursty_senders\": {}}}\n",
                im.size_skew, im.burst_len, im.bursty_senders
            )),
            None => s.push_str(&format!(
                "  \"imbalance\": {{\"straggler_rank\": null, \"straggler_slowdown\": null, \
                 \"size_skew\": {}, \"burst_len\": {}, \"bursty_senders\": {}}}\n",
                im.size_skew, im.burst_len, im.bursty_senders
            )),
        }
        s.push('}');
        s
    }
}

/// The marker name wrapping phase `i` (`Collect` keeps its bare name so
/// ground-truth assertions can find it).
pub fn phase_name(i: usize, p: &PhaseSpec) -> String {
    match p.kind {
        PhaseKind::Collect => "Collect".to_string(),
        PhaseKind::Quiet => format!("P{i}_quiet"),
        kind => format!("P{i}_{}_{}", kind.name(), p.pattern.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec() {
        for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            assert_eq!(ScenarioSpec::from_seed(seed), ScenarioSpec::from_seed(seed));
        }
    }

    #[test]
    fn different_seeds_differ() {
        // Not guaranteed for every pair, but these must not collide.
        assert_ne!(ScenarioSpec::from_seed(1), ScenarioSpec::from_seed(2));
        assert_ne!(ScenarioSpec::from_seed(41), ScenarioSpec::from_seed(42));
    }

    #[test]
    fn sampled_specs_validate() {
        for seed in 0..200u64 {
            let spec = ScenarioSpec::from_seed(seed);
            spec.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                spec.phases
                    .iter()
                    .any(|p| !matches!(p.kind, PhaseKind::Quiet)),
                "seed {seed}: all-quiet schedule"
            );
        }
    }

    #[test]
    fn straggler_spec_always_has_collect_phase() {
        let mut saw_straggler = false;
        for seed in 0..200u64 {
            let spec = ScenarioSpec::from_seed(seed);
            if spec.imbalance.straggler.is_some() {
                saw_straggler = true;
                assert!(
                    spec.phases.iter().any(|p| p.kind == PhaseKind::Collect),
                    "seed {seed}: straggler without Collect phase"
                );
            }
        }
        assert!(
            saw_straggler,
            "no sampled spec had a straggler in 200 seeds"
        );
        let spec = ScenarioSpec::from_seed(3).with_straggler(1, 4);
        assert!(spec.phases.iter().any(|p| p.kind == PhaseKind::Collect));
    }

    #[test]
    fn torture_preset_is_large_deterministic_and_valid() {
        for seed in [0u64, 9, 77, u64::MAX] {
            let spec = ScenarioSpec::torture(seed);
            assert_eq!(spec, ScenarioSpec::torture(seed), "seed {seed}");
            assert!(spec.topology.nodes >= 256, "seed {seed}: too small");
            spec.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                spec.phases.iter().any(|p| p.kind == PhaseKind::Collect),
                "seed {seed}: torture schedule must end in a Collect"
            );
            assert!(
                spec.phases
                    .iter()
                    .all(|p| p.pattern != PatternKind::AllToAll),
                "seed {seed}: all-to-all would square the record count"
            );
        }
        assert_ne!(ScenarioSpec::torture(1), ScenarioSpec::torture(2));
    }

    #[test]
    fn pattern_parse_round_trips() {
        for p in PatternKind::ALL {
            assert_eq!(PatternKind::parse(p.name()), Some(p), "{}", p.name());
        }
        assert_eq!(PatternKind::parse("nn"), Some(PatternKind::NearestNeighbor));
        assert_eq!(PatternKind::parse("a2a"), Some(PatternKind::AllToAll));
        assert_eq!(PatternKind::parse("bogus"), None);
    }

    #[test]
    fn json_is_stable_and_shaped() {
        let spec = ScenarioSpec::from_seed(7);
        let a = spec.to_json();
        assert_eq!(a, ScenarioSpec::from_seed(7).to_json());
        assert!(a.starts_with('{') && a.ends_with('}'));
        for key in ["\"seed\"", "\"topology\"", "\"phases\"", "\"imbalance\""] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut spec = ScenarioSpec::from_seed(1);
        spec.topology.nodes = 0;
        assert!(spec.validate().is_err());
        let spec = ScenarioSpec::from_seed(1).with_straggler(0, 4);
        assert!(spec.validate().is_err());
        let mut spec = ScenarioSpec::from_seed(1);
        spec.phases.clear();
        assert!(spec.validate().is_err());
    }
}
