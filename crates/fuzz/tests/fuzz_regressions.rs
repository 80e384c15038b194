//! Tier-1 fuzz regression suite.
//!
//! Three jobs, run on every `cargo test`:
//!
//! 1. **Corpus replay** — every `.scen` file under `crates/fuzz/corpus/`
//!    parses, is in canonical rendered form, and still passes the
//!    invariants its `#! check:` header records. A shrunk reproducer that
//!    lands in the corpus is replayed forever.
//! 2. **Seed-window soak** — a small fixed seed window of generated
//!    scenarios audits green on the real engine (the big window runs in
//!    CI via `exp_fuzz_soak`).
//! 3. **Pipeline demo** — a seeded fault injected behind the [`Runner`]
//!    seam is caught by the oracle, shrunk to a ≤ 8-action reproducer,
//!    survives the corpus text round-trip, and is provably absent from
//!    the real engine.

use gridsteer_fuzz::{
    check, check_with, corpus, generate, shrink, FuzzConfig, Invariant, PoolRunner, Runner,
};
use gridsteer_harness::{Scenario, ScenarioReport};

/// Report digest of every corpus file's scenario. A refactor of the
/// engine must leave each one byte-identical; a new corpus file needs
/// its digest added here.
const CORPUS_DIGESTS: [(&str, &str); 3] = [
    ("seed-crash-chain.scen", "8877d2688ae25dc5"),
    ("seed-pepc-shards.scen", "118dc1c2e56d13d3"),
    ("seed-relay-faults.scen", "38967188783d711d"),
];

#[test]
fn corpus_replays_forever() {
    let files = corpus::load_dir(&corpus::corpus_dir()).expect("corpus dir must exist");
    assert!(
        files.len() >= 3,
        "corpus went missing: only {} .scen files",
        files.len()
    );
    for (name, text) in files {
        corpus::check_text(&text).unwrap_or_else(|e| panic!("corpus file {name} regressed: {e}"));
        let digest = corpus::parse(&text).unwrap().scenario.run().digest();
        let pinned = CORPUS_DIGESTS.iter().find(|(n, _)| *n == name);
        assert_eq!(
            pinned.map(|(_, d)| *d),
            Some(digest.as_str()),
            "corpus file {name}: report digest drifted from its pin"
        );
    }
}

#[test]
fn corpus_files_are_canonical() {
    // parse → re-render is byte-identical: files stay diff-friendly and
    // nobody hand-edits one into a form the parser merely tolerates
    for (name, text) in corpus::load_dir(&corpus::corpus_dir()).unwrap() {
        let entry = corpus::parse(&text)
            .unwrap_or_else(|e| panic!("corpus file {name} does not parse: {e}"));
        assert_eq!(
            corpus::render(&entry.scenario, &entry.checks),
            text,
            "corpus file {name} is not in canonical rendered form"
        );
    }
}

#[test]
fn a_fixed_seed_window_audits_green() {
    let cfg = FuzzConfig::default();
    for seed in 0..24 {
        let s = generate(seed, &cfg);
        let v = check(&s);
        assert!(v.is_empty(), "seed {seed} violated invariants: {v:?}");
    }
}

/// The seeded fault for the end-to-end demo: whenever any steer landed,
/// the wide pool reports one extra application — the kind of lost-guard
/// concurrency bug the thread-digest invariant exists to catch.
struct SeededFault;

impl Runner for SeededFault {
    fn run(&self, s: &Scenario, threads: usize) -> ScenarioReport {
        let mut r = PoolRunner.run(s, threads);
        if threads > 1 && r.steers_applied > 0 {
            r.steers_applied += 1;
        }
        r
    }
}

#[test]
fn injected_fault_is_caught_shrunk_and_replayable() {
    let cfg = FuzzConfig::default();
    // the soak loop in miniature: walk seeds until the oracle trips
    let fat = (0..64)
        .map(|seed| generate(seed, &cfg))
        .find(|s| {
            check_with(&SeededFault, s)
                .iter()
                .any(|v| v.invariant == Invariant::ThreadDigest)
        })
        .expect("no seed in 0..64 tripped the seeded fault");

    let small = shrink(&SeededFault, &fat, Invariant::ThreadDigest);
    assert!(
        small.actions().len() <= 8,
        "shrinker left {} actions:\n{}",
        small.actions().len(),
        small.to_script()
    );

    // the reproducer survives serialization to corpus text…
    let text = corpus::render(&small, &[Invariant::ThreadDigest]);
    let replayed = corpus::parse(&text).unwrap().scenario;
    assert!(
        check_with(&SeededFault, &replayed)
            .iter()
            .any(|v| v.invariant == Invariant::ThreadDigest),
        "replayed reproducer no longer trips the fault:\n{text}"
    );
    // …and the real engine is clean on it: the violation was the fault,
    // not the scenario
    assert!(check(&replayed).is_empty());
}

/// Not a test of the tree — the bless workflow. Run explicitly to
/// regenerate the seed-derived corpus files after a deliberate format or
/// engine change:
///
/// ```text
/// cargo test -p gridsteer_fuzz --test fuzz_regressions -- --ignored bless
/// ```
#[test]
#[ignore = "writes corpus files; run explicitly to bless"]
fn bless_seed_corpus() {
    let cfg = FuzzConfig::default();
    let all = Invariant::ALL;
    let mut picks: Vec<(&str, Scenario)> = Vec::new();
    let mut chain = None;
    let mut sharded = None;
    let mut relayed = None;
    for seed in 0..256u64 {
        let s = generate(seed, &cfg);
        let script = s.to_script();
        if chain.is_none() && gridsteer_fuzz::clean_crash_chain(&s) {
            chain = Some(s);
        } else if sharded.is_none() && s.shard_count() > 1 && script.contains("backend pepc") {
            sharded = Some(s);
        } else if relayed.is_none()
            && !s.relay_names().is_empty()
            && !s.viewer_names().is_empty()
            && script.contains("partition")
            && !script.contains(" crash")
        {
            relayed = Some(s);
        }
    }
    picks.push(("seed-crash-chain.scen", chain.expect("no chain seed")));
    picks.push((
        "seed-pepc-shards.scen",
        sharded.expect("no sharded pepc seed"),
    ));
    picks.push((
        "seed-relay-faults.scen",
        relayed.expect("no relay+fault seed"),
    ));
    for (file, s) in picks {
        let v = check(&s);
        assert!(v.is_empty(), "candidate {file} is not green: {v:?}");
        std::fs::write(corpus::corpus_dir().join(file), corpus::render(&s, &all)).unwrap();
        println!("blessed {file}");
    }
}
