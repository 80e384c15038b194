//! The benchmark's own tests: a tiny-size run of every workload and its
//! traced replay, negative controls for the output and fidelity checks,
//! and the metric list against `BENCHMARK.json`.

use gridsteer_exec::ExecPool;
use std::sync::Arc;
use steerbench::bench::{self, Request, END_TO_END, PER_LAYER};
use steerbench::replay::Skip;
use steerbench::workload::{Size, Workload, DEFAULT_SEED, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> Request {
    Request {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        skip: Skip::Nothing,
        pin_override: None,
    }
}

#[test]
fn every_workload_runs_checked_at_tiny_size() {
    for name in WORKLOADS {
        let o = bench::run(&tiny(name, false)).expect("tiny run");
        assert!(o.correct(), "{name}: {:?}", o.failures);
        // five set-ups, the reference and at least three timed runs
        assert!(o.attempted >= 9, "{name}: {} checked runs", o.attempted);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{name}");
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_workload_replays_faithfully_at_tiny_size() {
    for name in WORKLOADS {
        let o = bench::run(&tiny(name, true)).expect("tiny traced run");
        assert!(o.correct(), "{name}: {:?}", o.failures);
        assert_eq!(o.metrics.len(), PER_LAYER.len(), "{name}");
        let ticks = o
            .metrics
            .iter()
            .find(|m| m.name == "harness.ticks")
            .expect("tick count");
        assert!(ticks.value > 0.0, "{name}");
    }
}

#[test]
fn a_wrong_pinned_digest_fails_the_check() {
    let mut req = tiny("viewers_lbm", false);
    req.pin_override = Some("0123456789abcdef".into());
    let o = bench::run(&req).expect("run");
    assert!(!o.correct());
    assert_eq!(o.failed, o.attempted, "every run carries the wrong digest");
    assert!(
        o.failures.iter().any(|f| f.contains("digest")),
        "{:?}",
        o.failures
    );
}

#[test]
fn a_replay_that_skips_a_layer_call_fails_fidelity() {
    for (skip, count) in [
        (Skip::FirstPublish, "monitor_frames"),
        (Skip::FirstAdvance, "final_progress"),
    ] {
        let mut req = tiny("viewers_lbm", true);
        req.skip = skip;
        let o = bench::run(&req).expect("run");
        assert!(!o.correct(), "{skip:?} went unnoticed");
        assert!(o.failed > 0, "{skip:?}: a failed replay counts as failed");
        assert!(
            o.failures.iter().any(|f| f.contains(count)),
            "{skip:?}: {:?}",
            o.failures
        );
        assert!(
            o.failures.iter().all(|f| f.contains("replay")),
            "the engine's own runs stay correct: {:?}",
            o.failures
        );
    }
}

#[test]
fn the_generator_is_seeded() {
    let pool = Arc::new(ExecPool::new(1));
    let script = |seed| {
        Workload::generate("steer_ckpt", seed, Size::Full, 1)
            .expect("known workload")
            .scenario(pool.clone())
            .to_script()
    };
    assert_eq!(script(3), script(3));
    assert_ne!(script(3), script(4));
    assert!(Workload::generate("nope", 1, Size::Full, 1).is_err());
}

#[test]
fn the_crash_window_blacks_out_checkpoint_cuts() {
    let w = Workload::generate("steer_ckpt", 1, Size::Full, 1).expect("known workload");
    let ticks = w.duration.as_nanos() / w.sample_every.as_nanos();
    // a cut every live tick; the five ticks inside the crash window are dead
    assert_eq!(w.expected_cuts(), ticks - 5);
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for name in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "no extra metrics"
    );
}
