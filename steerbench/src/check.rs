//! Output checks: pinned digests, report accounting, replay fidelity.

use crate::replay::ReplayCounts;
use crate::workload::{Size, Workload, DEFAULT_SEED};
use gridsteer_harness::ScenarioReport;

/// `ScenarioReport::digest()` of each workload at [`DEFAULT_SEED`],
/// full size. A change here is a behaviour change of the engine, not of
/// the benchmark: re-pin only with a reason in the change log.
pub const PINNED: [(&str, &str); 4] = [
    ("viewers_lbm", "d2ffe77ce8db9a43"),
    ("relay_fanout", "43d7b289a133e582"),
    ("steer_ckpt", "be004ddbcb61aaba"),
    ("pepc_steer", "b60b09fe11908326"),
];

/// The pinned digest of workload `name`.
pub fn pinned_digest(name: &str) -> Option<&'static str> {
    PINNED.iter().find(|(n, _)| *n == name).map(|(_, d)| *d)
}

/// Steers the session shards refused: the report's applied/lost counters
/// leave refusals out, so they are counted from the audit log.
pub fn refused(report: &ScenarioReport) -> u64 {
    report
        .session_events
        .iter()
        .filter(|e| e.contains("SteerRefused("))
        .count() as u64
}

/// Check one `Scenario::run` report of workload `w`. `expected` is the
/// digest every run of this invocation must give. Returns the failures.
pub fn check_report(w: &Workload, report: &ScenarioReport, expected: &str) -> Vec<String> {
    let mut fails = Vec::new();
    let digest = report.digest();
    if digest != expected {
        fails.push(format!("digest {digest} != expected {expected}"));
    }
    for v in &report.probe_violations {
        fails.push(format!("probe violation: {v}"));
    }
    let ticks = w.duration.as_nanos() / w.sample_every.as_nanos();
    if report.broadcasts + report.broadcasts_skipped != ticks {
        fails.push(format!(
            "broadcasts {} + skipped {} != ticks {ticks}",
            report.broadcasts, report.broadcasts_skipped
        ));
    }
    for r in &report.relays {
        if r.ingested != r.forwarded + r.decimated {
            fails.push(format!(
                "relay {}: ingested {} != forwarded {} + decimated {}",
                r.name, r.ingested, r.forwarded, r.decimated
            ));
        }
    }
    let issued = w.steers_issued();
    let refused = refused(report);
    if issued != report.steers_applied + report.steers_lost + refused {
        fails.push(format!(
            "steers issued {issued} != applied {} + lost {} + refused {refused}",
            report.steers_applied, report.steers_lost
        ));
    }
    fails
}

/// The digest a run of `w` must give: the pinned one at the default seed
/// and full size, else `reference` (the invocation's single-thread run).
pub fn expected_digest(w: &Workload, reference: &str) -> String {
    match pinned_digest(w.name) {
        Some(d) if w.seed == DEFAULT_SEED && w.size == Size::Full => d.to_string(),
        _ => reference.to_string(),
    }
}

/// Replay fidelity: the replay's input-determined counts must equal the
/// engine's report for the same workload and seed. Returns the failures.
pub fn fidelity(w: &Workload, report: &ScenarioReport, c: &ReplayCounts) -> Vec<String> {
    // workloads never schedule a leave, so every staged steer is either
    // applied or refused at a commit
    let staged = report.steers_applied + refused(report);
    let viewer_delivered: u64 = report.viewers.iter().map(|v| v.delivered).sum();
    let viewer_dropped: u64 = report.viewers.iter().map(|v| v.dropped).sum();
    let relay_ingested: u64 = report.relays.iter().map(|r| r.ingested).sum();
    let pairs = [
        (
            "ticks",
            report.broadcasts + report.broadcasts_skipped,
            c.broadcasts + c.skipped,
        ),
        ("broadcasts", report.broadcasts, c.broadcasts),
        ("final_progress", report.final_progress, c.final_progress),
        ("monitor_frames", report.monitor_frames, c.monitor_frames),
        ("steers_staged", staged, c.steers_staged),
        ("steers_applied", report.steers_applied, c.steers_applied),
        ("checkpoint_cuts", w.expected_cuts(), c.ckpt_cuts),
        (
            "viewer_frames_delivered",
            viewer_delivered,
            c.viewer_delivered,
        ),
        ("viewer_frames_dropped", viewer_dropped, c.viewer_dropped),
        ("relay_frames_ingested", relay_ingested, c.relay_ingested),
    ];
    pairs
        .iter()
        .filter(|(_, engine, replay)| engine != replay)
        .map(|(what, engine, replay)| format!("replay {what} {replay} != engine {engine}"))
        .collect()
}
