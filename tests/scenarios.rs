//! The tier-1 fault-scenario matrix.
//!
//! Every test here is one end-to-end steering run through the
//! `gridsteer_harness` scenario engine: N participants, a real simulation
//! backend (LBM or PEPC), per-client fault-injectable links — all driven by
//! the virtual clock and one seed. No wall-clock sleeps, no sockets; the
//! whole matrix replays byte-identically for fixed seeds.
//!
//! Covered fault axes (ISSUE 2 acceptance): packet loss, latency jitter,
//! partition + heal, client churn, master handoff under partition, mid-run
//! migration, both simulation backends, and the seed/digest determinism
//! contract.

use gridsteer::harness::Scenario;
use gridsteer::lbm::LbmConfig;
use gridsteer::netsim::{Link, SimTime};
use gridsteer::pepc::PepcConfig;

fn tiny_lbm() -> LbmConfig {
    LbmConfig {
        nx: 6,
        ny: 6,
        nz: 6,
        threads: 1,
        ..Default::default()
    }
}

fn tiny_pepc() -> PepcConfig {
    PepcConfig {
        n_target: 50,
        ranks: 2,
        ..PepcConfig::small()
    }
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

/// S1 — clean links: every sample arrives, latencies inside the §4.3
/// post-processing budget, nothing dropped.
#[test]
fn s1_baseline_lbm_clean_links() {
    let r = Scenario::named("s1-baseline")
        .seed(101)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::gwin())
        .participant("carol", Link::transatlantic())
        .duration(SimTime::from_secs(2))
        .run();
    assert_eq!(r.digest(), "aa3b48509ea28652");
    assert_eq!(r.broadcasts, 20);
    assert_eq!(r.total_drops(), 0);
    assert_eq!(r.total_deliveries(), 60);
    assert!(r.within_budget, "clean links must meet the 5s budget");
    assert!(r.within_skew, "one-frame divergence bound must hold");
    assert_eq!(r.final_progress, 20);
}

/// S2 — a mid-run loss burst on one client: that link (and only that
/// link) drops samples; steering through a healthy link still works.
#[test]
fn s2_packet_loss_burst_on_one_client() {
    let r = Scenario::named("s2-loss")
        .seed(102)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::transatlantic())
        .duration(SimTime::from_secs(4))
        .loss_at(ms(500), "bob", 500_000) // 50% for one second
        .loss_at(ms(1500), "bob", 0)
        .steer_at(ms(2000), "alice", "miscibility", 0.2)
        .run();
    assert_eq!(r.digest(), "61890a868141662b");
    let bob = &r.links.iter().find(|(n, _)| n == "bob").unwrap().1;
    let alice = &r.links.iter().find(|(n, _)| n == "alice").unwrap().1;
    assert!(bob.dropped > 0, "burst must drop something: {bob:?}");
    assert_eq!(alice.dropped, 0, "loss must stay on bob's link");
    assert_eq!(r.steers_applied, 1);
    assert!(r
        .session_events
        .iter()
        .any(|e| e.starts_with("Steered(alice,miscibility")));
}

/// S3 — heavy latency jitter: arrivals spread out (p99 > p50, nonzero
/// skew) but stay inside the post-processing budget — and a monitor-bus
/// viewer on the same jittery backbone still meets the §4.2
/// desktop-render budget (333 ms per frame) on every delivery.
#[test]
fn s3_latency_jitter_stays_in_budget() {
    use gridsteer::harness::Transport;
    let r = Scenario::named("s3-jitter")
        .seed(103)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::transatlantic())
        .viewer_via("desk", Link::transatlantic(), Transport::Visit)
        .duration(SimTime::from_secs(3))
        .jitter_at(SimTime::ZERO, "bob", ms(120))
        .jitter_at(SimTime::ZERO, "desk", ms(120))
        .run();
    assert_eq!(r.digest(), "c15129814f8d30b2");
    assert_eq!(r.total_drops(), 0);
    assert!(r.p99 > r.p50, "jitter must spread the percentiles");
    assert!(r.max_skew > SimTime::ZERO);
    assert!(r.within_budget, "120ms jitter is far inside the 5s budget");
    assert_eq!(r.post_budget_violations, 0);
    // the desktop-render budget, scored per delivery on the virtual clock
    let desk = r.viewer("desk").unwrap();
    assert_eq!(desk.budget, "desktop-render");
    assert!(desk.delivered > 0);
    assert_eq!(
        desk.budget_violations, 0,
        "75ms latency + 120ms jitter stays under 333ms: {desk:?}"
    );
    assert!(desk.max_latency <= SimTime::from_millis(333));
}

/// S4 — partition + heal: during the partition window the client receives
/// nothing; after healing, deliveries resume.
#[test]
fn s4_partition_and_heal() {
    let r = Scenario::named("s4-partition")
        .seed(104)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::gwin())
        .duration(SimTime::from_secs(3))
        .partition_at(ms(1000), "bob")
        .heal_at(ms(2000), "bob")
        .run();
    assert_eq!(r.digest(), "1b9c1d79cf2070d1");
    let bob = &r.links.iter().find(|(n, _)| n == "bob").unwrap().1;
    // samples at 1.1s..2.0s fall in the window: exactly 10 drops
    assert_eq!(bob.dropped, 10, "{bob:?}");
    assert_eq!(bob.delivered, 20, "deliveries resume after heal");
    assert!(r.engine_events.iter().any(|e| e.contains("partition bob")));
    assert!(r.engine_events.iter().any(|e| e.contains("heal bob")));
}

/// S5 — client churn: joins and leaves mid-run, including the master, and
/// the session stays steerable throughout.
#[test]
fn s5_client_churn_keeps_session_steerable() {
    let r = Scenario::named("s5-churn")
        .seed(105)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::gwin())
        .duration(SimTime::from_secs(3))
        .join_at(ms(500), "carol", Link::transatlantic())
        .leave_at(ms(1000), "alice") // master departs → bob promoted
        .join_at(ms(1500), "dave", Link::uk_janet())
        .leave_at(ms(2000), "carol")
        .steer_at(ms(2200), "bob", "miscibility", 0.4)
        .run();
    assert_eq!(r.digest(), "21b6a388436ffa08");
    assert!(r
        .session_events
        .contains(&"MasterPassed(alice->bob)".to_string()));
    assert_eq!(r.steers_applied, 1, "promoted master must steer");
    for name in ["carol", "dave"] {
        assert!(
            r.links.iter().any(|(n, s)| n == name && s.delivered > 0),
            "{name} never got a sample"
        );
    }
    assert!(r.session_events.contains(&"Left(carol)".to_string()));
}

/// S6 — master handoff under partition: the master's link is cut, their
/// steer is lost in transit, they leave, and the longest-joined remaining
/// participant takes the token and steers successfully.
#[test]
fn s6_master_handoff_under_partition() {
    let r = Scenario::named("s6-handoff")
        .seed(106)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::gwin())
        .participant("carol", Link::transatlantic())
        .duration(SimTime::from_secs(3))
        .partition_at(ms(400), "alice")
        .steer_at(ms(600), "alice", "miscibility", 0.7) // lost in transit
        .leave_at(ms(1000), "alice")
        .steer_at(ms(1500), "bob", "miscibility", 0.3)
        .run();
    assert_eq!(r.digest(), "f0350e2a47f0a2e9");
    assert_eq!(r.steers_lost, 1);
    assert_eq!(r.steers_applied, 1);
    assert!(r.engine_events.iter().any(|e| e.contains("steer-lost")));
    assert!(r
        .session_events
        .contains(&"MasterPassed(alice->bob)".to_string()));
    assert!(r
        .session_events
        .iter()
        .any(|e| e.starts_with("Steered(bob,miscibility")));
}

/// S7 — mid-run migration: a checkpoint-sized transfer pauses the sample
/// stream for a gap that stays inside the §4.4 simulation-loop budget, and
/// the run continues afterwards.
#[test]
fn s7_midrun_migration_lbm() {
    let r = Scenario::named("s7-migration")
        .seed(107)
        .lbm(tiny_lbm())
        .participant("alice", Link::uk_janet())
        .participant("bob", Link::gwin())
        .duration(SimTime::from_secs(6))
        .steer_at(ms(500), "alice", "miscibility", 0.1)
        .migrate_at(ms(1000), "london", "phoenix")
        .run();
    assert_eq!(r.digest(), "aa895863ae19150d");
    assert_eq!(r.migrations.len(), 1);
    let m = &r.migrations[0];
    assert!(m.bytes > 0);
    assert!(
        r.migrations_within_budget(),
        "gap {} busts the 60s tolerance",
        m.gap
    );
    assert!(r.broadcasts_skipped > 0, "blackout must skip sample ticks");
    assert!(
        r.broadcasts > 10,
        "sampling must resume after the gap: {}",
        r.broadcasts
    );
    assert_eq!(r.steers_applied, 1, "steer before migration must apply");
}

/// S8 — the PEPC backend under loss: plasma samples fan out, a damping
/// steer lands, and drops are confined to the lossy link.
#[test]
fn s8_pepc_backend_with_loss() {
    let r = Scenario::named("s8-pepc-loss")
        .seed(108)
        .pepc(tiny_pepc())
        .participant("juelich", Link::gwin())
        .participant("phoenix", Link::transatlantic())
        .duration(SimTime::from_secs(2))
        .loss_at(SimTime::ZERO, "phoenix", 300_000)
        .steer_at(ms(700), "juelich", "damping", 0.5)
        .run();
    assert_eq!(r.digest(), "87279ef43c4ab7a8");
    assert_eq!(r.backend, "pepc");
    assert!(r.broadcasts > 0);
    let phx = &r.links.iter().find(|(n, _)| n == "phoenix").unwrap().1;
    let jue = &r.links.iter().find(|(n, _)| n == "juelich").unwrap().1;
    assert!(phx.dropped > 0, "30% loss over 20 samples: {phx:?}");
    assert_eq!(jue.dropped, 0);
    assert!(r
        .session_events
        .iter()
        .any(|e| e.starts_with("Steered(juelich,damping")));
}

/// S9 — PEPC with jitter and churn: a second steerer joins, takes the
/// token, and steers the laser while arrivals jitter.
#[test]
fn s9_pepc_jitter_and_token_pass() {
    let r = Scenario::named("s9-pepc-jitter")
        .seed(109)
        .pepc(tiny_pepc())
        .participant("juelich", Link::gwin())
        .duration(SimTime::from_secs(2))
        .jitter_at(SimTime::ZERO, "juelich", ms(40))
        .join_at(ms(400), "stuttgart", Link::gwin())
        .pass_master_at(ms(800), "juelich", "stuttgart")
        .steer_at(ms(1200), "stuttgart", "laser_amplitude", 2.5)
        .run();
    assert_eq!(r.digest(), "103bbcb0a9f4d3bb");
    assert!(r
        .session_events
        .contains(&"MasterPassed(juelich->stuttgart)".to_string()));
    assert!(r
        .session_events
        .iter()
        .any(|e| e.starts_with("Steered(stuttgart,laser_amplitude")));
    assert!(r.p99 > SimTime::ZERO);
    assert!(r.within_budget);
}

/// S10 — combined stress: loss + jitter + partition/heal + token pass +
/// migration in a single run, and the report digest is reproducible.
#[test]
fn s10_combined_stress_is_reproducible() {
    let build = || {
        Scenario::named("s10-stress")
            .seed(110)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .participant("bob", Link::transatlantic())
            .participant("carol", Link::gwin())
            .duration(SimTime::from_secs(6))
            .loss_at(SimTime::ZERO, "bob", 150_000)
            .jitter_at(SimTime::ZERO, "carol", ms(60))
            .partition_at(ms(800), "carol")
            .heal_at(ms(1600), "carol")
            .pass_master_at(ms(2000), "alice", "carol")
            .steer_at(ms(2400), "carol", "miscibility", 0.15)
            .migrate_at(ms(3000), "manchester", "stuttgart")
    };
    let r1 = build().run();
    let r2 = build().run();
    assert_eq!(r1.digest(), "605542cfd25a7abe");
    assert_eq!(r1.render(), r2.render(), "stress run must replay exactly");
    assert_eq!(r1.digest(), r2.digest());
    assert!(r1.broadcasts > 0);
    assert_eq!(r1.steers_applied, 1);
    assert_eq!(r1.migrations.len(), 1);
}

/// Determinism regression (ISSUE 2 satellite): one seed run twice gives a
/// byte-identical report and digest — across backends.
#[test]
fn determinism_same_seed_identical_digest() {
    for (label, backend_is_pepc) in [("lbm", false), ("pepc", true)] {
        let build = || {
            let s = Scenario::named("det-regression")
                .seed(4242)
                .participant("alice", Link::uk_janet())
                .participant("bob", Link::transatlantic())
                .duration(SimTime::from_secs(2))
                .loss_at(SimTime::ZERO, "bob", 200_000)
                .jitter_at(SimTime::ZERO, "alice", ms(30))
                .steer_at(ms(900), "alice", "miscibility", 0.5);
            if backend_is_pepc {
                s.pepc(tiny_pepc())
                    .steer_at(ms(1100), "alice", "damping", 0.2)
            } else {
                s.lbm(tiny_lbm())
            }
        };
        let r1 = build().run();
        let r2 = build().run();
        assert_eq!(r1.render(), r2.render(), "{label}: report not byte-stable");
        assert_eq!(r1.digest(), r2.digest(), "{label}: digest drifted");
    }
}

/// Determinism regression, second half: a different seed re-derives every
/// stream, so a faulted scenario observably diverges — not just in the
/// digest but in actual behaviour (drop counts / latency percentiles).
#[test]
fn determinism_different_seed_diverges() {
    let build = |seed: u64| {
        Scenario::named("det-divergence")
            .seed(seed)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .participant("bob", Link::transatlantic())
            .duration(SimTime::from_secs(3))
            .loss_at(SimTime::ZERO, "bob", 400_000)
            .jitter_at(SimTime::ZERO, "alice", ms(50))
            .run()
    };
    let r1 = build(7);
    let r2 = build(8);
    assert_ne!(r1.digest(), r2.digest());
    assert!(
        r1.total_drops() != r2.total_drops() || r1.p50 != r2.p50,
        "different seeds must change observable behaviour"
    );
}

/// S11 — the mixed-transport interop run (ISSUE 4 tentpole): one LBM
/// session steered concurrently through VISIT, OGSA, COVISE and UNICORE
/// bus endpoints under injected loss. The report digest must be
/// byte-stable across re-runs and across executor pool sizes (the
/// EXEC_THREADS=1-vs-8 CI matrix re-runs this whole file).
#[test]
fn s11_mixed_transport_interop() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s11-mixed-transport")
            .seed(111)
            .lbm(tiny_lbm())
            .participant_via("alice", Link::uk_janet(), Transport::Visit)
            .participant_via("bob", Link::transatlantic(), Transport::Ogsa)
            .participant_via("carol", Link::gwin(), Transport::Covise)
            .participant_via("dave", Link::uk_janet(), Transport::Unicore)
            .join_at(ms(200), "eve", Link::transatlantic())
            .duration(SimTime::from_secs(4))
            .loss_at(ms(300), "eve", 500_000) // heavy loss on a viewer
            .loss_at(SimTime::ZERO, "bob", 100_000) // mild loss on a steerer
            .steer_at(ms(400), "alice", "miscibility", 0.8)
            .pass_master_at(ms(700), "alice", "bob")
            .steer_at(ms(1000), "bob", "miscibility", 0.6)
            .pass_master_at(ms(1400), "bob", "carol")
            .steer_at(ms(1800), "carol", "miscibility", 0.4)
            .pass_master_at(ms(2200), "carol", "dave")
            .steer_at(ms(2600), "dave", "miscibility", 0.2)
    };
    let r1 = build().run();
    let r2 = build().run();
    assert_eq!(r1.digest(), "522689e4184f8ce3");
    // byte-stable digest: identical across re-runs…
    assert_eq!(r1.render(), r2.render(), "mixed-transport run must replay");
    assert_eq!(r1.digest(), r2.digest());
    // …and across executor pool sizes (thread-count independence)
    let r_serial = build().pool(gridsteer_exec::shared(1)).run();
    let r_wide = build().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    // all four middleware endpoints attached with negotiated handshakes
    for needle in [
        "attach alice transport=visit",
        "attach bob transport=ogsa",
        "attach carol transport=covise",
        "attach dave transport=unicore",
    ] {
        assert!(
            r1.engine_events.iter().any(|e| e.contains(needle)),
            "missing handshake {needle:?} in {:?}",
            r1.engine_events
        );
    }
    // COVISE's module surface is scalar-only: its negotiated capability
    // set must exclude vec3/str while the VISIT one carries everything
    let caps_of = |who: &str| {
        r1.engine_events
            .iter()
            .find(|e| e.contains(&format!("attach {who}")))
            .unwrap()
            .clone()
    };
    assert!(caps_of("carol").contains("kinds=f64+i64+bool "));
    assert!(caps_of("alice").contains("kinds=f64+i64+bool+vec3+str "));
    // steering worked across transports: every steer either applied or
    // was (deterministically) lost on a faulted link, and at least three
    // different masters actually steered the simulation
    assert_eq!(r1.steers_applied + r1.steers_lost, 4);
    let steerers: Vec<&str> = ["alice", "bob", "carol", "dave"]
        .into_iter()
        .filter(|who| {
            r1.session_events
                .iter()
                .any(|e| e.starts_with(&format!("Steered({who},miscibility")))
        })
        .collect();
    assert!(
        steerers.len() >= 3,
        "need steers over ≥3 transports, got {steerers:?}"
    );
    // the injected loss bit: eve's viewer link must actually drop samples
    let eve = &r1.links.iter().find(|(n, _)| n == "eve").unwrap().1;
    assert!(eve.dropped > 0, "heavy loss must drop something: {eve:?}");
}

/// S12 — the mixed-transport *viewer* fan-out (ISSUE 5 tentpole): one LBM
/// session publishes its monitored output through the monitor bus to
/// VISIT + OGSA + COVISE + UNICORE subscribers under injected loss. The
/// digest (which folds every received frame's bytes) must be byte-stable
/// across re-runs and across executor pool sizes, and every delivery must
/// meet the §4.2 desktop-render budget.
#[test]
fn s12_mixed_transport_viewer_fanout() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s12-viewer-fanout")
            .seed(112)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .viewer_via("vis", Link::uk_janet(), Transport::Visit)
            .viewer_via("ogsa", Link::transatlantic(), Transport::Ogsa)
            .viewer_via("cov", Link::gwin(), Transport::Covise)
            .viewer_via("uni", Link::uk_janet(), Transport::Unicore)
            .viewer_every("uni", 2) // a polling consumer takes every 2nd
            .duration(SimTime::from_secs(4))
            .loss_at(ms(300), "ogsa", 400_000) // heavy loss on one viewer
            .partition_at(ms(1500), "vis")
            .heal_at(ms(2200), "vis")
            .steer_at(ms(800), "alice", "miscibility", 0.35)
    };
    let r1 = build().run();
    let r2 = build().run();
    assert_eq!(r1.digest(), "7542d4fbbf94db27");
    // byte-stable digest: identical across re-runs…
    assert_eq!(r1.render(), r2.render(), "viewer fan-out must replay");
    assert_eq!(r1.digest(), r2.digest());
    // …and across executor pool sizes (thread-count independence)
    let r_serial = build().pool(gridsteer_exec::shared(1)).run();
    let r_wide = build().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    // all four middleware subscribers attached with negotiated handshakes
    for needle in [
        "attach-viewer vis budget=desktop-render transport=visit",
        "attach-viewer ogsa budget=desktop-render transport=ogsa",
        "attach-viewer cov budget=desktop-render transport=covise",
        "attach-viewer uni budget=desktop-render transport=unicore",
    ] {
        assert!(
            r1.engine_events.iter().any(|e| e.contains(needle)),
            "missing handshake {needle:?} in {:?}",
            r1.engine_events
        );
    }
    // COVISE's data plane takes only grids: negotiation must have
    // narrowed its capability set, and the hub must have filtered the
    // scalar/vec3 channels rather than shipping them
    let cov_attach = r1
        .engine_events
        .iter()
        .find(|e| e.contains("attach-viewer cov"))
        .unwrap();
    assert!(cov_attach.contains("kinds=grid2+grid3"), "{cov_attach}");
    let cov = r1.viewer("cov").unwrap();
    assert!(cov.filtered > 0, "scalars must be filtered for covise");
    // the full-caps VISIT viewer sees every channel while its link is up
    let vis = r1.viewer("vis").unwrap();
    assert!(vis.delivered > 0);
    assert!(
        vis.dropped > 0,
        "partition window must drop frames: {vis:?}"
    );
    // deterministic loss on the OGSA viewer's transatlantic link
    let og = r1.viewer("ogsa").unwrap();
    assert!(og.dropped > 0, "40% loss must drop something: {og:?}");
    // the polling UNICORE consumer is decimated, not starved
    let uni = r1.viewer("uni").unwrap();
    assert!(uni.decimated > 0);
    assert!(uni.delivered > 0);
    // every received frame stream is distinct and byte-folded
    let digests: Vec<&str> = ["vis", "ogsa", "cov", "uni"]
        .iter()
        .map(|n| r1.viewer(n).unwrap().frames_digest.as_str())
        .collect();
    assert!(digests.iter().all(|d| *d != "0000000000000000"));
    // zero desktop-render budget violations across every transport
    assert!(
        r1.viewers_within_budget(),
        "budget violations: {:?}",
        r1.viewers
    );
    assert_eq!(r1.post_budget_violations, 0);
    // the steer landed while the data plane was under fault
    assert_eq!(r1.steers_applied, 1);
    assert!(r1.monitor_frames > 0);
}

/// S13 — viewer churn (ISSUE 7 bugfix): a monitor subscriber leaves
/// mid-scenario through the hub's detach path — its delivery stream
/// freezes at the leave, its epoch state is pruned rather than leaked —
/// then a new viewer joins late and is served from the current state.
/// The whole churn sequence replays byte-identically across re-runs and
/// executor pool sizes.
#[test]
fn s13_viewer_churn_detaches_cleanly() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s13-viewer-churn")
            .seed(113)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .viewer_via("quitter", Link::gwin(), Transport::Visit)
            .viewer_via("stayer", Link::gwin(), Transport::Visit)
            .duration(SimTime::from_secs(4))
            .viewer_leave_at(ms(1700), "quitter")
            .viewer_leave_at(ms(1800), "ghost") // unknown: counted as a miss
            .viewer_join_at(ms(2600), "late", Link::uk_janet(), Transport::Unicore)
            .steer_at(ms(900), "alice", "miscibility", 0.3)
    };
    let r1 = build().run();
    let r2 = build().run();
    assert_eq!(r1.digest(), "9db84081a7b7a475");
    assert_eq!(
        r1.render(),
        r2.render(),
        "churn must replay byte-identically"
    );
    let r_serial = build().pool(gridsteer_exec::shared(1)).run();
    let r_wide = build().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    // the leave froze the quitter's stream: identical links, so the
    // stayer keeps receiving everything the quitter no longer does
    let quitter = r1.viewer("quitter").unwrap();
    let stayer = r1.viewer("stayer").unwrap();
    assert!(quitter.delivered > 0, "frames flowed before the leave");
    assert!(
        stayer.delivered > quitter.delivered,
        "no frames after the leave: {quitter:?} vs {stayer:?}"
    );
    assert!(r1
        .engine_events
        .iter()
        .any(|e| e.contains("viewer-leave quitter")));
    assert!(r1
        .engine_events
        .iter()
        .any(|e| e.contains("viewer-leave-miss ghost")));
    // the late joiner attached mid-run and still got a stream
    let late = r1.viewer("late").unwrap();
    assert!(late.delivered > 0, "late viewer starves: {late:?}");
    assert!(late.delivered < stayer.delivered);
    assert_ne!(late.frames_digest, "0000000000000000");
    assert_eq!(r1.steers_applied, 1);
}

/// S14 — hierarchical relay fabric (ISSUE 7 tentpole): the origin feeds a
/// region relay which feeds an edge relay; viewers hang off the edge over
/// mixed transports while one control client steers. The region uplink is
/// partitioned and healed (dropped batches are counted per tier, never
/// invented), the edge tier decimates a polling consumer, and a late
/// viewer is served its catch-up keyframe from the edge cache instead of
/// re-raising to the origin. Digest byte-stable across re-runs and pools.
#[test]
fn s14_relay_tier_fanout_under_faults() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s14-relay-tier")
            .seed(114)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .relay("region", Link::campus())
            .relay_under("edge", "region", Link::uk_janet())
            .relay_every("edge", 2) // the edge tier thins its children
            .viewer_at_relay("vis", "edge", Link::gwin(), Transport::Visit)
            .viewer_at_relay("cov", "edge", Link::gwin(), Transport::Covise)
            .viewer_via("direct", Link::gwin(), Transport::Ogsa)
            .duration(SimTime::from_secs(4))
            .partition_at(ms(1200), "region")
            .heal_at(ms(2000), "region")
            .viewer_join_relay_at(
                ms(2800),
                "late",
                "edge",
                Link::uk_janet(),
                Transport::Unicore,
            )
            .steer_at(ms(800), "alice", "miscibility", 0.35)
    };
    let r1 = build().run();
    let r2 = build().run();
    assert_eq!(r1.digest(), "852a27a856d6bb2b");
    assert_eq!(r1.render(), r2.render(), "relay tree must replay");
    let r_serial = build().pool(gridsteer_exec::shared(1)).run();
    let r_wide = build().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    // tier accounting: the partition window drops region uplink batches,
    // and every ingested frame is either forwarded or decimated
    let region = r1.relay("region").unwrap();
    let edge = r1.relay("edge").unwrap();
    assert_eq!(region.parent, None);
    assert_eq!(edge.parent.as_deref(), Some("region"));
    assert!(region.uplink_dropped > 0, "partition must drop: {region:?}");
    assert_eq!(region.ingested, region.forwarded + region.decimated);
    assert!(edge.decimated > 0, "edge tier must thin: {edge:?}");
    assert_eq!(edge.ingested, edge.forwarded + edge.decimated);
    // the late joiner was served from the edge cache, not the origin
    assert!(edge.keyframes_served > 0, "late join must hit the cache");
    assert!(r1
        .engine_events
        .iter()
        .any(|e| e.contains("attach-viewer late via=edge")));
    let late = r1.viewer("late").unwrap();
    assert!(late.delivered > 0, "late viewer starves: {late:?}");
    // edge viewers and the directly-attached one all saw real bytes
    for name in ["vis", "cov", "direct", "late"] {
        assert_ne!(
            r1.viewer(name).unwrap().frames_digest,
            "0000000000000000",
            "{name} got nothing"
        );
    }
    // COVISE still negotiates grids-only through the relay tier
    let cov = r1.viewer("cov").unwrap();
    assert!(cov.filtered > 0, "scalars must be filtered for covise");
    // steering flows through the session plane regardless of the tree
    assert_eq!(r1.steers_applied, 1);
    assert!(r1.monitor_frames > 0);
}

/// S15 — crash + restore (ISSUE 9 tentpole): the whole process state is
/// checkpointed every 500 ms on the virtual clock; the process dies at
/// 1050 ms and is rebuilt at 1080 ms from the 1000 ms snapshot — backend
/// field state from raw float bits, hub registry and counters, session
/// shards, monitor fan-out — with the WAN clients and viewer
/// reconnecting. Nothing happened between cut and crash, so the restored
/// run's report digest is byte-identical to an uncrashed twin, across
/// re-runs and executor pool sizes. A *stale* checkpoint (sample ticks
/// ran past the cut before the crash) must observably rewind instead.
#[test]
fn s15_crash_restore_digest_equivalent_resume() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s15-crash-restore")
            .seed(115)
            .lbm(tiny_lbm())
            .participant("alice", Link::wan())
            .participant("bob", Link::wan())
            .viewer_via("desk", Link::wan(), Transport::Visit)
            .duration(SimTime::from_secs(3))
            .checkpoint_every(ms(500))
            .steer_at(ms(250), "alice", "miscibility", 0.4)
            .steer_at(ms(1450), "alice", "miscibility", 0.2)
    };
    let smooth = build().run();
    let recovered = || build().crash_at(ms(1050)).restore_at(ms(1080));
    let r1 = recovered().run();
    assert_eq!(r1.digest(), "b0d44ad8ade31532");
    assert_eq!(
        smooth.render(),
        r1.render(),
        "recovery from an up-to-date checkpoint must be invisible"
    );
    assert_eq!(smooth.digest(), r1.digest());
    // …and stays invisible across re-runs and pool sizes
    let r2 = recovered().run();
    let r_serial = recovered().pool(gridsteer_exec::shared(1)).run();
    let r_wide = recovered().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.render(), r2.render());
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    // both steers landed — including the one issued *after* the restore,
    // through a reconnected endpoint
    assert_eq!(r1.steers_applied, 2);
    // negative control: crash at 1250 ms leaves ticks 1100/1200 stranded
    // past the 1000 ms cut; the restore rewinds the backend, the report
    // diverges and progress is provably lost
    let stale = build().crash_at(ms(1250)).restore_at(ms(1280)).run();
    assert_eq!(stale.digest(), "5bbb78473d310510");
    assert_ne!(smooth.digest(), stale.digest());
    assert!(
        stale.final_progress < smooth.final_progress,
        "stale restore must rewind: {} vs {}",
        stale.final_progress,
        smooth.final_progress
    );
}

/// S16 — delta-checkpoint restore (ISSUE 9): a 300 ms cadence cuts a full
/// snapshot at 300 ms and dirty-chunk deltas at 600 ms and 900 ms. The
/// crash at 950 ms is recovered at 980 ms by decoding the head and
/// folding both deltas — and still replays byte-identically to a run
/// that never checkpointed at all, across pool sizes, with relay-tier
/// monitor state restored mid-stream.
#[test]
fn s16_delta_checkpoint_chain_restore() {
    use gridsteer::harness::Transport;
    let build = || {
        Scenario::named("s16-delta-restore")
            .seed(116)
            .lbm(tiny_lbm())
            .participant("alice", Link::wan())
            .relay("region", Link::campus())
            .viewer_at_relay("leaf", "region", Link::wan(), Transport::Visit)
            .viewer_via("direct", Link::wan(), Transport::Covise)
            .duration(SimTime::from_secs(3))
            .steer_at(ms(250), "alice", "miscibility", 0.35)
            .steer_at(ms(1150), "alice", "miscibility", 0.15)
    };
    let smooth = build().run();
    let recovered = || {
        build()
            .checkpoint_every(ms(300))
            .crash_at(ms(950))
            .restore_at(ms(980))
    };
    let r1 = recovered().run();
    assert_eq!(r1.digest(), "8527fd1823a60262");
    assert_eq!(
        smooth.render(),
        r1.render(),
        "delta-chain recovery must be invisible"
    );
    let r_serial = recovered().pool(gridsteer_exec::shared(1)).run();
    let r_wide = recovered().pool(gridsteer_exec::shared(8)).run();
    assert_eq!(r1.digest(), r_serial.digest());
    assert_eq!(r1.digest(), r_wide.digest());
    assert_eq!(r1.steers_applied, 2, "post-restore steer must land");
    // the relay tier kept streaming across the restore
    let region = r1.relay("region").unwrap();
    assert!(region.ingested > 0);
    assert_eq!(region.ingested, region.forwarded + region.decimated);
    assert_ne!(r1.viewer("leaf").unwrap().frames_digest, "0000000000000000");
}
