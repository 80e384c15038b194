//! One benchmark invocation: set-up, checked timed runs, and (traced
//! mode) the per-layer replay.

use crate::check::{check_report, expected_digest, fidelity, refused};
use crate::host::{peak_rss_mb, Host};
use crate::replay::{replay, ReplayOutcome, Skip};
use crate::trace::{now, secs_since, Span, Tracer};
use crate::workload::{Size, Workload};
use gridsteer_exec::ExecPool;
use gridsteer_harness::{Scenario, ScenarioReport};
use std::sync::Arc;

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 5;

/// Executor pool size, the calling thread included: one thread per core
/// the process may run on.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Timed runs per invocation, at least (more if `--seconds` allows).
const MIN_RUNS: usize = 3;

/// The layer spans' self times must account for at least this share of
/// the traced replay loop's wall time.
pub const COVERAGE_FLOOR_PCT: f64 = 90.0;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("steers_per_s", "1/s"),
    ("sample_latency_p99_ms", "ms"),
    ("viewer_latency_max_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("loss_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("lbm.step_us", "us"),
    ("lbm.mlups", "Mlup/s"),
    ("lbm.bytes_per_step_computed", "B"),
    ("pepc.step_us", "us"),
    ("pepc.interactions_per_step", "count"),
    ("monitor.publish_us", "us"),
    ("monitor.frames_published", "count"),
    ("monitor.bytes_published", "B"),
    ("monitor.recv_us", "us"),
    ("monitor.filtered", "count"),
    ("monitor.decimated", "count"),
    ("relay.ingest_us", "us"),
    ("relay.recv_child_us", "us"),
    ("relay.forwarded", "count"),
    ("relay.decimated", "count"),
    ("relay.shed", "count"),
    ("relay.keyframes_served", "count"),
    ("relay.uplink_dropped", "count"),
    ("netsim.deliver_calls", "count"),
    ("netsim.deliver_us", "us"),
    ("netsim.bytes_offered", "B"),
    ("netsim.dropped", "count"),
    ("bus.stage_us", "us"),
    ("bus.stage_calls", "count"),
    ("bus.commit_us", "us"),
    ("bus.commit_calls", "count"),
    ("bus.refused", "count"),
    ("core.session_broadcast_us", "us"),
    ("core.session_steer_us", "us"),
    ("ckpt.save_us", "us"),
    ("ckpt.encode_full_us", "us"),
    ("ckpt.encode_delta_us", "us"),
    ("ckpt.restore_us", "us"),
    ("ckpt.bytes_full", "B"),
    ("ckpt.bytes_delta", "B"),
    ("ckpt.delta_ratio", "ratio"),
    ("harness.setup_ms", "ms"),
    ("harness.ticks", "count"),
    ("harness.tick_us_p50", "us"),
    ("harness.tick_us_p99", "us"),
    ("harness.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.glue_pct", "%"),
    ("trace.replays", "count"),
];

/// Bytes one LBM step moves per lattice node under the compulsory-traffic
/// model (8-byte doubles, D3Q19, two components): the density pass reads
/// 2·19 distributions and writes 2 densities; the velocity pass reads
/// 2·19 distributions and 2 densities and writes 6 velocity components;
/// the stream-collide pass reads 2·19 distributions, 2 densities and 6
/// velocities and writes 2·19 distributions. Computed, not measured.
pub const LBM_BYTES_PER_NODE: u64 = 8 * (2 * 19 + 2 + (2 * 19 + 2 + 6) + (2 * 19 + 2 + 6 + 2 * 19));

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// Workload name.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Replay deliberately broken (negative control).
    pub skip: Skip,
    /// Digest every run must give, overriding the pinned or reference one
    /// (negative control).
    pub pin_override: Option<String>,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An invocation's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Where it ran.
    pub host: Host,
    /// Checked runs: every `Scenario::run` (set-up, reference and timed)
    /// and, in traced mode, every replay and the coverage check.
    pub attempted: u64,
    /// Checked runs that failed.
    pub failed: u64,
    /// Every check failure, for the log.
    pub failures: Vec<String>,
    /// The metrics of the requested mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// Per-span totals of the median traced replay (traced mode only).
    pub spans: Vec<(Span, u64, f64, f64)>,
    /// Wall time of each timed run (end-to-end) or traced replay
    /// (per-layer), seconds, in run order.
    pub walls: Vec<f64>,
    /// Wall time of each set-up, seconds, in order.
    pub setups: Vec<f64>,
    /// Digest every run gave (the reference run's).
    pub digest: String,
}

impl Outcome {
    /// Share of runs that failed a check.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

fn ms(t: netsim::SimTime) -> f64 {
    t.as_nanos() as f64 / 1e6
}

/// The deterministic per-run figures of a report: what the wall-clock
/// rates divide by, and the virtual-time metrics.
struct RunFigures {
    ticks: f64,
    frames: f64,
    steers: f64,
    p99_ms: f64,
    latency_max_ms: f64,
    loss_ratio: f64,
}

fn figures(w: &Workload, r: &ScenarioReport) -> RunFigures {
    let issued = w.steers_issued();
    let lost_in_transit = r
        .engine_events
        .iter()
        .filter(|e| e.contains(" steer-lost ") || e.contains(" steer-offline "))
        .count() as u64;
    // participants' links carry the sample stream down and steers up
    let samples = r
        .total_deliveries()
        .saturating_sub(issued.saturating_sub(lost_in_transit));
    let viewer_frames: u64 = r.viewers.iter().map(|v| v.delivered).sum();
    let viewer_dropped: u64 = r.viewers.iter().map(|v| v.dropped).sum();
    let uplink_dropped: u64 = r.relays.iter().map(|x| x.uplink_dropped).sum();
    let uplink_offered: u64 = r.relays.iter().map(|x| x.ingested).sum::<u64>() + uplink_dropped;
    let lost = r.steers_lost + refused(r) + viewer_dropped + uplink_dropped;
    let offered = issued + viewer_frames + viewer_dropped + uplink_offered;
    let latency_max = r
        .viewers
        .iter()
        .map(|v| v.max_latency)
        .fold(r.max, |a, b| a.max(b));
    RunFigures {
        ticks: r.broadcasts as f64,
        frames: (viewer_frames + samples) as f64,
        steers: r.steers_applied as f64,
        p99_ms: ms(r.p99),
        latency_max_ms: ms(latency_max),
        loss_ratio: lost as f64 / offered.max(1) as f64,
    }
}

/// Checked-run bookkeeping shared by every mode.
struct Ledger {
    w: Workload,
    expected: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Count one checked run, failed if `fails` is not empty.
    fn count(&mut self, what: &str, fails: Vec<String>) {
        self.attempted += 1;
        if !fails.is_empty() {
            self.failed += 1;
            self.failures
                .extend(fails.into_iter().map(|f| format!("{what}: {f}")));
        }
    }

    fn record(&mut self, what: &str, report: &ScenarioReport) {
        let fails = check_report(&self.w, report, &self.expected);
        self.count(what, fails);
    }
}

fn timed_run(s: &Scenario) -> (ScenarioReport, f64) {
    let t = now();
    let r = s.run();
    (r, secs_since(t))
}

/// Run one invocation.
pub fn run(req: &Request) -> Result<Outcome, String> {
    let threads = pool_threads();
    let host = Host::detect(threads);

    // set-up, several times: generate the script, start the pool, warm up
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut armed: Option<(Workload, Scenario, Arc<ExecPool>)> = None;
    for _ in 0..SETUPS {
        let t = now();
        let w = Workload::generate(&req.workload, req.seed, req.size, threads)?;
        let pool = Arc::new(ExecPool::new(threads));
        let scenario = w.scenario(pool.clone());
        scenario
            .validate()
            .map_err(|e| format!("generated scenario is malformed: {e}"))?;
        let report = scenario.run();
        setups.push(secs_since(t));
        warm.push(report);
        armed = Some((w, scenario, pool));
    }
    let (w, scenario, pool) = armed.expect("at least one set-up");

    // the reference: one untimed run on a single-thread pool, so every
    // digest check is also a thread-count independence check
    let reference = w.scenario(Arc::new(ExecPool::new(1))).run();
    let digest = reference.digest();
    let expected = req
        .pin_override
        .clone()
        .unwrap_or_else(|| expected_digest(&w, &digest));
    let mut ledger = Ledger {
        w: w.clone(),
        expected,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    ledger.record("reference", &reference);
    for r in &warm {
        ledger.record("set-up", r);
    }

    // every run repeats the same work, so the set-up runs have already
    // reached the workload's peak
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let metrics = if req.trace {
        traced(req, &mut ledger, &scenario, pool)?
    } else {
        end_to_end(req, &mut ledger, &scenario, median(&setups), peak_rss)
    };
    let Ledger {
        attempted,
        failed,
        failures,
        ..
    } = ledger;
    Ok(Outcome {
        host,
        attempted,
        failed,
        failures,
        metrics: metrics.0,
        spans: metrics.1,
        walls: metrics.2,
        setups,
        digest,
    })
}

/// Metrics, the span table and the walls of the runs they rest on.
type Measured = (Vec<Metric>, Vec<(Span, u64, f64, f64)>, Vec<f64>);

fn end_to_end(
    req: &Request,
    ledger: &mut Ledger,
    scenario: &Scenario,
    setup_s: f64,
    peak_rss: f64,
) -> Measured {
    let start = now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < MIN_RUNS || secs_since(start) < req.seconds {
        let (report, wall) = timed_run(scenario);
        ledger.record("timed", &report);
        walls.push(wall);
        last = Some(report);
    }
    let f = figures(&ledger.w, &last.expect("at least one timed run"));
    let rate = |count: f64| count / median(&walls);
    let values = [
        setup_s,
        rate(f.ticks),
        rate(f.frames),
        rate(f.steers),
        f.p99_ms,
        f.latency_max_ms,
        peak_rss,
        f.loss_ratio,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    (metrics, Vec::new(), walls)
}

/// One traced replay's per-layer figures.
struct Layered {
    wall_s: f64,
    setup_s: f64,
    coverage: f64,
    glue: f64,
    per_call: Vec<(Span, u64, f64, f64)>,
    ticks: Vec<f64>,
}

fn traced(
    req: &Request,
    ledger: &mut Ledger,
    scenario: &Scenario,
    pool: Arc<ExecPool>,
) -> Result<Measured, String> {
    let w = ledger.w.clone();
    let start = now();
    let mut engine_walls = Vec::new();
    let mut plain: Vec<ReplayOutcome> = Vec::new();
    let mut layered: Vec<Layered> = Vec::new();
    let mut counts = None;
    while layered.len() < MIN_RUNS || secs_since(start) < req.seconds {
        let (report, wall) = timed_run(scenario);
        ledger.record("engine", &report);
        engine_walls.push(wall);
        let p = replay(&w, pool.clone(), &mut Tracer::off(), req.skip)?;
        let mut tr = Tracer::on();
        let t = replay(&w, pool.clone(), &mut tr, req.skip)?;
        for (what, o) in [("untraced replay", &p), ("traced replay", &t)] {
            ledger.count(what, fidelity(&w, &report, &o.counts));
        }
        counts = Some(t.counts.clone());
        // set-up is measured on its own (`harness.setup_ms`)
        let loop_s = t.wall_s - t.setup_s;
        let glue_s = tr.totals(Span::Tick).self_s + tr.totals(Span::Action).self_s;
        layered.push(Layered {
            wall_s: t.wall_s,
            setup_s: t.setup_s,
            coverage: tr.layer_self_s() / loop_s * 100.0,
            glue: glue_s / loop_s * 100.0,
            per_call: crate::trace::ALL_SPANS
                .iter()
                .map(|&s| {
                    let x = tr.totals(s);
                    (s, x.calls, x.self_s, x.total_s)
                })
                .collect(),
            ticks: tr.tick_walls.clone(),
        });
        plain.push(p);
    }
    let c = counts.expect("at least one replay");
    let med = |f: &dyn Fn(&Layered) -> f64| median(&layered.iter().map(f).collect::<Vec<_>>());
    // per-call self time of one span kind, median over traced replays
    let us = |span: Span| {
        med(&|l: &Layered| {
            let (_, calls, self_s, _) = l.per_call[span as usize];
            if calls == 0 {
                0.0
            } else {
                self_s * 1e6 / calls as f64
            }
        })
    };
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = med(&|l| l.wall_s);
    let engine_wall = median(&engine_walls);
    let coverage = med(&|l| l.coverage);
    let mut low = Vec::new();
    if coverage < COVERAGE_FLOOR_PCT {
        low.push(format!(
            "layer coverage {coverage:.1}% below the {COVERAGE_FLOOR_PCT}% floor"
        ));
    }
    ledger.count("trace", low);
    let all_ticks: Vec<f64> = layered
        .iter()
        .flat_map(|l| l.ticks.iter().copied())
        .collect();
    let nodes = match &w.backend {
        crate::workload::BackendSpec::Lbm(cfg) => (cfg.nx * cfg.ny * cfg.nz) as f64,
        crate::workload::BackendSpec::Pepc(_) => 0.0,
    };
    let lbm_step = us(Span::LbmStep);
    let deltas = c.ckpt_cuts.saturating_sub(1);
    let bytes_delta = if deltas == 0 {
        0.0
    } else {
        c.ckpt_bytes_delta as f64 / deltas as f64
    };
    let values: [f64; 45] = [
        lbm_step,
        if lbm_step > 0.0 {
            nodes / lbm_step
        } else {
            0.0
        },
        nodes * LBM_BYTES_PER_NODE as f64,
        us(Span::PepcStep),
        if c.final_progress > 0 && nodes == 0.0 {
            c.pepc_interactions as f64 / c.broadcasts.max(1) as f64
        } else {
            0.0
        },
        us(Span::Publish),
        c.monitor_frames as f64,
        c.monitor_bytes as f64,
        us(Span::MonitorRecv),
        c.monitor_filtered as f64,
        c.monitor_decimated as f64,
        us(Span::RelayIngest),
        us(Span::RelayRecvChild),
        c.relay_forwarded as f64,
        c.relay_decimated as f64,
        c.relay_shed as f64,
        c.relay_keyframes_served as f64,
        c.relay_uplink_dropped as f64,
        c.deliver_calls as f64,
        us(Span::Deliver),
        c.bytes_offered as f64,
        c.deliver_dropped as f64,
        us(Span::Stage),
        c.stage_calls as f64,
        us(Span::Commit),
        c.commit_calls as f64,
        c.refused as f64,
        us(Span::SessionBroadcast),
        us(Span::SessionSteer),
        us(Span::CkptSave),
        us(Span::CkptEncodeFull),
        us(Span::CkptEncodeDelta),
        us(Span::CkptRestore),
        c.ckpt_bytes_full as f64,
        bytes_delta,
        if c.ckpt_bytes_full == 0 {
            0.0
        } else {
            bytes_delta / c.ckpt_bytes_full as f64
        },
        med(&|l| l.setup_s) * 1e3,
        c.broadcasts as f64,
        percentile(&all_ticks, 0.5) * 1e6,
        percentile(&all_ticks, 0.99) * 1e6,
        (engine_wall - plain_wall) / engine_wall * 100.0,
        (traced_wall - plain_wall) / plain_wall * 100.0,
        coverage,
        med(&|l| l.glue),
        layered.len() as f64,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    // the span table of the replay whose wall is the median
    let mut order: Vec<usize> = (0..layered.len()).collect();
    order.sort_by(|&a, &b| layered[a].wall_s.total_cmp(&layered[b].wall_s));
    let spans = layered[order[order.len() / 2]].per_call.clone();
    let walls = layered.iter().map(|l| l.wall_s).collect();
    Ok((metrics, spans, walls))
}
