//! The seeded workload generator: four named steering scenarios.
//!
//! A [`Workload`] is the benchmark's own description of one scenario. It
//! builds the [`Scenario`] that `Scenario::run` executes, and the traced
//! replay reads the same description, so both drive identical layer
//! objects. The `--seed` argument picks the scenario seed (link jitter and
//! loss streams, initial conditions) and the steered values; sizes and the
//! event timeline are fixed per workload, so every seed measures the same
//! amount of work.

use gridsteer_exec::ExecPool;
use gridsteer_harness::{Action, Scenario, Transport};
use lbm::LbmConfig;
use netsim::{Link, SimTime};
use pepc::PepcConfig;
use std::sync::Arc;
use steer_core::ParamValue;

/// Every workload name, in report order.
pub const WORKLOADS: [&str; 4] = ["viewers_lbm", "relay_fanout", "steer_ckpt", "pepc_steer"];

/// The seed the pinned digests in [`crate::check`] were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// The four monitor / steer middlewares (loopback is in-process only).
const WIRE_TRANSPORTS: [Transport; 4] = [
    Transport::Visit,
    Transport::Ogsa,
    Transport::Covise,
    Transport::Unicore,
];

/// Workload scale: `Full` is what the benchmark measures; `Tiny` keeps
/// every layer and event kind but shrinks grids, particle counts and
/// viewer counts so the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// The smoke-test size.
    Tiny,
}

/// Simulation backend of a workload.
#[derive(Debug, Clone)]
pub enum BackendSpec {
    /// Two-fluid lattice Boltzmann.
    Lbm(LbmConfig),
    /// PEPC tree code.
    Pepc(PepcConfig),
}

/// A steering participant present from t=0.
#[derive(Debug, Clone)]
pub struct ParticipantSpec {
    /// Site name.
    pub name: String,
    /// Link profile.
    pub link: Link,
    /// Steering transport.
    pub transport: Transport,
}

/// A monitor viewer declared at t=0.
#[derive(Debug, Clone)]
pub struct ViewerSpec {
    /// Viewer name.
    pub name: String,
    /// Link profile.
    pub link: Link,
    /// Monitor transport.
    pub transport: Transport,
    /// Requested decimation (every Nth admissible frame).
    pub every: u32,
    /// Relay tier the viewer hangs off (`None` = origin hub).
    pub relay: Option<String>,
}

/// A relay tier.
#[derive(Debug, Clone)]
pub struct RelaySpec {
    /// Relay name.
    pub name: String,
    /// Parent relay (`None` = fed by the origin hub).
    pub parent: Option<String>,
    /// Uplink profile.
    pub uplink: Link,
    /// Forward every Nth frame.
    pub every: u32,
}

/// One generated workload: everything `Scenario::run` and the replay need.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// The `--seed` it was generated from.
    pub seed: u64,
    /// The size it was generated at.
    pub size: Size,
    /// The scenario seed derived from it.
    pub scenario_seed: u64,
    /// Simulation backend.
    pub backend: BackendSpec,
    /// Steering participants, in join order.
    pub participants: Vec<ParticipantSpec>,
    /// Relay tiers, parents first.
    pub relays: Vec<RelaySpec>,
    /// Viewers, in declaration order.
    pub viewers: Vec<ViewerSpec>,
    /// Session shards.
    pub shards: usize,
    /// Sample (and step) interval.
    pub sample_every: SimTime,
    /// Virtual run length.
    pub duration: SimTime,
    /// Checkpoint cadence (`None` = no checkpoints).
    pub checkpoint_every: Option<SimTime>,
    /// Scripted actions, in insertion order.
    pub actions: Vec<(SimTime, Action)>,
}

/// Deterministic splitmix64 stream: the generator's only randomness.
struct Gen(u64);

impl Gen {
    fn new(seed: u64, name: &str) -> Gen {
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Gen(seed ^ salt)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`, rounded to 1e-6 so scripts stay readable.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e6).round() / 1e6
    }
}

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn steer(who: &str, param: &str, value: f64) -> Action {
    Action::Steer {
        who: who.to_string(),
        param: param.to_string(),
        value: ParamValue::F64(value),
    }
}

fn pass(from: &str, to: &str) -> Action {
    Action::PassMaster {
        from: from.to_string(),
        to: to.to_string(),
    }
}

fn lbm_cube(n: usize, threads: usize) -> LbmConfig {
    LbmConfig {
        nx: n,
        ny: n,
        nz: n,
        threads,
        ..Default::default()
    }
}

impl Workload {
    /// Generate workload `name` from `seed` at `size`. `threads` is the
    /// executor pool size the backend config is told about (the pool
    /// itself is handed over separately and never changes results).
    pub fn generate(name: &str, seed: u64, size: Size, threads: usize) -> Result<Workload, String> {
        let name: &'static str = WORKLOADS.iter().find(|w| **w == name).ok_or_else(|| {
            format!(
                "unknown workload {name:?} (one of {})",
                WORKLOADS.join(", ")
            )
        })?;
        let mut g = Gen::new(seed, name);
        let full = size == Size::Full;
        let mut w = Workload {
            name,
            seed,
            size,
            scenario_seed: g.next_u64(),
            backend: BackendSpec::Lbm(lbm_cube(16, threads)),
            participants: Vec::new(),
            relays: Vec::new(),
            viewers: Vec::new(),
            shards: 1,
            sample_every: ms(100),
            duration: SimTime::from_secs(if full { 10 } else { 3 }),
            checkpoint_every: None,
            actions: Vec::new(),
        };
        match name {
            "viewers_lbm" => w.viewers_lbm(&mut g, full, threads),
            "relay_fanout" => w.relay_fanout(&mut g, full, threads),
            "steer_ckpt" => w.steer_ckpt(&mut g, full, threads),
            _ => w.pepc_steer(&mut g, full),
        }
        Ok(w)
    }

    fn participant(&mut self, name: &str, link: Link, transport: Transport) {
        self.participants.push(ParticipantSpec {
            name: name.to_string(),
            link,
            transport,
        });
    }

    fn viewer(&mut self, name: &str, link: Link, transport: Transport, relay: Option<&str>) {
        self.viewers.push(ViewerSpec {
            name: name.to_string(),
            link,
            transport,
            every: 1,
            relay: relay.map(str::to_string),
        });
    }

    fn at(&mut self, t: SimTime, action: Action) {
        self.actions.push((t, action));
    }

    /// LBM 16³, two steerers (VISIT, OGSA) at 1 steer/s each with one
    /// master pass, four direct viewers (one per monitor transport, the
    /// UNICORE one decimated ×2), mild loss on one viewer link and a
    /// one-second outage on another.
    fn viewers_lbm(&mut self, g: &mut Gen, full: bool, threads: usize) {
        self.backend = BackendSpec::Lbm(lbm_cube(if full { 16 } else { 6 }, threads));
        self.participant("visit_site", Link::uk_janet(), Transport::Visit);
        self.participant("ogsa_site", Link::gwin(), Transport::Ogsa);
        let links = [Link::uk_janet(), Link::gwin(), Link::campus(), Link::wan()];
        for (tr, link) in WIRE_TRANSPORTS.iter().zip(links) {
            self.viewer(&format!("v_{}", tr.label()), link, *tr, None);
        }
        self.viewers[3].every = 2;
        let secs = self.duration.as_millis() / 1000;
        self.at(
            ms(1_050),
            Action::SetLoss {
                who: "v_ogsa".into(),
                ppm: 2_000,
            },
        );
        // the outage makes most of the loss deterministic, so loss_ratio
        // moves with the engine rather than with the seed's loss draws
        self.at(
            ms(secs * 300 + 50),
            Action::Partition {
                who: "v_covise".into(),
            },
        );
        self.at(
            ms(secs * 400 + 50),
            Action::Heal {
                who: "v_covise".into(),
            },
        );
        // the master steers; the other site steers too and is refused
        // until the token passes half-way through
        for k in 0..secs {
            self.at(
                ms(k * 1000 + 250),
                steer("visit_site", "miscibility", g.range(0.05, 0.95)),
            );
            self.at(
                ms(k * 1000 + 750),
                steer("ogsa_site", "miscibility", g.range(0.05, 0.95)),
            );
        }
        self.at(ms(secs * 500 + 50), pass("visit_site", "ogsa_site"));
    }

    /// LBM 8³, a region relay feeding two edge relays with 32 edge viewers
    /// over the four transports; one edge decimates, the other's uplink
    /// is partitioned and healed, and a late joiner is served from the
    /// edge keyframe cache. One steerer, a few of whose requests are out
    /// of range and refused.
    fn relay_fanout(&mut self, g: &mut Gen, full: bool, threads: usize) {
        self.backend = BackendSpec::Lbm(lbm_cube(if full { 8 } else { 6 }, threads));
        self.participant("steer_site", Link::uk_janet(), Transport::Visit);
        self.relays.push(RelaySpec {
            name: "region".into(),
            parent: None,
            uplink: Link::wan(),
            every: 1,
        });
        for (edge, link, every) in [("edge_a", Link::uk_janet(), 1), ("edge_b", Link::gwin(), 2)] {
            self.relays.push(RelaySpec {
                name: edge.into(),
                parent: Some("region".into()),
                uplink: link,
                every,
            });
        }
        let n_viewers = if full { 32 } else { 8 };
        for i in 0..n_viewers {
            let edge = if i % 2 == 0 { "edge_a" } else { "edge_b" };
            let tr = WIRE_TRANSPORTS[(i / 2) % 4];
            self.viewer(
                &format!("e{i:02}_{}", tr.label()),
                Link::campus(),
                tr,
                Some(edge),
            );
        }
        let secs = self.duration.as_millis() / 1000;
        for k in 0..secs {
            // every third request overshoots the [0,1] bound: refused
            let v = if k % 3 == 2 {
                g.range(1.5, 2.0)
            } else {
                g.range(0.05, 0.95)
            };
            self.at(ms(k * 1000 + 350), steer("steer_site", "miscibility", v));
        }
        let third = secs * 1000 / 3;
        self.at(
            ms(third + 50),
            Action::Partition {
                who: "edge_a".into(),
            },
        );
        self.at(
            ms(third + 1_050),
            Action::Heal {
                who: "edge_a".into(),
            },
        );
        self.at(
            ms(2 * third + 50),
            Action::ViewerJoin {
                name: "late_visit".into(),
                link: Link::campus(),
                transport: Transport::Visit,
                relay: Some("edge_a".into()),
            },
        );
    }

    /// LBM 16³, eight participants over the four steer transports in two
    /// shards; each shard's master steers every 20 ms, the token passes
    /// once a second (the old master's late steer is refused), a
    /// checkpoint is cut every tick, and the process crashes and restores
    /// once mid-run. No viewers: the monitor path is bypassed.
    fn steer_ckpt(&mut self, g: &mut Gen, full: bool, threads: usize) {
        self.backend = BackendSpec::Lbm(lbm_cube(if full { 16 } else { 6 }, threads));
        self.duration = SimTime::from_secs(if full { 6 } else { 3 });
        self.shards = 2;
        self.checkpoint_every = Some(self.sample_every);
        for i in 0..8 {
            let link = if i % 2 == 0 {
                Link::uk_janet()
            } else {
                Link::gwin()
            };
            self.participant(&format!("p{i}"), link, WIRE_TRANSPORTS[i % 4]);
        }
        let end = self.duration.as_millis();
        // crash just after the tick-k checkpoint; restore half a second
        // later. Nothing is in flight across the window, so the chain
        // restores exactly what the crash lost.
        let crash = end / 2 + 50;
        let restore = crash + 500;
        let quiet = |t: u64| t + 60 >= crash - 50 && t <= restore + 10;
        // joins are round-robin: shard s owns p{s}, p{s+2}, p{s+4}, p{s+6}
        for shard in 0..2u64 {
            let members: Vec<String> = (0..4).map(|j| format!("p{}", shard + 2 * j)).collect();
            let passes: Vec<u64> = (1..end / 1000)
                .map(|k| k * 1000 + 450)
                .filter(|&t| !quiet(t))
                .collect();
            let mut master = 0usize;
            let mut t = 10 + 5 * shard;
            let mut next_pass = 0usize;
            while t < end - 100 {
                if next_pass < passes.len() && t + 150 >= passes[next_pass] {
                    // hand over, then the old master's late steer is refused
                    let tp = passes[next_pass];
                    let to = (master + 1) % 4;
                    self.at(ms(tp), pass(&members[master], &members[to]));
                    self.at(
                        ms(tp + 30),
                        steer(&members[master], "miscibility", g.range(0.05, 0.95)),
                    );
                    master = to;
                    next_pass += 1;
                    t = tp + 40 + 5 * shard;
                    continue;
                }
                if !quiet(t) {
                    self.at(
                        ms(t),
                        steer(&members[master], "miscibility", g.range(0.05, 0.95)),
                    );
                }
                t += 20;
            }
        }
        self.at(ms(crash), Action::Crash);
        self.at(ms(restore), Action::Restore);
    }

    /// PEPC n≈1000, four participants passing the master token every two
    /// seconds and steering the beam, laser and damping knobs once a
    /// second each (non-masters are refused), two direct viewers.
    fn pepc_steer(&mut self, g: &mut Gen, full: bool) {
        self.backend = BackendSpec::Pepc(PepcConfig {
            n_target: if full { 1000 } else { 80 },
            ranks: 4,
            ..Default::default()
        });
        let names = ["visit_site", "ogsa_site", "covise_site", "unicore_site"];
        let links = [Link::uk_janet(), Link::gwin(), Link::campus(), Link::wan()];
        for ((n, link), tr) in names.iter().zip(links).zip(WIRE_TRANSPORTS) {
            self.participant(n, link, tr);
        }
        self.viewer("v_visit", Link::uk_janet(), Transport::Visit, None);
        self.viewer("v_ogsa", Link::gwin(), Transport::Ogsa, None);
        let params = [
            ("beam_intensity", 0.0, 100.0),
            ("laser_amplitude", 0.0, 100.0),
            ("damping", 0.0, 1.0),
        ];
        let secs = self.duration.as_millis() / 1000;
        for k in 0..secs {
            for (i, who) in names.iter().enumerate() {
                let (p, lo, hi) = params[(k as usize + i) % params.len()];
                let t = k * 1000 + 120 + 200 * i as u64;
                self.at(ms(t), steer(who, p, g.range(lo, hi)));
            }
        }
        for k in 1..secs.div_ceil(2) {
            let from = names[(k as usize - 1) % 4];
            let to = names[k as usize % 4];
            self.at(ms(k * 2000 + 50), pass(from, to));
        }
    }

    /// Build the [`Scenario`] `Scenario::run` executes, on `pool`.
    pub fn scenario(&self, pool: Arc<ExecPool>) -> Scenario {
        let mut s = Scenario::named(self.name)
            .seed(self.scenario_seed)
            .pool(pool)
            .sample_every(self.sample_every)
            .duration(self.duration)
            .shards(self.shards);
        s = match &self.backend {
            BackendSpec::Lbm(cfg) => s.lbm(cfg.clone()),
            BackendSpec::Pepc(cfg) => s.pepc(cfg.clone()),
        };
        for p in &self.participants {
            s = s.participant_via(&p.name, p.link.clone(), p.transport);
        }
        for r in &self.relays {
            s = match &r.parent {
                None => s.relay(&r.name, r.uplink.clone()),
                Some(parent) => s.relay_under(&r.name, parent, r.uplink.clone()),
            };
            if r.every > 1 {
                s = s.relay_every(&r.name, r.every);
            }
        }
        for v in &self.viewers {
            s = match &v.relay {
                None => s.viewer_via(&v.name, v.link.clone(), v.transport),
                Some(relay) => s.viewer_at_relay(&v.name, relay, v.link.clone(), v.transport),
            };
            if v.every > 1 {
                s = s.viewer_every(&v.name, v.every);
            }
        }
        if let Some(t) = self.checkpoint_every {
            s = s.checkpoint_every(t);
        }
        for (t, a) in &self.actions {
            s = s.at(*t, a.clone());
        }
        s
    }

    /// Steer commands the script issues.
    pub fn steers_issued(&self) -> u64 {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Steer { .. }))
            .count() as u64
    }

    /// Checkpoint cuts the engine's cadence rule yields for this script:
    /// a cut at the first live tick at or after each due point, none
    /// while the process is crashed.
    pub fn expected_cuts(&self) -> u64 {
        let Some(interval) = self.checkpoint_every else {
            return 0;
        };
        let mut window: Option<SimTime> = None;
        let mut dead: Vec<(SimTime, SimTime)> = Vec::new();
        let mut order: Vec<&(SimTime, Action)> = self.actions.iter().collect();
        order.sort_by_key(|(t, _)| *t);
        for (t, a) in order {
            match a {
                Action::Crash => window = Some(*t),
                Action::Restore => {
                    if let Some(c) = window.take() {
                        dead.push((c, *t));
                    }
                }
                _ => {}
            }
        }
        let mut cuts = 0;
        let mut last: Option<SimTime> = None;
        let mut now = self.sample_every;
        while now <= self.duration {
            let crashed =
                window.is_some_and(|c| now >= c) || dead.iter().any(|&(c, r)| now >= c && now < r);
            if !crashed && now >= last.map_or(interval, |l| l + interval) {
                cuts += 1;
                last = Some(now);
            }
            now += self.sample_every;
        }
        cuts
    }
}
