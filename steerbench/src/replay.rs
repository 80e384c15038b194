//! The traced replay: `Scenario::run`'s engine loop, rebuilt from the
//! layers' public functions so every layer call can sit in a span.
//!
//! The replay draws from the scenario RNG in the engine's order, so its
//! links, relays and viewers see the same jitter and loss streams as the
//! engine's and its counts match the engine's report (checked by
//! [`crate::check::fidelity`]). Per sample tick it calls the layers in
//! the engine's order: commit → advance → session broadcast →
//! participant links → publish → relay pump → viewer links → checkpoint
//! cut. It covers the actions the benchmark's workloads script; any other
//! action is an error, never a silent skip.

use crate::trace::{now, secs_since, Span, Tracer};
use crate::workload::{BackendSpec, Workload};
use gridsteer_bus::{
    Capabilities, LoopbackMonitor, MonitorCaps, MonitorEndpoint, MonitorHub, RelayHub, RelayPolicy,
    SteerCommand, SteerEndpoint, SteerHub, Transport,
};
use gridsteer_ckpt::Snapshot;
use gridsteer_exec::ExecPool;
use gridsteer_harness::{Action, LbmBackend, PepcBackend, ScenarioBackend};
use netsim::{EventQueue, FaultyLink, Link, SimTime};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use steer_core::{LoopBudget, LoopMonitor, ParamValue, SteeringSession};

/// Wire size of one steer command frame (as in the engine).
const STEER_BYTES: usize = 64;

/// What the replay did: input-determined counts plus layer counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Sample ticks that ran.
    pub broadcasts: u64,
    /// Sample ticks blacked out by a crash.
    pub skipped: u64,
    /// Backend progress at the end.
    pub final_progress: u64,
    /// Frames published on the origin monitor hub.
    pub monitor_frames: u64,
    /// Steer commands staged through an endpoint.
    pub steers_staged: u64,
    /// Steer commands applied at a commit.
    pub steers_applied: u64,
    /// Steer commands refused at a commit.
    pub refused: u64,
    /// Checkpoints cut.
    pub ckpt_cuts: u64,
    /// Frames delivered to viewers.
    pub viewer_delivered: u64,
    /// Frames lost on viewer links.
    pub viewer_dropped: u64,
    /// Frames ingested by relay tiers.
    pub relay_ingested: u64,
    /// Frames forwarded by relay tiers.
    pub relay_forwarded: u64,
    /// Frames thinned by relay decimation.
    pub relay_decimated: u64,
    /// Frames shed by relay child budgets.
    pub relay_shed: u64,
    /// Cached keyframes served by relays.
    pub relay_keyframes_served: u64,
    /// Frames lost on relay uplinks.
    pub relay_uplink_dropped: u64,
    /// Bytes the origin hub handed its direct subscribers.
    pub monitor_bytes: u64,
    /// Frames viewers' negotiated caps filtered out.
    pub monitor_filtered: u64,
    /// Frames viewers' negotiated rates decimated.
    pub monitor_decimated: u64,
    /// `FaultyLink::deliver` calls.
    pub deliver_calls: u64,
    /// Bytes offered to links.
    pub bytes_offered: u64,
    /// Deliveries the links dropped.
    pub deliver_dropped: u64,
    /// `SteerEndpoint::set_batch` calls.
    pub stage_calls: u64,
    /// Commits that had staged batches.
    pub commit_calls: u64,
    /// Size of the full checkpoint blob.
    pub ckpt_bytes_full: u64,
    /// Summed size of the delta blobs.
    pub ckpt_bytes_delta: u64,
    /// PEPC pairwise/multipole interactions summed over steps.
    pub pepc_interactions: u64,
}

/// One replay's result.
pub struct ReplayOutcome {
    /// Counts.
    pub counts: ReplayCounts,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
    /// Wall time of engine construction, seconds.
    pub setup_s: f64,
}

/// A deliberately broken replay, for the negative control: the first call
/// of the named layer is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// Skip nothing (the real replay).
    Nothing,
    /// Skip the first `publish_monitor` call.
    FirstPublish,
    /// Skip the first `advance` call.
    FirstAdvance,
}

enum Sim {
    Lbm(LbmBackend),
    Pepc(PepcBackend),
}

impl Sim {
    fn get_mut(&mut self) -> &mut dyn ScenarioBackend {
        match self {
            Sim::Lbm(b) => b,
            Sim::Pepc(b) => b,
        }
    }

    fn get(&self) -> &dyn ScenarioBackend {
        match self {
            Sim::Lbm(b) => b,
            Sim::Pepc(b) => b,
        }
    }
}

struct Client {
    name: String,
    link: FaultyLink,
}

struct RelayNode {
    name: String,
    parent: Option<usize>,
    uplink: FaultyLink,
    hub: RelayHub,
    arrival: Option<SimTime>,
    uplink_dropped: u64,
}

struct Viewer {
    name: String,
    kind: Transport,
    link: FaultyLink,
    monitor: LoopMonitor,
    delivered: u64,
    dropped: u64,
    digest: u64,
    relay: Option<usize>,
}

enum Ev {
    Sample,
    Act(usize),
    ApplySteer {
        who: String,
        param: String,
        value: ParamValue,
    },
}

fn faulty(rng: &mut StdRng, link: &Link) -> FaultyLink {
    let mut base = link.clone();
    base.seed = rng.next_u64();
    let fault_seed = rng.next_u64();
    FaultyLink::new(base, fault_seed)
}

/// Counted, traced `FaultyLink::deliver`.
fn deliver(
    tr: &mut Tracer,
    c: &mut ReplayCounts,
    link: &mut FaultyLink,
    at: SimTime,
    bytes: usize,
) -> Option<SimTime> {
    c.deliver_calls += 1;
    c.bytes_offered += bytes as u64;
    let r = tr.leaf(Span::Deliver, || link.deliver(at, bytes));
    if r.is_none() {
        c.deliver_dropped += 1;
    }
    r
}

/// Everything the engine holds between events.
struct Engine<'w> {
    w: &'w Workload,
    rng: StdRng,
    sim: Sim,
    hub: SteerHub,
    sessions: Vec<SteeringSession>,
    shard_of: BTreeMap<String, usize>,
    next_shard: usize,
    endpoints: BTreeMap<String, Box<dyn SteerEndpoint>>,
    clients: Vec<Client>,
    mhub: MonitorHub,
    relays: Vec<RelayNode>,
    viewers: Vec<Viewer>,
    post: LoopMonitor,
    crashed: bool,
    chain: Vec<Vec<u8>>,
    last_snap: Option<Snapshot>,
    last_ckpt: Option<SimTime>,
    c: ReplayCounts,
    skip: Skip,
}

impl<'w> Engine<'w> {
    fn build(w: &'w Workload, pool: Arc<ExecPool>, skip: Skip) -> Result<Engine<'w>, String> {
        let mut rng = StdRng::seed_from_u64(w.scenario_seed);
        let backend_seed = rng.next_u64();
        let mut sim = match &w.backend {
            BackendSpec::Lbm(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed = backend_seed;
                Sim::Lbm(LbmBackend::new(cfg))
            }
            BackendSpec::Pepc(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed = backend_seed;
                Sim::Pepc(PepcBackend::new(cfg))
            }
        };
        sim.get_mut().set_pool(pool);
        let hub = SteerHub::new(sim.get().param_specs());
        let sessions = (0..w.shards.max(1))
            .map(|_| SteeringSession::with_registry(hub.registry()))
            .collect();
        let mut e = Engine {
            w,
            rng,
            sim,
            hub,
            sessions,
            shard_of: BTreeMap::new(),
            next_shard: 0,
            endpoints: BTreeMap::new(),
            clients: Vec::new(),
            mhub: MonitorHub::new(),
            relays: Vec::new(),
            viewers: Vec::new(),
            post: LoopMonitor::new(LoopBudget::PostProcessing),
            crashed: false,
            chain: Vec::new(),
            last_snap: None,
            last_ckpt: None,
            c: ReplayCounts::default(),
            skip,
        };
        for p in &w.participants {
            e.join(&p.name, &p.link, p.transport);
        }
        for spec in &w.relays {
            let parent = match &spec.parent {
                None => None,
                Some(p) => Some(
                    e.relays
                        .iter()
                        .position(|r| r.name == *p)
                        .ok_or_else(|| format!("relay {:?}: parent {p:?} undeclared", spec.name))?,
                ),
            };
            let hub = RelayHub::new(RelayPolicy {
                deliver_every: spec.every,
                default_child_budget: None,
            });
            let collector = Box::new(LoopbackMonitor::new());
            match parent {
                None => e
                    .mhub
                    .attach_endpoint(&spec.name, collector, &RelayHub::uplink_caps()),
                Some(p) => e.relays[p].hub.attach_child_with_budget(
                    &spec.name,
                    collector,
                    &RelayHub::uplink_caps(),
                    None,
                ),
            };
            let uplink = faulty(&mut e.rng, &spec.uplink);
            e.relays.push(RelayNode {
                name: spec.name.clone(),
                parent,
                uplink,
                hub,
                arrival: None,
                uplink_dropped: 0,
            });
        }
        for v in &w.viewers {
            e.attach_viewer(&v.name, &v.link, v.transport, v.every, v.relay.as_deref())?;
        }
        Ok(e)
    }

    fn join(&mut self, name: &str, link: &Link, transport: Transport) {
        let shards = self.sessions.len();
        let next = &mut self.next_shard;
        let shard = *self.shard_of.entry(name.to_string()).or_insert_with(|| {
            let s = *next % shards;
            *next += 1;
            s
        });
        if self.sessions[shard].index_of(name).is_none() {
            self.sessions[shard].join(name);
        }
        if !self.endpoints.contains_key(name) {
            let mut ep = transport.attach(&self.hub, name);
            ep.negotiate(&Capabilities::full("scenario-client", 64));
            self.endpoints.insert(name.to_string(), ep);
        }
        let link = faulty(&mut self.rng, link);
        self.clients.push(Client {
            name: name.to_string(),
            link,
        });
    }

    fn attach_viewer(
        &mut self,
        name: &str,
        link: &Link,
        transport: Transport,
        every: u32,
        relay: Option<&str>,
    ) -> Result<(), String> {
        let relay_idx = match relay {
            None => None,
            Some(r) => Some(
                self.relays
                    .iter()
                    .position(|n| n.name == r)
                    .ok_or_else(|| format!("viewer {name:?}: no relay {r:?}"))?,
            ),
        };
        let caps = MonitorCaps::full("scenario-viewer", 64).every(every);
        let ep = transport.attach_monitor(name);
        match relay_idx {
            None => self.mhub.attach_endpoint(name, ep, &caps),
            Some(i) => self.relays[i].hub.attach_child(name, ep, &caps),
        };
        let link = faulty(&mut self.rng, link);
        if self.viewers.iter().any(|v| v.name == name) {
            return Err(format!(
                "viewer {name:?} re-attaches; the replay does not model it"
            ));
        }
        self.viewers.push(Viewer {
            name: name.to_string(),
            kind: transport,
            link,
            monitor: LoopMonitor::new(LoopBudget::DesktopRender),
            delivered: 0,
            dropped: 0,
            digest: 0xcbf2_9ce4_8422_2325,
            relay: relay_idx,
        });
        Ok(())
    }

    fn commit(&mut self, tr: &mut Tracer) {
        if self.hub.pending() == 0 {
            return;
        }
        self.c.commit_calls += 1;
        let Engine {
            hub,
            sessions,
            shard_of,
            sim,
            ..
        } = self;
        let backend = sim.get_mut();
        let mut applied = 0u64;
        tr.enter(Span::Commit);
        let outcome = hub.commit_with(|batch, cmd| {
            let resolved = shard_of
                .get(&batch.origin)
                .copied()
                .and_then(|s| sessions[s].index_of(&batch.origin).map(|idx| (s, idx)));
            match resolved {
                Some((s, idx)) => {
                    let r = tr.leaf(Span::SessionSteer, || {
                        sessions[s].steer_value(idx, &cmd.param, &cmd.value)
                    });
                    r.inspect(|v| {
                        backend.apply_steer(&cmd.param, v);
                        applied += 1;
                    })
                }
                None => Err("sender left before commit".into()),
            }
        });
        tr.exit();
        self.c.steers_applied += applied;
        self.c.refused += outcome.refused;
    }

    fn tick(&mut self, tr: &mut Tracer, now: SimTime) {
        self.commit(tr);
        let advance = self.skip != Skip::FirstAdvance || self.c.broadcasts > 0;
        if advance {
            let span = match self.sim {
                Sim::Lbm(_) => Span::LbmStep,
                Sim::Pepc(_) => Span::PepcStep,
            };
            let backend = self.sim.get_mut();
            // every workload steps once per sample tick
            tr.leaf(span, || backend.advance(1));
            if let Sim::Pepc(b) = &self.sim {
                self.c.pepc_interactions += b.sim().last_interactions();
            }
        }
        let bytes = self.sim.get().sample_bytes();
        let sessions = &mut self.sessions;
        tr.leaf(Span::SessionBroadcast, || {
            for s in sessions.iter_mut() {
                s.broadcast_sample(bytes);
            }
        });
        self.c.broadcasts += 1;
        let mut earliest: Option<SimTime> = None;
        let mut latest: Option<SimTime> = None;
        for cl in self.clients.iter_mut() {
            if let Some(arrival) = deliver(tr, &mut self.c, &mut cl.link, now, bytes) {
                self.post.record(arrival.saturating_since(now));
                earliest =
                    Some(earliest.map_or(arrival, |e| if arrival < e { arrival } else { e }));
                latest = Some(latest.map_or(arrival, |l| l.max(arrival)));
            }
        }
        if let (Some(lo), Some(hi)) = (earliest, latest) {
            self.post.record_skew(hi.saturating_since(lo));
        }
        if !self.viewers.is_empty() || !self.relays.is_empty() {
            let publish = self.skip != Skip::FirstPublish || self.c.broadcasts > 1;
            if publish {
                let (backend, mhub) = (self.sim.get_mut(), &self.mhub);
                tr.leaf(Span::Publish, || backend.publish_monitor(mhub));
            }
        }
        self.pump_relays(tr, now);
        self.feed_viewers(tr, now);
        self.cut_checkpoint(tr, now);
    }

    fn pump_relays(&mut self, tr: &mut Tracer, now: SimTime) {
        for i in 0..self.relays.len() {
            let (frames, depart) = match self.relays[i].parent {
                None => {
                    let (mhub, name) = (&self.mhub, &self.relays[i].name);
                    let f = tr.leaf(Span::MonitorRecv, || mhub.recv(name));
                    self.c.monitor_bytes += f.iter().map(|f| f.wire_size() as u64).sum::<u64>();
                    (f, now)
                }
                Some(p) => {
                    let (parent, name) = (&self.relays[p].hub, &self.relays[i].name);
                    let f = tr.leaf(Span::RelayRecvChild, || parent.recv_child(name));
                    (f, self.relays[p].arrival.unwrap_or(now))
                }
            };
            if frames.is_empty() {
                continue;
            }
            let bytes: usize = frames.iter().map(|f| f.wire_size()).sum();
            let node = &mut self.relays[i];
            match deliver(tr, &mut self.c, &mut node.uplink, depart, bytes) {
                Some(arrival) => {
                    node.arrival = Some(arrival);
                    let hub = &node.hub;
                    tr.leaf(Span::RelayIngest, || hub.ingest(&frames));
                }
                None => node.uplink_dropped += frames.len() as u64,
            }
        }
    }

    fn feed_viewers(&mut self, tr: &mut Tracer, now: SimTime) {
        for v in self.viewers.iter_mut() {
            let (frames, depart) = match v.relay {
                None => {
                    let f = tr.leaf(Span::MonitorRecv, || self.mhub.recv(&v.name));
                    self.c.monitor_bytes += f.iter().map(|f| f.wire_size() as u64).sum::<u64>();
                    (f, now)
                }
                Some(i) => {
                    let hub = &self.relays[i].hub;
                    let f = tr.leaf(Span::RelayRecvChild, || hub.recv_child(&v.name));
                    (f, self.relays[i].arrival.unwrap_or(now))
                }
            };
            for frame in frames {
                match deliver(tr, &mut self.c, &mut v.link, depart, frame.wire_size()) {
                    Some(arrival) => {
                        v.monitor.record(arrival.saturating_since(now));
                        v.delivered += 1;
                        v.digest = frame.fold_fnv(v.digest);
                    }
                    None => v.dropped += 1,
                }
            }
        }
    }

    fn cut_checkpoint(&mut self, tr: &mut Tracer, now: SimTime) {
        let Some(interval) = self.w.checkpoint_every else {
            return;
        };
        if now < self.last_ckpt.map_or(interval, |t| t + interval) {
            return;
        }
        let mut snap = Snapshot::new(self.chain.len() as u64, now.as_nanos());
        tr.enter(Span::CkptSave);
        self.sim.get().save_sections(&mut snap);
        self.hub.save_sections(&mut snap, "steer");
        for (i, s) in self.sessions.iter().enumerate() {
            s.save_sections(&mut snap, &format!("session/{i}"));
        }
        self.mhub.save_sections(&mut snap, "monitor");
        for r in &self.relays {
            r.hub.save_sections(&mut snap, &format!("relay/{}", r.name));
        }
        tr.exit();
        let blob = match &self.last_snap {
            None => {
                let b = tr.leaf(Span::CkptEncodeFull, || snap.encode());
                self.c.ckpt_bytes_full = b.len() as u64;
                b
            }
            Some(base) => {
                let b = tr.leaf(Span::CkptEncodeDelta, || snap.encode_delta(base));
                self.c.ckpt_bytes_delta += b.len() as u64;
                b
            }
        };
        self.chain.push(blob);
        self.last_snap = Some(snap);
        self.last_ckpt = Some(now);
        self.c.ckpt_cuts += 1;
    }

    fn restore(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if !self.crashed || self.chain.is_empty() {
            return Err("restore without a crash or a checkpoint".into());
        }
        tr.enter(Span::CkptRestore);
        let r = self.restore_layers();
        tr.exit();
        self.crashed = false;
        r
    }

    fn restore_layers(&mut self) -> Result<(), String> {
        let err = |e: gridsteer_ckpt::CkptError| e.to_string();
        let mut snap = Snapshot::decode(&self.chain[0]).map_err(err)?;
        for delta in &self.chain[1..] {
            snap = Snapshot::decode_delta(delta, &snap).map_err(err)?;
        }
        self.sim.get_mut().restore_sections(&snap).map_err(err)?;
        self.hub.restore_sections(&snap, "steer").map_err(err)?;
        for (i, s) in self.sessions.iter_mut().enumerate() {
            *s = SteeringSession::restore_sections(
                &snap,
                &format!("session/{i}"),
                self.hub.registry(),
            )
            .map_err(err)?;
        }
        let transports: BTreeMap<&str, Transport> = self
            .w
            .participants
            .iter()
            .map(|p| (p.name.as_str(), p.transport))
            .collect();
        for (name, ep) in self.endpoints.iter_mut() {
            let transport = transports.get(name.as_str()).copied().unwrap_or_default();
            let mut fresh = transport.attach(&self.hub, name);
            fresh.negotiate(&Capabilities::full("scenario-client", 64));
            *ep = fresh;
        }
        let relay_names: Vec<&str> = self.relays.iter().map(|r| r.name.as_str()).collect();
        let viewers = &self.viewers;
        let mut resolver = |sub: &str, _caps: &MonitorCaps| -> Box<dyn MonitorEndpoint> {
            match viewers.iter().find(|v| v.name == sub) {
                Some(v) if !relay_names.contains(&sub) => v.kind.attach_monitor(sub),
                _ => Box::new(LoopbackMonitor::new()),
            }
        };
        self.mhub
            .restore_sections(&snap, "monitor", &mut resolver)
            .map_err(err)?;
        for r in &self.relays {
            r.hub
                .restore_sections(&snap, &format!("relay/{}", r.name), &mut resolver)
                .map_err(err)?;
        }
        Ok(())
    }

    /// Resolve a fault target across participants, viewers and relay
    /// uplinks (the engine's shared fault namespace).
    fn fault_link(&mut self, who: &str) -> Result<&mut FaultyLink, String> {
        if let Some(c) = self.clients.iter_mut().find(|c| c.name == who) {
            return Ok(&mut c.link);
        }
        if let Some(v) = self.viewers.iter_mut().find(|v| v.name == who) {
            return Ok(&mut v.link);
        }
        self.relays
            .iter_mut()
            .find(|r| r.name == who)
            .map(|r| &mut r.uplink)
            .ok_or_else(|| format!("fault target {who:?} unknown"))
    }

    fn act(
        &mut self,
        tr: &mut Tracer,
        queue: &mut EventQueue<Ev>,
        now: SimTime,
        action: &Action,
    ) -> Result<(), String> {
        match action {
            Action::Steer { who, param, value } => {
                let sender = self.clients.iter().position(|c| c.name == *who);
                let i = sender.ok_or_else(|| format!("steer from unknown {who:?}"))?;
                let link = &mut self.clients[i].link;
                if let Some(arrival) = deliver(tr, &mut self.c, link, now, STEER_BYTES) {
                    queue.schedule(
                        arrival,
                        Ev::ApplySteer {
                            who: who.clone(),
                            param: param.clone(),
                            value: value.clone(),
                        },
                    );
                }
            }
            Action::PassMaster { from, to } => {
                let shard = self.shard_of.get(from).copied();
                if shard.is_none() || shard != self.shard_of.get(to).copied() {
                    return Err(format!("pass {from}->{to} crosses shards"));
                }
                let s = &mut self.sessions[shard.unwrap_or_default()];
                match (s.index_of(from), s.index_of(to)) {
                    (Some(f), Some(t)) => {
                        s.pass_master(f, t);
                    }
                    _ => return Err(format!("pass {from}->{to}: unknown participant")),
                }
            }
            Action::Partition { who } => self.fault_link(who)?.partition(),
            Action::Heal { who } => self.fault_link(who)?.heal(),
            Action::SetLoss { who, ppm } => self.fault_link(who)?.set_extra_loss_ppm(*ppm),
            Action::SetJitter { who, jitter } => self.fault_link(who)?.set_extra_jitter(*jitter),
            Action::Crash => self.crashed = true,
            Action::Restore => self.restore(tr)?,
            Action::ViewerJoin {
                name,
                link,
                transport,
                relay,
            } => self.attach_viewer(name, link, *transport, 1, relay.as_deref())?,
            other => return Err(format!("the replay does not model {:?}", other.label())),
        }
        Ok(())
    }

    fn stage(
        &mut self,
        tr: &mut Tracer,
        who: &str,
        param: &str,
        value: ParamValue,
    ) -> Result<(), String> {
        let joined = self
            .shard_of
            .get(who)
            .and_then(|&s| self.sessions[s].index_of(who))
            .is_some();
        let ep = self
            .endpoints
            .get_mut(who)
            .filter(|_| joined)
            .ok_or_else(|| format!("steer from departed {who:?}"))?;
        self.c.stage_calls += 1;
        let cmd = vec![SteerCommand::new(param, value)];
        tr.leaf(Span::Stage, || ep.set_batch(cmd))
            .map_err(|e| format!("steer from {who:?} unroutable: {e}"))?;
        self.c.steers_staged += 1;
        Ok(())
    }

    fn finish(mut self, tr: &mut Tracer) -> ReplayCounts {
        self.commit(tr);
        let mut c = self.c;
        c.final_progress = self.sim.get().progress();
        c.monitor_frames = self.mhub.frames_published();
        for v in &self.viewers {
            c.viewer_delivered += v.delivered;
            c.viewer_dropped += v.dropped;
            let stats = match v.relay {
                None => self.mhub.stats_of(&v.name),
                Some(i) => self.relays[i].hub.stats_of_child(&v.name),
            }
            .unwrap_or_default();
            c.monitor_filtered += stats.filtered;
            c.monitor_decimated += stats.decimated;
            std::hint::black_box((v.digest, v.monitor.report()));
        }
        for r in &self.relays {
            let rep = r.hub.report();
            c.relay_ingested += rep.ingested;
            c.relay_forwarded += rep.forwarded;
            c.relay_decimated += rep.decimated;
            c.relay_shed += rep.shed;
            c.relay_keyframes_served += rep.keyframes_served;
            c.relay_uplink_dropped += r.uplink_dropped;
        }
        std::hint::black_box(self.post.report());
        c
    }
}

/// Replay workload `w` on `pool`, recording spans into `tr` (pass
/// [`Tracer::off`] for the untraced replay).
pub fn replay(
    w: &Workload,
    pool: Arc<ExecPool>,
    tr: &mut Tracer,
    skip: Skip,
) -> Result<ReplayOutcome, String> {
    let start = now();
    tr.enter(Span::Setup);
    let built = Engine::build(w, pool, skip);
    tr.exit();
    let mut e = built?;
    let setup_s = secs_since(start);

    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, (t, _)) in w.actions.iter().enumerate() {
        queue.schedule(*t, Ev::Act(i));
    }
    if w.sample_every <= w.duration {
        queue.schedule(w.sample_every, Ev::Sample);
    }
    while let Some(ev) = queue.pop() {
        let now = ev.at;
        match ev.payload {
            Ev::Sample => {
                if now + w.sample_every <= w.duration {
                    queue.schedule(now + w.sample_every, Ev::Sample);
                }
                if e.crashed {
                    e.c.skipped += 1;
                    continue;
                }
                tr.enter(Span::Tick);
                e.tick(tr, now);
                tr.exit();
            }
            Ev::Act(i) => {
                tr.enter(Span::Action);
                let r = e.act(tr, &mut queue, now, &w.actions[i].1);
                tr.exit();
                r?;
            }
            Ev::ApplySteer { who, param, value } => {
                tr.enter(Span::Action);
                let r = e.stage(tr, &who, &param, value);
                tr.exit();
                r?;
            }
        }
    }
    let counts = e.finish(tr);
    Ok(ReplayOutcome {
        counts,
        wall_s: secs_since(start),
        setup_s,
    })
}
