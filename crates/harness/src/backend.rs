//! Simulation backends a scenario can steer.
//!
//! A [`ScenarioBackend`] is the sample source of a run: the engine steps it
//! once per sample tick, fans the sample out to the participants, and routes
//! accepted steers into it. Two backends cover the paper's two codes — the
//! LB two-fluid mixture (§2.2) and the PEPC plasma (§3.4) — behind one
//! object-safe trait so scenarios are written once and run against either.

use gridsteer_ckpt::{CkptError, Snapshot};
use gridsteer_exec::ExecPool;
use lbm::{LbmConfig, TwoFluidLbm};
use pepc::{PepcConfig, PepcSim};
use std::sync::Arc;
use steer_core::{MonitorHub, MonitorSource, ParamSpec, ParamValue, SteerTarget};

/// A steerable simulation driven by the scenario engine.
pub trait ScenarioBackend {
    /// Short backend name (appears in the report header).
    fn kind(&self) -> &'static str;

    /// Dispatch the backend's parallel passes onto this executor pool
    /// (results are pool-independent: see the `gridsteer_exec` determinism
    /// contract). The engine calls this once per run so every backend in a
    /// scenario shares the scenario's pool.
    fn set_pool(&mut self, pool: Arc<ExecPool>);

    /// The steerable parameters this backend accepts, as typed bus
    /// registry specs (sourced from the simulation's
    /// [`SteerTarget::specs`], so the harness, the adapters and the bus
    /// all declare one surface).
    fn param_specs(&self) -> Vec<ParamSpec>;

    /// Apply an accepted steer. `param` is one of [`param_specs`]'s names
    /// and `value` has already passed the registry's bounds check.
    ///
    /// [`param_specs`]: ScenarioBackend::param_specs
    fn apply_steer(&mut self, param: &str, value: &ParamValue);

    /// Advance the simulation by `steps` time steps.
    fn advance(&mut self, steps: usize);

    /// Publish the backend's monitored quantities for the current step
    /// through the hub, as one batch (both backends route through
    /// [`MonitorSource::publish`] with a scratch buffer they keep across
    /// samples, never a per-simulation path). Returns the number of
    /// frames published.
    fn publish_monitor(&mut self, hub: &MonitorHub) -> u64;

    /// Size of one sample on the wire, in bytes.
    fn sample_bytes(&self) -> usize;

    /// Serialize the backend's full simulation state into the snapshot
    /// (the `gridsteer_ckpt` versioned format — float fields as raw bits,
    /// so a restore is bit-exact).
    fn save_sections(&self, snap: &mut Snapshot);

    /// Replace the simulation state with the snapshot's, keeping the
    /// scenario's executor pool. Typed error on a corrupt or mismatched
    /// snapshot; the live state is untouched on failure.
    fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError>;

    /// Checkpoint the state through the snapshot wire format — encode,
    /// decode, restore — and return the encoded size in bytes. Both
    /// backends round-trip their real state (the migration cost model
    /// moves the same bytes a crash recovery would).
    fn checkpoint_roundtrip(&mut self) -> usize {
        let mut snap = Snapshot::new(0, 0);
        self.save_sections(&mut snap);
        let blob = snap.encode();
        let decoded = Snapshot::decode(&blob).expect("self-encoded snapshot decodes");
        self.restore_sections(&decoded)
            .expect("self-saved snapshot restores");
        blob.len()
    }

    /// Monotone progress counter (simulation steps taken).
    fn progress(&self) -> u64;
}

/// The LB two-fluid mixture with the miscibility steering parameter.
pub struct LbmBackend {
    sim: TwoFluidLbm,
    /// Grid buffer the monitor surface refills each sample.
    scratch: Vec<f32>,
}

impl LbmBackend {
    /// A backend over a fresh simulation.
    pub fn new(cfg: LbmConfig) -> Self {
        LbmBackend {
            sim: TwoFluidLbm::new(cfg),
            scratch: Vec::new(),
        }
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &TwoFluidLbm {
        &self.sim
    }
}

impl ScenarioBackend for LbmBackend {
    fn kind(&self) -> &'static str {
        "lbm"
    }

    fn set_pool(&mut self, pool: Arc<ExecPool>) {
        self.sim.set_pool(pool);
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        TwoFluidLbm::specs()
    }

    fn apply_steer(&mut self, param: &str, value: &ParamValue) {
        // unknown names were already refused by the registry; ignore them
        let _ = self.sim.write(param, value);
    }

    fn advance(&mut self, steps: usize) {
        self.sim.step_n(steps);
    }

    fn publish_monitor(&mut self, hub: &MonitorHub) -> u64 {
        self.sim.publish(hub, &mut self.scratch)
    }

    fn sample_bytes(&self) -> usize {
        // one f32 order-parameter scalar per node — what the Figure-1
        // pipeline ships to the isosurface stage
        let (nx, ny, nz) = self.sim.dims();
        nx * ny * nz * 4
    }

    fn save_sections(&self, snap: &mut Snapshot) {
        self.sim.save_sections(snap);
    }

    fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        // the restored run keeps dispatching on the scenario's pool
        self.sim.restore_sections(snap)
    }

    fn progress(&self) -> u64 {
        self.sim.steps()
    }
}

/// The PEPC plasma with the §3.4 steerable parameters.
pub struct PepcBackend {
    sim: PepcSim,
    /// Monitor scratch (unused while PEPC's surface is scalars only).
    scratch: Vec<f32>,
}

/// Bytes per particle on the wire: position + velocity as f32 triples,
/// charge (f32), rank (u16), tracking label (u32).
const PEPC_PARTICLE_BYTES: usize = 12 + 12 + 4 + 2 + 4;

impl PepcBackend {
    /// A backend over a fresh simulation.
    pub fn new(cfg: PepcConfig) -> Self {
        PepcBackend {
            sim: PepcSim::new(cfg),
            scratch: Vec::new(),
        }
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &PepcSim {
        &self.sim
    }
}

impl ScenarioBackend for PepcBackend {
    fn kind(&self) -> &'static str {
        "pepc"
    }

    fn set_pool(&mut self, pool: Arc<ExecPool>) {
        self.sim.set_pool(pool);
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        PepcSim::specs()
    }

    fn apply_steer(&mut self, param: &str, value: &ParamValue) {
        // unknown names were already refused by the registry; ignore them
        let _ = self.sim.write(param, value);
    }

    fn advance(&mut self, steps: usize) {
        self.sim.step_n(steps);
    }

    fn publish_monitor(&mut self, hub: &MonitorHub) -> u64 {
        self.sim.publish(hub, &mut self.scratch)
    }

    fn sample_bytes(&self) -> usize {
        self.sim.len() * PEPC_PARTICLE_BYTES
    }

    fn save_sections(&self, snap: &mut Snapshot) {
        self.sim.save_sections(snap);
    }

    fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        self.sim.restore_sections(snap)
    }

    fn progress(&self) -> u64 {
        self.sim.step_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            n_target: 40,
            ranks: 1,
            ..PepcConfig::small()
        }
    }

    #[test]
    fn lbm_backend_steers_miscibility() {
        let mut b = LbmBackend::new(tiny_lbm());
        b.apply_steer("miscibility", &ParamValue::F64(0.3));
        assert_eq!(b.sim().miscibility(), 0.3);
        b.apply_steer("unknown", &ParamValue::F64(9.9)); // ignored, no panic
        assert_eq!(b.sim().miscibility(), 0.3);
    }

    #[test]
    fn lbm_backend_advances_and_reports_progress() {
        let mut b = LbmBackend::new(tiny_lbm());
        b.advance(4);
        assert_eq!(b.progress(), 4);
        assert_eq!(b.sample_bytes(), 6 * 6 * 6 * 4);
    }

    #[test]
    fn lbm_checkpoint_roundtrip_preserves_state() {
        let mut b = LbmBackend::new(tiny_lbm());
        b.apply_steer("miscibility", &ParamValue::F64(0.2));
        b.advance(5);
        let before = b.sim().order_parameter().data().to_vec();
        let bytes = b.checkpoint_roundtrip();
        assert!(bytes > 0);
        assert_eq!(b.sim().miscibility(), 0.2);
        assert_eq!(b.progress(), 5);
        assert_eq!(b.sim().order_parameter().data(), &before[..]);
    }

    #[test]
    fn pepc_backend_steers_all_params() {
        let mut b = PepcBackend::new(tiny_pepc());
        b.apply_steer("damping", &ParamValue::F64(0.5));
        b.apply_steer("laser_amplitude", &ParamValue::F64(1.5));
        b.apply_steer("beam_intensity", &ParamValue::F64(2.0));
        let p = b.sim().params();
        assert_eq!(p.damping, 0.5);
        assert_eq!(p.laser_amplitude, 1.5);
        assert_eq!(p.beam_intensity, 2.0);
    }

    #[test]
    fn pepc_backend_sample_scales_with_particles() {
        let mut b = PepcBackend::new(tiny_pepc());
        assert_eq!(b.sample_bytes(), b.sim().len() * PEPC_PARTICLE_BYTES);
        b.advance(2);
        assert_eq!(b.progress(), 2);
    }

    #[test]
    fn pepc_checkpoint_roundtrip_preserves_state() {
        // PEPC now round-trips its real particle state through the
        // snapshot format, just like LBM — a migration moves the same
        // bytes a crash recovery would, not a wire-size estimate.
        let mut b = PepcBackend::new(tiny_pepc());
        b.apply_steer("damping", &ParamValue::F64(0.4));
        b.advance(3);
        let before: Vec<_> = b.sim().particles().to_vec();
        let bytes = b.checkpoint_roundtrip();
        assert!(bytes > b.sample_bytes(), "snapshot carries full f64 state");
        assert_eq!(b.progress(), 3);
        assert_eq!(b.sim().params().damping, 0.4);
        assert_eq!(b.sim().particles(), &before[..]);
        // the restored sim keeps stepping bit-identically to a twin
        let mut twin = PepcBackend::new(tiny_pepc());
        twin.apply_steer("damping", &ParamValue::F64(0.4));
        twin.advance(3);
        b.advance(3);
        twin.advance(3);
        assert_eq!(b.sim().particles(), twin.sim().particles());
    }

    #[test]
    fn both_backends_publish_monitor_frames_through_the_adapter() {
        use steer_core::{MonitorCaps, MonitorKind};
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "v",
            gridsteer_bus::Transport::Loopback.attach_monitor("v"),
            &MonitorCaps::full("viewer", 64),
        );
        let mut lbm = LbmBackend::new(tiny_lbm());
        lbm.advance(2);
        let n = lbm.publish_monitor(&hub);
        assert_eq!(n, 6, "lbm surface: 3 scalars + vec3 + grid2 + grid3");
        let frames = hub.recv("v");
        assert_eq!(frames.len(), 6);
        assert!(frames.iter().all(|f| f.step == 2), "stamped with progress");
        assert!(frames
            .iter()
            .any(|f| f.payload.kind() == MonitorKind::Grid3));
        let mut pepc = PepcBackend::new(tiny_pepc());
        assert_eq!(pepc.publish_monitor(&hub), 3, "no beam ⇒ 3 scalars");
        assert_eq!(hub.recv("v").len(), 3);
    }

    #[test]
    fn param_specs_match_registry_contract() {
        let lbm = LbmBackend::new(tiny_lbm());
        let pepc = PepcBackend::new(tiny_pepc());
        for spec in lbm.param_specs().iter().chain(pepc.param_specs().iter()) {
            let initial = spec.initial.as_f64().unwrap();
            assert!(spec.min.unwrap() <= initial && initial <= spec.max.unwrap());
        }
        assert_eq!(lbm.kind(), "lbm");
        assert_eq!(pepc.kind(), "pepc");
    }
}
