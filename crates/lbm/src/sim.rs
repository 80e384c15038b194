//! The two-component solver.
//!
//! Physics: two BGK components A and B on D3Q19, coupled by the Shan–Chen
//! pseudopotential force with ψ = ρ:
//!
//! ```text
//! F_A(x) = −g ρ_A(x) Σ_i w_i ρ_B(x + c_i) c_i      (and symmetrically F_B)
//! ```
//!
//! `g` is the inter-component coupling. The *steering parameter* exposed to
//! users is the paper's **miscibility** m ∈ \[0, 1\], mapped as
//! `g = g_max · (1 − m)`: fully miscible fluids feel no coupling; as the
//! steerer lowers m the mixture crosses the spinodal and domains form —
//! the structures the SC2003 demo rendered as isosurfaces live.
//!
//! Each step runs three parallel passes (density → force/velocity → pull
//! stream-collide), all race-free and deterministic for any thread count.
//!
//! # Layout and backends
//!
//! State is structure-of-arrays: distributions live as `f[i*n + node]`
//! (direction-major, nodes contiguous within a direction row) and the
//! equilibrium velocities as six flat component arrays. Every pass exists
//! twice behind [`lanes::Backend`]:
//!
//! * **scalar** — the readable per-node reference kernels, neighbour
//!   indexing through `Geom::neighbor`'s `rem_euclid` wraps; this is the
//!   executable spec.
//! * **simd** (the default) — row-blocked kernels over [`lanes::F64x4`],
//!   one lane per node. Periodic wraps are resolved once per lattice row
//!   (19 neighbour row bases instead of three `rem_euclid`s per node per
//!   direction), interior runs load contiguously, and the boundary nodes
//!   of each row fall back to the scalar helpers.
//!
//! Both backends execute the *identical* floating-point operation
//! sequence for every node — same association, no FMA, accumulations in
//! ascending direction order — so their results are bit-identical, and CI
//! proves it across the {1, 8} threads × {scalar, simd} matrix.
//!
//! Parallelism: the passes dispatch onto a persistent
//! [`gridsteer_exec::ExecPool`] in whole-z-plane chunks — a fixed
//! chunk→node mapping independent of the pool's thread count, so the
//! physics is bit-identical at any parallelism and no OS threads are
//! spawned on the per-step hot path.

use crate::lattice::{equilibrium, equilibrium_x4, CX, CY, CZ, OPPOSITE, Q, WEIGHTS};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use gridsteer_exec::{DisjointChunks, ExecPool};
use lanes::F64x4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use viz::Field3;

/// Lanes per SIMD block (one node per lane).
const L: usize = F64x4::LANES;

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct LbmConfig {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// BGK relaxation time (both components).
    pub tau: f64,
    /// Coupling at miscibility 0 (full demixing).
    pub g_max: f64,
    /// Mean density per component.
    pub rho0: f64,
    /// Initial density perturbation amplitude (seeds spinodal noise).
    pub noise: f64,
    /// RNG seed for the initial perturbation.
    pub seed: u64,
    /// Worker threads for the parallel passes. Defaults to the detected
    /// parallelism (clamped; see [`gridsteer_exec::default_threads`]); an
    /// explicitly set value wins. The thread count never changes results —
    /// chunking is per z-plane regardless.
    pub threads: usize,
}

impl Default for LbmConfig {
    fn default() -> Self {
        LbmConfig {
            nx: 32,
            ny: 32,
            nz: 32,
            tau: 1.0,
            g_max: 2.5,
            rho0: 0.5,
            noise: 0.01,
            seed: 42,
            threads: gridsteer_exec::default_threads(),
        }
    }
}

impl LbmConfig {
    /// A small fast configuration for tests.
    pub fn small() -> Self {
        LbmConfig {
            nx: 12,
            ny: 12,
            nz: 12,
            ..Default::default()
        }
    }
}

/// Spatial variance of an order-parameter field — the demixing metric of
/// [`TwoFluidLbm::demix_metric`], exposed over a precomputed field so
/// callers that already hold φ (the monitor surface publishes the full
/// lattice anyway) never pay a second distribution pass, and the metric
/// has exactly one definition.
pub fn demix_of(phi: &Field3) -> f64 {
    demix_of_slice(phi.data())
}

/// [`demix_of`] over the raw row-major field data — the borrowed-payload
/// monitor path holds φ as a reused `Vec<f32>` scratch buffer, never as a
/// [`Field3`]. Replicates `Field3::mean`'s rounding exactly (f64 sum
/// narrowed to f32, then widened), so both entry points produce the same
/// bits for the same field.
pub fn demix_of_slice(phi: &[f32]) -> f64 {
    let mean = if phi.is_empty() {
        0.0f32
    } else {
        phi.iter().map(|&v| v as f64).sum::<f64>() as f32 / phi.len() as f32
    } as f64;
    phi.iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / phi.len() as f64
}

/// Copyable grid geometry shared by the parallel passes (avoids borrowing
/// `self` inside scoped threads).
#[derive(Debug, Clone, Copy)]
struct Geom {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Geom {
    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    /// Periodic neighbour index in direction `i` (the scalar reference
    /// path; the SIMD kernels resolve wraps once per row instead).
    #[inline]
    fn neighbor(&self, x: usize, y: usize, z: usize, i: usize) -> usize {
        let px = (x as i32 + CX[i]).rem_euclid(self.nx as i32) as usize;
        let py = (y as i32 + CY[i]).rem_euclid(self.ny as i32) as usize;
        let pz = (z as i32 + CZ[i]).rem_euclid(self.nz as i32) as usize;
        self.idx(px, py, pz)
    }

    /// Per-direction neighbour *row bases* for the lattice row `(y, z)`:
    /// the neighbour of `(x, y, z)` in direction `i` is
    /// `base[i] + wrap_x(x + CX[i])`, with the x wrap only firing at the
    /// row's two boundary nodes. One `rem_euclid` pair per direction per
    /// row replaces three per direction per node.
    #[inline]
    fn row_bases(&self, y: usize, z: usize) -> [usize; Q] {
        let mut base = [0usize; Q];
        for (i, b) in base.iter_mut().enumerate() {
            let wy = (y as i32 + CY[i]).rem_euclid(self.ny as i32) as usize;
            let wz = (z as i32 + CZ[i]).rem_euclid(self.nz as i32) as usize;
            *b = self.nx * (wy + self.ny * wz);
        }
        base
    }
}

/// Read-only per-pass context shared by the scalar helpers and the SIMD
/// kernels (both backends call through the same node-level math).
struct VelCtx<'a> {
    fa: &'a [f64],
    fb: &'a [f64],
    rho_a: &'a [f64],
    rho_b: &'a [f64],
    n: usize,
    g: f64,
    tau: f64,
    geom: Geom,
}

impl VelCtx<'_> {
    /// The reference velocity computation for one node — the executable
    /// spec both backends must match bit for bit.
    #[inline]
    fn node(&self, x: usize, y: usize, z: usize, node: usize) -> ([f64; 3], [f64; 3]) {
        let n = self.n;
        // momenta
        let mut j = [0.0f64; 3];
        for i in 0..Q {
            let f = self.fa[i * n + node] + self.fb[i * n + node];
            j[0] += f * CX[i] as f64;
            j[1] += f * CY[i] as f64;
            j[2] += f * CZ[i] as f64;
        }
        let ra = self.rho_a[node];
        let rb = self.rho_b[node];
        let rho_tot = (ra + rb).max(1e-12);
        let u = [j[0] / rho_tot, j[1] / rho_tot, j[2] / rho_tot];
        // Shan–Chen forces
        let mut grad_b = [0.0f64; 3];
        let mut grad_a = [0.0f64; 3];
        for i in 1..Q {
            let nb = self.geom.neighbor(x, y, z, i);
            let w = WEIGHTS[i];
            grad_b[0] += w * self.rho_b[nb] * CX[i] as f64;
            grad_b[1] += w * self.rho_b[nb] * CY[i] as f64;
            grad_b[2] += w * self.rho_b[nb] * CZ[i] as f64;
            grad_a[0] += w * self.rho_a[nb] * CX[i] as f64;
            grad_a[1] += w * self.rho_a[nb] * CY[i] as f64;
            grad_a[2] += w * self.rho_a[nb] * CZ[i] as f64;
        }
        let g = self.g;
        let fa_force = [
            -g * ra * grad_b[0],
            -g * ra * grad_b[1],
            -g * ra * grad_b[2],
        ];
        let fb_force = [
            -g * rb * grad_a[0],
            -g * rb * grad_a[1],
            -g * rb * grad_a[2],
        ];
        // per-component equilibrium velocity (velocity-shift forcing)
        let ra_s = ra.max(1e-12);
        let rb_s = rb.max(1e-12);
        let tau = self.tau;
        (
            [
                u[0] + tau * fa_force[0] / ra_s,
                u[1] + tau * fa_force[1] / ra_s,
                u[2] + tau * fa_force[2] / ra_s,
            ],
            [
                u[0] + tau * fb_force[0] / rb_s,
                u[1] + tau * fb_force[1] / rb_s,
                u[2] + tau * fb_force[2] / rb_s,
            ],
        )
    }
}

/// The two-fluid Lattice-Boltzmann simulation.
pub struct TwoFluidLbm {
    cfg: LbmConfig,
    /// Worker pool the three passes dispatch onto (shared across sims with
    /// the same thread count; replaceable via [`TwoFluidLbm::set_pool`]).
    pool: Arc<ExecPool>,
    n: usize,
    plane: usize,
    nplanes: usize,
    /// Distributions, SoA layout `f[i*n + node]`, per component.
    fa: Vec<f64>,
    fb: Vec<f64>,
    /// Scratch buffers for the pull pass (same layout).
    fa_new: Vec<f64>,
    fb_new: Vec<f64>,
    /// Densities (refreshed each step).
    rho_a: Vec<f64>,
    rho_b: Vec<f64>,
    /// Per-component equilibrium velocities, SoA (refreshed each step).
    ua_x: Vec<f64>,
    ua_y: Vec<f64>,
    ua_z: Vec<f64>,
    ub_x: Vec<f64>,
    ub_y: Vec<f64>,
    ub_z: Vec<f64>,
    /// Current miscibility m ∈ \[0,1\].
    miscibility: f64,
    /// Kernel backend (defaults to the process-wide [`lanes::backend`]).
    backend: lanes::Backend,
    steps: u64,
}

impl TwoFluidLbm {
    /// Initialize a perturbed symmetric mixture at rest, on the shared
    /// pool for `cfg.threads`.
    pub fn new(cfg: LbmConfig) -> Self {
        let pool = gridsteer_exec::shared(cfg.threads);
        Self::with_pool(cfg, pool)
    }

    /// Initialize on an explicit executor pool (scenario runs and the
    /// `exp_*` binaries pass one pool to every subsystem).
    pub fn with_pool(cfg: LbmConfig, pool: Arc<ExecPool>) -> Self {
        assert!(cfg.nx >= 2 && cfg.ny >= 2 && cfg.nz >= 2, "grid too small");
        assert!(cfg.tau > 0.5, "tau must exceed 0.5 for stability");
        let n = cfg.nx * cfg.ny * cfg.nz;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut fa = vec![0.0; n * Q];
        let mut fb = vec![0.0; n * Q];
        for node in 0..n {
            let eps: f64 = rng.gen_range(-1.0..1.0) * cfg.noise;
            let ra = cfg.rho0 * (1.0 + eps);
            let rb = cfg.rho0 * (1.0 - eps);
            for i in 0..Q {
                fa[i * n + node] = WEIGHTS[i] * ra;
                fb[i * n + node] = WEIGHTS[i] * rb;
            }
        }
        TwoFluidLbm {
            plane: cfg.nx * cfg.ny,
            nplanes: cfg.nz,
            n,
            fa_new: vec![0.0; n * Q],
            fb_new: vec![0.0; n * Q],
            rho_a: vec![0.0; n],
            rho_b: vec![0.0; n],
            ua_x: vec![0.0; n],
            ua_y: vec![0.0; n],
            ua_z: vec![0.0; n],
            ub_x: vec![0.0; n],
            ub_y: vec![0.0; n],
            ub_z: vec![0.0; n],
            fa,
            fb,
            miscibility: 1.0,
            backend: lanes::backend(),
            pool,
            cfg,
            steps: 0,
        }
    }

    /// Replace the executor pool (results are unaffected: chunking is
    /// fixed per z-plane, so any pool produces identical physics).
    pub fn set_pool(&mut self, pool: Arc<ExecPool>) {
        self.pool = pool;
    }

    /// The executor pool this simulation dispatches onto.
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// The kernel backend in use (scalar reference or lane-blocked).
    pub fn backend(&self) -> lanes::Backend {
        self.backend
    }

    /// Override the kernel backend. Results are unaffected — the two
    /// backends are bit-identical (tested, proptested, and CI-gated);
    /// benches use this to measure both in one process.
    pub fn set_backend(&mut self, backend: lanes::Backend) {
        self.backend = backend;
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.cfg.nx, self.cfg.ny, self.cfg.nz)
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current miscibility (the steering parameter of §2.2).
    pub fn miscibility(&self) -> f64 {
        self.miscibility
    }

    /// Steer the miscibility; values are clamped to \[0, 1\].
    pub fn set_miscibility(&mut self, m: f64) {
        self.miscibility = m.clamp(0.0, 1.0);
    }

    /// Effective inter-component coupling `g`.
    pub fn coupling(&self) -> f64 {
        self.cfg.g_max * (1.0 - self.miscibility)
    }

    fn geom(&self) -> Geom {
        Geom {
            nx: self.cfg.nx,
            ny: self.cfg.ny,
            nz: self.cfg.nz,
        }
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        self.pass_density();
        self.pass_velocity();
        self.pass_stream_collide();
        std::mem::swap(&mut self.fa, &mut self.fa_new);
        std::mem::swap(&mut self.fb, &mut self.fb_new);
        self.steps += 1;
    }

    /// Advance `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn pass_density(&mut self) {
        let plane = self.plane;
        let n = self.n;
        let fa = &self.fa;
        let fb = &self.fb;
        let simd = self.backend == lanes::Backend::Simd;
        // one chunk per z-plane: fixed mapping, any thread count
        self.pool.parallel_chunks2(
            &mut self.rho_a,
            &mut self.rho_b,
            plane,
            plane,
            |ci, ca, cb| {
                let start = ci * plane;
                let mut k = 0usize;
                if simd {
                    // lane-blocked: 4 nodes per iteration, direction sums
                    // still in ascending i per node
                    while k + L <= ca.len() {
                        let node = start + k;
                        let mut sa = F64x4::splat(0.0);
                        let mut sb = F64x4::splat(0.0);
                        for i in 0..Q {
                            sa += F64x4::from_slice(&fa[i * n + node..]);
                            sb += F64x4::from_slice(&fb[i * n + node..]);
                        }
                        sa.write_to(&mut ca[k..]);
                        sb.write_to(&mut cb[k..]);
                        k += L;
                    }
                }
                for k in k..ca.len() {
                    let node = start + k;
                    let mut sa = 0.0;
                    let mut sb = 0.0;
                    for i in 0..Q {
                        sa += fa[i * n + node];
                        sb += fb[i * n + node];
                    }
                    ca[k] = sa;
                    cb[k] = sb;
                }
            },
        );
    }

    fn pass_velocity(&mut self) {
        let ctx = VelCtx {
            fa: &self.fa,
            fb: &self.fb,
            rho_a: &self.rho_a,
            rho_b: &self.rho_b,
            n: self.n,
            g: self.coupling(),
            tau: self.cfg.tau,
            geom: self.geom(),
        };
        let plane = self.plane;
        let out = [
            DisjointChunks::new(&mut self.ua_x, plane),
            DisjointChunks::new(&mut self.ua_y, plane),
            DisjointChunks::new(&mut self.ua_z, plane),
            DisjointChunks::new(&mut self.ub_x, plane),
            DisjointChunks::new(&mut self.ub_y, plane),
            DisjointChunks::new(&mut self.ub_z, plane),
        ];
        let geom = ctx.geom;
        let simd = self.backend == lanes::Backend::Simd;
        self.pool.run(self.nplanes, |pz| {
            let [uax, uay, uaz, ubx, uby, ubz] = [
                out[0].claim(pz),
                out[1].claim(pz),
                out[2].claim(pz),
                out[3].claim(pz),
                out[4].claim(pz),
                out[5].claim(pz),
            ];
            for y in 0..geom.ny {
                let row = y * geom.nx;
                if simd {
                    velocity_row_simd(&ctx, y, pz, uax, uay, uaz, ubx, uby, ubz);
                } else {
                    for x in 0..geom.nx {
                        let node = pz * plane + row + x;
                        let (va, vb) = ctx.node(x, y, pz, node);
                        uax[row + x] = va[0];
                        uay[row + x] = va[1];
                        uaz[row + x] = va[2];
                        ubx[row + x] = vb[0];
                        uby[row + x] = vb[1];
                        ubz[row + x] = vb[2];
                    }
                }
            }
        });
    }

    fn pass_stream_collide(&mut self) {
        let omega = 1.0 / self.cfg.tau;
        let n = self.n;
        let nplanes = self.nplanes;
        let plane = self.plane;
        let geom = self.geom();
        let ctx = CollideCtx {
            fa: &self.fa,
            fb: &self.fb,
            rho_a: &self.rho_a,
            rho_b: &self.rho_b,
            ua_x: &self.ua_x,
            ua_y: &self.ua_y,
            ua_z: &self.ua_z,
            ub_x: &self.ub_x,
            ub_y: &self.ub_y,
            ub_z: &self.ub_z,
            n,
            omega,
            geom,
        };
        // Chunk the SoA output arrays by plane: direction row i of plane pz
        // is chunk i*nplanes + pz, so the task for plane pz claims one
        // plane-sized chunk per direction — disjoint across tasks, fixed
        // mapping at any thread count.
        let out_a = DisjointChunks::new(&mut self.fa_new, plane);
        let out_b = DisjointChunks::new(&mut self.fb_new, plane);
        let simd = self.backend == lanes::Backend::Simd;
        self.pool.run(nplanes, |pz| {
            for (i, &opp) in OPPOSITE.iter().enumerate() {
                let slot_a = out_a.claim(i * nplanes + pz);
                let slot_b = out_b.claim(i * nplanes + pz);
                if simd {
                    collide_rows_simd(&ctx, i, pz, slot_a, slot_b);
                } else {
                    for y in 0..geom.ny {
                        let row = y * geom.nx;
                        for x in 0..geom.nx {
                            let src = geom.neighbor(x, y, pz, opp);
                            let (va, vb) = ctx.value(i, src);
                            slot_a[row + x] = va;
                            slot_b[row + x] = vb;
                        }
                    }
                }
            }
        });
    }

    /// Total mass per component.
    pub fn total_mass(&self) -> (f64, f64) {
        (self.fa.iter().sum(), self.fb.iter().sum())
    }

    /// Total momentum (both components).
    pub fn total_momentum(&self) -> [f64; 3] {
        let mut p = [0.0f64; 3];
        for node in 0..self.n {
            for i in 0..Q {
                let f = self.fa[i * self.n + node] + self.fb[i * self.n + node];
                p[0] += f * CX[i] as f64;
                p[1] += f * CY[i] as f64;
                p[2] += f * CZ[i] as f64;
            }
        }
        p
    }

    /// The order parameter φ = ρA − ρB as a renderable field — the
    /// "sample" the simulation component emits for the visualization
    /// (§2.1: "the simulation component periodically … emits 'samples' for
    /// consumption by the visualization component").
    pub fn order_parameter(&self) -> Field3 {
        let mut data = Vec::new();
        self.order_parameter_into(&mut data);
        Field3::from_vec(self.cfg.nx, self.cfg.ny, self.cfg.nz, data)
    }

    /// Fill `out` with the order parameter over the whole lattice
    /// (row-major, `x` fastest) without allocating when `out` already has
    /// capacity — the monitor publish path reuses one buffer per sample.
    pub fn order_parameter_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.n);
        for node in 0..self.n {
            out.push(self.phi_node(node));
        }
    }

    #[inline]
    fn phi_node(&self, node: usize) -> f32 {
        let mut ra = 0.0;
        let mut rb = 0.0;
        for i in 0..Q {
            ra += self.fa[i * self.n + node];
            rb += self.fb[i * self.n + node];
        }
        (ra - rb) as f32
    }

    /// One z-plane of the order parameter φ, row-major (`x` fastest) —
    /// the 2-D field slice the monitor bus ships to thin viewers that
    /// cannot afford the full lattice. Computes only the requested plane.
    /// Panics if `z` is out of range.
    pub fn order_parameter_slice(&self, z: usize) -> (usize, usize, Vec<f32>) {
        assert!(
            z < self.cfg.nz,
            "slice plane {z} outside 0..{}",
            self.cfg.nz
        );
        let base = z * self.plane;
        let data = (base..base + self.plane)
            .map(|node| self.phi_node(node))
            .collect();
        (self.cfg.nx, self.cfg.ny, data)
    }

    /// Spatial variance of φ — a scalar demixing metric: near zero for a
    /// mixed state, growing as domains form.
    pub fn demix_metric(&self) -> f64 {
        demix_of(&self.order_parameter())
    }

    /// True if any distribution value is non-finite (stability check).
    pub fn is_unstable(&self) -> bool {
        self.fa.iter().chain(self.fb.iter()).any(|v| !v.is_finite())
    }

    /// Snapshot the full solver state for migration — §2.4: "RealityGrid
    /// is developing the ability to migrate both computation and
    /// visualization within a session without any disturbance or
    /// intervention on the part of the participating clients."
    ///
    /// `fa`/`fb` are in the solver's SoA layout (`f[i*n + node]`).
    pub fn checkpoint(&self) -> LbmCheckpoint {
        LbmCheckpoint {
            cfg: self.cfg.clone(),
            fa: self.fa.clone(),
            fb: self.fb.clone(),
            miscibility: self.miscibility,
            steps: self.steps,
        }
    }

    /// Resume a checkpointed run, bit-identically.
    pub fn from_checkpoint(ck: LbmCheckpoint) -> TwoFluidLbm {
        let n = ck.cfg.nx * ck.cfg.ny * ck.cfg.nz;
        assert_eq!(ck.fa.len(), n * Q, "corrupt checkpoint");
        assert_eq!(ck.fb.len(), n * Q, "corrupt checkpoint");
        TwoFluidLbm {
            pool: gridsteer_exec::shared(ck.cfg.threads),
            plane: ck.cfg.nx * ck.cfg.ny,
            nplanes: ck.cfg.nz,
            n,
            fa_new: vec![0.0; n * Q],
            fb_new: vec![0.0; n * Q],
            rho_a: vec![0.0; n],
            rho_b: vec![0.0; n],
            ua_x: vec![0.0; n],
            ua_y: vec![0.0; n],
            ua_z: vec![0.0; n],
            ub_x: vec![0.0; n],
            ub_y: vec![0.0; n],
            ub_z: vec![0.0; n],
            fa: ck.fa,
            fb: ck.fb,
            miscibility: ck.miscibility,
            backend: lanes::backend(),
            cfg: ck.cfg,
            steps: ck.steps,
        }
    }

    /// Lay the full solver state into `snap` as the sections
    /// `lbm/meta` + `lbm/fa` + `lbm/fb`. The distribution sections use a
    /// dirty-chunk grain of one z-plane of doubles — the same fixed
    /// plane→chunk mapping the exec pool dispatches on — so delta
    /// checkpoints ship only the planes that changed.
    pub fn save_sections(&self, snap: &mut Snapshot) {
        let mut w = SectionWriter::with_capacity(96);
        w.put_u64(self.cfg.nx as u64);
        w.put_u64(self.cfg.ny as u64);
        w.put_u64(self.cfg.nz as u64);
        w.put_f64(self.cfg.tau);
        w.put_f64(self.cfg.g_max);
        w.put_f64(self.cfg.rho0);
        w.put_f64(self.cfg.noise);
        w.put_u64(self.cfg.seed);
        w.put_u64(self.cfg.threads as u64);
        w.put_f64(self.miscibility);
        w.put_u64(self.steps);
        snap.push(SEC_LBM_META, 0, w.finish());
        let chunk = (self.plane * 8) as u32;
        snap.push(SEC_LBM_FA, chunk, f64_raw_bytes(&self.fa));
        snap.push(SEC_LBM_FB, chunk, f64_raw_bytes(&self.fb));
    }

    /// Rebuild a solver from the `lbm/*` sections of `snap` — the
    /// fresh-process restore path. Derived arrays (densities, velocities,
    /// scratch) are recomputed on the next step; the pool comes from the
    /// checkpointed thread count and the backend from the process-wide
    /// default, exactly as [`TwoFluidLbm::from_checkpoint`].
    pub fn from_snapshot(snap: &Snapshot) -> Result<TwoFluidLbm, CkptError> {
        let mut r = snap.reader(SEC_LBM_META)?;
        let cfg = LbmConfig {
            nx: r.get_u64()? as usize,
            ny: r.get_u64()? as usize,
            nz: r.get_u64()? as usize,
            tau: r.get_f64()?,
            g_max: r.get_f64()?,
            rho0: r.get_f64()?,
            noise: r.get_f64()?,
            seed: r.get_u64()?,
            threads: r.get_u64()? as usize,
        };
        let miscibility = r.get_f64()?;
        let steps = r.get_u64()?;
        r.expect_end()?;
        let n = cfg.nx * cfg.ny * cfg.nz;
        let fa = f64_section(snap, SEC_LBM_FA, n * Q)?;
        let fb = f64_section(snap, SEC_LBM_FB, n * Q)?;
        Ok(TwoFluidLbm::from_checkpoint(LbmCheckpoint {
            cfg,
            fa,
            fb,
            miscibility,
            steps,
        }))
    }

    /// Replace this solver's physics state from the `lbm/*` sections of
    /// `snap`, keeping the current pool and backend — the in-process
    /// restore path (crash recovery reuses the scenario's pool).
    pub fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let mut fresh = TwoFluidLbm::from_snapshot(snap)?;
        fresh.pool = Arc::clone(&self.pool);
        fresh.backend = self.backend;
        *self = fresh;
        Ok(())
    }
}

/// Snapshot section names for the LBM solver.
pub const SEC_LBM_META: &str = "lbm/meta";
/// Component-A distributions (raw f64 bits, SoA `f[i*n + node]`).
pub const SEC_LBM_FA: &str = "lbm/fa";
/// Component-B distributions (raw f64 bits, SoA `f[i*n + node]`).
pub const SEC_LBM_FB: &str = "lbm/fb";

/// A float slice as unprefixed raw little-endian bit patterns (section
/// length carries the count, so chunk boundaries stay plane-aligned).
fn f64_raw_bytes(vs: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decode an unprefixed raw-bits float section, checking the exact
/// element count.
fn f64_section(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<f64>, CkptError> {
    let bytes = snap
        .section(name)
        .ok_or_else(|| CkptError::MissingSection {
            name: name.to_string(),
        })?;
    if bytes.len() != expect * 8 {
        return Err(CkptError::Truncated {
            context: name.to_string(),
            needed: expect * 8,
            have: bytes.len(),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

/// Read-only stream-collide context (both backends).
struct CollideCtx<'a> {
    fa: &'a [f64],
    fb: &'a [f64],
    rho_a: &'a [f64],
    rho_b: &'a [f64],
    ua_x: &'a [f64],
    ua_y: &'a [f64],
    ua_z: &'a [f64],
    ub_x: &'a [f64],
    ub_y: &'a [f64],
    ub_z: &'a [f64],
    n: usize,
    omega: f64,
    geom: Geom,
}

impl CollideCtx<'_> {
    /// The reference streamed-and-collided value for `(direction i,
    /// source node src)` — the spec the SIMD kernel matches bit for bit.
    #[inline]
    fn value(&self, i: usize, src: usize) -> (f64, f64) {
        let (sa, sb) = (self.fa[i * self.n + src], self.fb[i * self.n + src]);
        let ea = equilibrium(
            i,
            self.rho_a[src],
            self.ua_x[src],
            self.ua_y[src],
            self.ua_z[src],
        );
        let eb = equilibrium(
            i,
            self.rho_b[src],
            self.ub_x[src],
            self.ub_y[src],
            self.ub_z[src],
        );
        (sa + self.omega * (ea - sa), sb + self.omega * (eb - sb))
    }
}

/// SIMD velocity kernel for one lattice row `(y, z)`: interior 4-node
/// blocks load contiguously off the per-row neighbour bases; the row's
/// boundary nodes (where the x wrap can fire) take the scalar reference
/// helper. Output slices are the plane-local views claimed by the caller.
#[allow(clippy::too_many_arguments)] // six SoA output components is the point
fn velocity_row_simd(
    ctx: &VelCtx<'_>,
    y: usize,
    z: usize,
    uax: &mut [f64],
    uay: &mut [f64],
    uaz: &mut [f64],
    ubx: &mut [f64],
    uby: &mut [f64],
    ubz: &mut [f64],
) {
    let geom = ctx.geom;
    let nx = geom.nx;
    let n = ctx.n;
    let row = y * nx;
    let row_node = z * nx * geom.ny + row;
    let bases = geom.row_bases(y, z);
    // interior lane blocks: x in [1, nx-1) so x+CX[i] never wraps
    let hi = nx.saturating_sub(1);
    let mut x = 1usize;
    while L < hi && x + L <= hi {
        let node = row_node + x;
        let mut jx = F64x4::splat(0.0);
        let mut jy = F64x4::splat(0.0);
        let mut jz = F64x4::splat(0.0);
        for i in 0..Q {
            let f = F64x4::from_slice(&ctx.fa[i * n + node..])
                + F64x4::from_slice(&ctx.fb[i * n + node..]);
            jx += f * F64x4::splat(CX[i] as f64);
            jy += f * F64x4::splat(CY[i] as f64);
            jz += f * F64x4::splat(CZ[i] as f64);
        }
        let ra = F64x4::from_slice(&ctx.rho_a[node..]);
        let rb = F64x4::from_slice(&ctx.rho_b[node..]);
        let rho_tot = (ra + rb).max(F64x4::splat(1e-12));
        let ux = jx / rho_tot;
        let uy = jy / rho_tot;
        let uz = jz / rho_tot;
        let mut gbx = F64x4::splat(0.0);
        let mut gby = F64x4::splat(0.0);
        let mut gbz = F64x4::splat(0.0);
        let mut gax = F64x4::splat(0.0);
        let mut gay = F64x4::splat(0.0);
        let mut gaz = F64x4::splat(0.0);
        for i in 1..Q {
            let src = (bases[i] as i64 + (x as i64 + CX[i] as i64)) as usize;
            let w = F64x4::splat(WEIGHTS[i]);
            let rbn = F64x4::from_slice(&ctx.rho_b[src..]);
            let ran = F64x4::from_slice(&ctx.rho_a[src..]);
            gbx += w * rbn * F64x4::splat(CX[i] as f64);
            gby += w * rbn * F64x4::splat(CY[i] as f64);
            gbz += w * rbn * F64x4::splat(CZ[i] as f64);
            gax += w * ran * F64x4::splat(CX[i] as f64);
            gay += w * ran * F64x4::splat(CY[i] as f64);
            gaz += w * ran * F64x4::splat(CZ[i] as f64);
        }
        let ng = F64x4::splat(-ctx.g);
        let fa_fx = ng * ra * gbx;
        let fa_fy = ng * ra * gby;
        let fa_fz = ng * ra * gbz;
        let fb_fx = ng * rb * gax;
        let fb_fy = ng * rb * gay;
        let fb_fz = ng * rb * gaz;
        let ra_s = ra.max(F64x4::splat(1e-12));
        let rb_s = rb.max(F64x4::splat(1e-12));
        let tau = F64x4::splat(ctx.tau);
        (ux + tau * fa_fx / ra_s).write_to(&mut uax[row + x..]);
        (uy + tau * fa_fy / ra_s).write_to(&mut uay[row + x..]);
        (uz + tau * fa_fz / ra_s).write_to(&mut uaz[row + x..]);
        (ux + tau * fb_fx / rb_s).write_to(&mut ubx[row + x..]);
        (uy + tau * fb_fy / rb_s).write_to(&mut uby[row + x..]);
        (uz + tau * fb_fz / rb_s).write_to(&mut ubz[row + x..]);
        x += L;
    }
    // boundary and remainder nodes: the scalar reference helper
    // (SIMD blocks covered x in [1, x); x stayed 1 if none ran)
    for xb in (0..nx).filter(|&xb| xb == 0 || xb >= x) {
        let node = row_node + xb;
        let (va, vb) = ctx.node(xb, y, z, node);
        uax[row + xb] = va[0];
        uay[row + xb] = va[1];
        uaz[row + xb] = va[2];
        ubx[row + xb] = vb[0];
        uby[row + xb] = vb[1];
        ubz[row + xb] = vb[2];
    }
}

/// SIMD stream-collide kernel for direction `i` over plane `z`: for each
/// lattice row the pull source is `bases[opposite] + x + CX[opposite]`,
/// contiguous over the row interior; boundary nodes take the scalar
/// reference path.
fn collide_rows_simd(
    ctx: &CollideCtx<'_>,
    i: usize,
    z: usize,
    slot_a: &mut [f64],
    slot_b: &mut [f64],
) {
    let geom = ctx.geom;
    let nx = geom.nx;
    let n = ctx.n;
    let opp = OPPOSITE[i];
    let omega = F64x4::splat(ctx.omega);
    let fa_row = &ctx.fa[i * n..(i + 1) * n];
    let fb_row = &ctx.fb[i * n..(i + 1) * n];
    let hi = nx.saturating_sub(1);
    for y in 0..geom.ny {
        let row = y * nx;
        let bases = geom.row_bases(y, z);
        let mut x = 1usize;
        while L < hi && x + L <= hi {
            let src = (bases[opp] as i64 + (x as i64 + CX[opp] as i64)) as usize;
            let sa = F64x4::from_slice(&fa_row[src..]);
            let sb = F64x4::from_slice(&fb_row[src..]);
            let ea = equilibrium_x4(
                i,
                F64x4::from_slice(&ctx.rho_a[src..]),
                F64x4::from_slice(&ctx.ua_x[src..]),
                F64x4::from_slice(&ctx.ua_y[src..]),
                F64x4::from_slice(&ctx.ua_z[src..]),
            );
            let eb = equilibrium_x4(
                i,
                F64x4::from_slice(&ctx.rho_b[src..]),
                F64x4::from_slice(&ctx.ub_x[src..]),
                F64x4::from_slice(&ctx.ub_y[src..]),
                F64x4::from_slice(&ctx.ub_z[src..]),
            );
            (sa + omega * (ea - sa)).write_to(&mut slot_a[row + x..]);
            (sb + omega * (eb - sb)).write_to(&mut slot_b[row + x..]);
            x += L;
        }
        // boundary and remainder nodes: the scalar reference value
        // (SIMD blocks covered x in [1, x); x stayed 1 if none ran)
        for xb in (0..nx).filter(|&xb| xb == 0 || xb >= x) {
            let src = geom.neighbor(xb, y, z, opp);
            let (va, vb) = ctx.value(i, src);
            slot_a[row + xb] = va;
            slot_b[row + xb] = vb;
        }
    }
}

/// A full solver checkpoint (see [`TwoFluidLbm::checkpoint`]).
#[derive(Debug, Clone)]
pub struct LbmCheckpoint {
    /// Solver configuration.
    pub cfg: LbmConfig,
    /// Component-A distributions, SoA layout `f[i*n + node]`.
    pub fa: Vec<f64>,
    /// Component-B distributions, SoA layout `f[i*n + node]`.
    pub fb: Vec<f64>,
    /// Steering parameter at checkpoint time.
    pub miscibility: f64,
    /// Step counter at checkpoint time.
    pub steps: u64,
}

impl LbmCheckpoint {
    /// Serialized size in bytes (what migration must move between sites).
    pub fn byte_size(&self) -> usize {
        (self.fa.len() + self.fb.len()) * 8 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_conserved_over_steps() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.2); // strong coupling
        let (ma0, mb0) = sim.total_mass();
        sim.step_n(30);
        let (ma, mb) = sim.total_mass();
        assert!(
            ((ma - ma0) / ma0).abs() < 1e-10,
            "A mass drift {}",
            ma - ma0
        );
        assert!(
            ((mb - mb0) / mb0).abs() < 1e-10,
            "B mass drift {}",
            mb - mb0
        );
    }

    #[test]
    fn momentum_conserved_without_coupling() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(1.0); // g = 0
        sim.step_n(20);
        let p = sim.total_momentum();
        for c in p {
            assert!(c.abs() < 1e-10, "momentum drift {c}");
        }
    }

    #[test]
    fn momentum_nearly_conserved_with_coupling() {
        // pairwise SC forces cancel globally on a periodic lattice up to
        // the O(F²) error of the velocity-shift forcing
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.3);
        sim.step_n(20);
        let p = sim.total_momentum();
        let (ma, mb) = sim.total_mass();
        for c in p {
            assert!(c.abs() / (ma + mb) < 1e-3, "momentum drift {c}");
        }
    }

    #[test]
    fn uniform_mixture_stays_uniform_without_noise() {
        let cfg = LbmConfig {
            noise: 0.0,
            ..LbmConfig::small()
        };
        let mut sim = TwoFluidLbm::new(cfg);
        sim.set_miscibility(0.0); // even at max coupling: no seed, no domains
        sim.step_n(10);
        assert!(sim.demix_metric() < 1e-20);
    }

    #[test]
    fn strong_coupling_demixes_weak_does_not() {
        let mut miscible = TwoFluidLbm::new(LbmConfig::small());
        miscible.set_miscibility(1.0);
        let mut immiscible = TwoFluidLbm::new(LbmConfig::small());
        immiscible.set_miscibility(0.0);
        let v0 = immiscible.demix_metric();
        miscible.step_n(60);
        immiscible.step_n(60);
        assert!(!immiscible.is_unstable(), "solver went unstable");
        let v_mix = miscible.demix_metric();
        let v_demix = immiscible.demix_metric();
        // the paper's observable: lowering miscibility forms structures
        assert!(
            v_demix > v0 * 3.0,
            "no domain growth: v0={v0:.3e} v={v_demix:.3e}"
        );
        assert!(
            v_demix > v_mix * 5.0,
            "demixed variance {v_demix:.3e} not ≫ mixed {v_mix:.3e}"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mk = |threads| {
            let cfg = LbmConfig {
                threads,
                ..LbmConfig::small()
            };
            let mut sim = TwoFluidLbm::new(cfg);
            sim.set_miscibility(0.1);
            sim.step_n(10);
            sim.order_parameter()
        };
        let a = mk(1);
        let b = mk(4);
        assert_eq!(a.data(), b.data(), "thread count changed the physics");
    }

    #[test]
    fn scalar_and_simd_backends_are_bit_identical() {
        let run = |backend: lanes::Backend, threads: usize| {
            let cfg = LbmConfig {
                threads,
                // odd x extent: exercises the SIMD remainder path too
                nx: 13,
                ny: 10,
                nz: 6,
                ..LbmConfig::small()
            };
            let mut sim = TwoFluidLbm::new(cfg);
            sim.set_backend(backend);
            sim.set_miscibility(0.1);
            sim.step_n(12);
            sim.checkpoint()
        };
        let scalar = run(lanes::Backend::Scalar, 1);
        for (backend, threads) in [
            (lanes::Backend::Simd, 1),
            (lanes::Backend::Simd, 4),
            (lanes::Backend::Scalar, 4),
        ] {
            let other = run(backend, threads);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&scalar.fa),
                bits(&other.fa),
                "fa diverged ({}, {threads} threads)",
                backend.label()
            );
            assert_eq!(
                bits(&scalar.fb),
                bits(&other.fb),
                "fb diverged ({}, {threads} threads)",
                backend.label()
            );
        }
    }

    #[test]
    fn tiny_grids_fall_back_to_scalar_rows() {
        // nx < lanes+2: no SIMD block ever fits a row interior, so the
        // lane kernels must degrade to the reference path cleanly
        for (nx, ny, nz) in [(2, 5, 5), (4, 4, 4), (5, 3, 3)] {
            let cfg = LbmConfig {
                nx,
                ny,
                nz,
                ..LbmConfig::small()
            };
            let mut simd = TwoFluidLbm::new(cfg.clone());
            simd.set_backend(lanes::Backend::Simd);
            let mut scalar = TwoFluidLbm::new(cfg);
            scalar.set_backend(lanes::Backend::Scalar);
            simd.set_miscibility(0.2);
            scalar.set_miscibility(0.2);
            simd.step_n(5);
            scalar.step_n(5);
            assert_eq!(
                simd.order_parameter().data(),
                scalar.order_parameter().data(),
                "{nx}x{ny}x{nz}"
            );
        }
    }

    #[test]
    fn explicit_pool_handle_matches_shared_pool() {
        let run = |mut sim: TwoFluidLbm| {
            sim.set_miscibility(0.2);
            sim.step_n(8);
            sim.order_parameter()
        };
        let a = run(TwoFluidLbm::new(LbmConfig::small()));
        let pool = gridsteer_exec::shared(3);
        let b = run(TwoFluidLbm::with_pool(LbmConfig::small(), pool.clone()));
        let mut c = TwoFluidLbm::new(LbmConfig::small());
        c.set_pool(pool);
        assert!(std::sync::Arc::ptr_eq(c.pool(), &gridsteer_exec::shared(3)));
        let c = run(c);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.data(), c.data());
    }

    #[test]
    fn steering_mid_run_changes_behaviour() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(1.0);
        sim.step_n(30);
        let v_before = sim.demix_metric();
        // the SC2003 steering moment: turn the miscibility down live
        sim.set_miscibility(0.0);
        sim.step_n(60);
        let v_after = sim.demix_metric();
        assert!(
            v_after > v_before * 3.0,
            "steering had no effect: {v_before:.3e} → {v_after:.3e}"
        );
    }

    #[test]
    fn miscibility_is_clamped() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(7.0);
        assert_eq!(sim.miscibility(), 1.0);
        sim.set_miscibility(-2.0);
        assert_eq!(sim.miscibility(), 0.0);
        assert_eq!(sim.coupling(), sim.cfg.g_max);
    }

    #[test]
    fn order_parameter_field_has_grid_dims() {
        let sim = TwoFluidLbm::new(LbmConfig::small());
        let phi = sim.order_parameter();
        assert_eq!(phi.dims(), sim.dims());
        // symmetric mixture: mean φ ≈ 0
        assert!(phi.mean().abs() < 1e-2);
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.3);
        a.step_n(7);
        let ck = a.checkpoint();
        let mut b = TwoFluidLbm::from_checkpoint(ck);
        assert_eq!(b.steps(), 7);
        assert_eq!(b.miscibility(), 0.3);
        a.step_n(5);
        b.step_n(5);
        assert_eq!(a.order_parameter().data(), b.order_parameter().data());
    }

    #[test]
    fn snapshot_sections_roundtrip_bit_identical() {
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.3);
        a.step_n(7);
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        // through the wire format, into a fresh process
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        let mut b = TwoFluidLbm::from_snapshot(&decoded).unwrap();
        assert_eq!(b.steps(), 7);
        assert_eq!(b.miscibility(), 0.3);
        a.step_n(5);
        b.step_n(5);
        assert_eq!(a.order_parameter().data(), b.order_parameter().data());
    }

    #[test]
    fn snapshot_restore_in_place_keeps_pool() {
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.2);
        a.step_n(4);
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        a.step_n(6); // diverge past the checkpoint
        let pool = Arc::clone(a.pool());
        a.restore_sections(&snap).unwrap();
        assert!(Arc::ptr_eq(a.pool(), &pool), "restore must keep the pool");
        assert_eq!(a.steps(), 4);
    }

    #[test]
    fn snapshot_missing_or_short_sections_are_typed_errors() {
        let sim = TwoFluidLbm::new(LbmConfig::small());
        let mut snap = Snapshot::new(1, 0);
        sim.save_sections(&mut snap);
        let mut no_fb = snap.clone();
        no_fb.sections.retain(|s| s.name != SEC_LBM_FB);
        assert!(matches!(
            TwoFluidLbm::from_snapshot(&no_fb),
            Err(CkptError::MissingSection { .. })
        ));
        let mut short = snap.clone();
        short.sections[1].bytes.truncate(40);
        assert!(matches!(
            TwoFluidLbm::from_snapshot(&short),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "tau must exceed 0.5")]
    fn invalid_tau_rejected() {
        let cfg = LbmConfig {
            tau: 0.4,
            ..LbmConfig::small()
        };
        let _ = TwoFluidLbm::new(cfg);
    }
}
