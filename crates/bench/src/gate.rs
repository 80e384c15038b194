//! The perf-regression gate: snapshot format, measured workloads, and the
//! baseline comparison CI enforces.
//!
//! The exp binaries' `BENCH_*.json` rows embed their own wall-clock
//! numbers, so their digests change run to run — useless for an exact
//! compare. The gate uses its own snapshot shape instead, keeping the two
//! concerns separate per cell:
//!
//! * `wall_us` — the timing, compared *ratiometrically* against the
//!   committed baseline. Raw ratios would gate on machine speed, so every
//!   cell's `current/baseline` ratio is normalized by the **global median
//!   ratio across all cells of all snapshots**: a uniformly slower CI
//!   runner shifts every ratio equally and normalizes out, while one
//!   regressed kernel stands out against the fleet. The threshold is
//!   [`MAX_REGRESSION`] (>25% per-cell normalized wall regression fails).
//! * `digest` — an FNV-1a 64 fingerprint of the workload's *results*
//!   (distribution bits, delivered-frame bytes), with no timing folded
//!   in. Compared byte-exactly: any drift is a determinism break, not a
//!   perf question, and fails the gate outright.
//!
//! [`snapshot_all`] runs the five gated workloads — LBM collide/stream
//! (the scalar×SIMD / 1×8-thread matrix, whose four digests must agree),
//! the exec-pool chunk kernel, the monitor publish path (cold vs warm
//! scratch, same digest), hub fan-out over encoding subscribers, and the
//! checkpoint codec (full encode, delta encode, decode + restore).

use gridsteer_bus::{MonitorCaps, MonitorEndpoint, MonitorError, MonitorFrame, MonitorHub};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Maximum tolerated normalized per-cell wall ratio (1.25 = +25%).
pub const MAX_REGRESSION: f64 = 1.25;

/// One measured cell: a named workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateCell {
    /// Cell name, stable across runs (e.g. `collide_t8_simd`).
    pub cell: String,
    /// Mean wall time per unit of work, microseconds.
    pub wall_us: f64,
    /// FNV-1a 64 of the workload's result bits — no timing folded in.
    pub digest: String,
}

/// One snapshot file (`BENCH_<id>.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateReport {
    /// Snapshot id: `lbm`, `pool`, `monitor`, `fanout`, `ckpt`.
    pub id: String,
    /// Measured cells, in a fixed order.
    pub cells: Vec<GateCell>,
}

/// The five gated snapshot ids, in run order.
pub const GATE_IDS: [&str; 5] = ["lbm", "pool", "monitor", "fanout", "ckpt"];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Write `BENCH_<id>.json` into `dir`.
pub fn write_report(dir: &std::path::Path, report: &GateReport) -> std::io::Result<()> {
    let path = dir.join(format!("BENCH_{}.json", report.id));
    let body = serde_json::to_string(report).expect("gate report serializes");
    std::fs::write(path, body + "\n")
}

/// Read `BENCH_<id>.json` from `dir`.
pub fn read_report(dir: &std::path::Path, id: &str) -> Result<GateReport, String> {
    let path = dir.join(format!("BENCH_{id}.json"));
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

/// LBM collide/stream over the {scalar, SIMD} × {1, 8 threads} matrix.
/// All four digests fold the full post-run distribution bits and must be
/// identical — the determinism contract extended to the SIMD axis.
pub fn snap_lbm() -> GateReport {
    const STEPS: usize = 12;
    let mut cells = Vec::new();
    for &threads in &[1usize, 8] {
        for &backend in &[lanes::Backend::Scalar, lanes::Backend::Simd] {
            let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
                nx: 32,
                ny: 32,
                nz: 32,
                threads,
                ..Default::default()
            });
            sim.set_backend(backend);
            sim.step_n(2); // warm caches and the pool
            let t0 = Instant::now();
            sim.step_n(STEPS);
            let wall_us = t0.elapsed().as_secs_f64() * 1e6 / STEPS as f64;
            let ck = sim.checkpoint();
            let mut h = FNV_OFFSET;
            for v in ck.fa.iter().chain(ck.fb.iter()) {
                h = fold(h, &v.to_bits().to_le_bytes());
            }
            cells.push(GateCell {
                cell: format!("collide_stream_t{threads}_{}", backend.label()),
                wall_us,
                digest: hex(h),
            });
        }
    }
    let first = cells[0].digest.clone();
    assert!(
        cells.iter().all(|c| c.digest == first),
        "LBM digests diverged across the thread × backend matrix: {cells:?}"
    );
    GateReport {
        id: "lbm".into(),
        cells,
    }
}

/// The exec-pool deterministic chunk kernel at 8 workers.
pub fn snap_pool() -> GateReport {
    const N: usize = 1 << 16;
    const ROUNDS: usize = 40;
    let pool = gridsteer_exec::shared(8);
    let mut data: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    // warm-up round
    pool.parallel_chunks(&mut data, 1024, |ci, slot| {
        for (k, v) in slot.iter_mut().enumerate() {
            *v = (*v * 1.000001 + (ci * 1024 + k) as f64 * 1e-9).sqrt();
        }
    });
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        pool.parallel_chunks(&mut data, 1024, |ci, slot| {
            for (k, v) in slot.iter_mut().enumerate() {
                *v = (*v * 1.000001 + (ci * 1024 + k) as f64 * 1e-9).sqrt();
            }
        });
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let mut h = FNV_OFFSET;
    for v in &data {
        h = fold(h, &v.to_bits().to_le_bytes());
    }
    GateReport {
        id: "pool".into(),
        cells: vec![GateCell {
            cell: "chunks_t8".into(),
            wall_us,
            digest: hex(h),
        }],
    }
}

/// A subscriber that digests delivered frames in place, storing nothing —
/// the measured viewer for the monitor and fan-out snapshots.
struct FoldSink {
    caps: MonitorCaps,
    digest: u64,
}

impl FoldSink {
    fn new() -> FoldSink {
        FoldSink {
            caps: MonitorCaps::full("fold", 64),
            digest: FNV_OFFSET,
        }
    }
}

impl MonitorEndpoint for FoldSink {
    fn transport(&self) -> &'static str {
        "fold"
    }

    fn negotiate(&mut self, viewer: &MonitorCaps) -> MonitorCaps {
        self.caps = self.caps.intersect(viewer);
        self.caps.clone()
    }

    fn deliver(&mut self, frames: &[MonitorFrame]) -> Result<usize, MonitorError> {
        use gridsteer_bus::MonitorPayload;
        for f in frames {
            self.digest = fold(self.digest, &f.seq.to_le_bytes());
            match &f.payload {
                MonitorPayload::Scalar { value, .. } => {
                    self.digest = fold(self.digest, &value.to_bits().to_le_bytes());
                }
                MonitorPayload::Vec3 { value, .. } => {
                    for c in value {
                        self.digest = fold(self.digest, &c.to_bits().to_le_bytes());
                    }
                }
                MonitorPayload::Grid2 { data, .. } | MonitorPayload::Grid3 { data, .. } => {
                    for v in data.iter() {
                        self.digest = fold(self.digest, &v.to_bits().to_le_bytes());
                    }
                }
                MonitorPayload::Frame { data, .. } => {
                    self.digest = fold(self.digest, data);
                }
            }
        }
        Ok(frames.len())
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        Vec::new()
    }
}

/// The monitor publish path with a cold scratch buffer per publish (the
/// field's capacity is allocated every sample) vs one retained buffer.
/// The two cells must produce the same delivered digest; the borrowed cell
/// is the zero-copy steady state.
pub fn snap_monitor() -> GateReport {
    use steer_core::MonitorSource;
    const PUBLISHES: usize = 60;
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);
    let mut cells = Vec::new();
    for &borrowed in &[false, true] {
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "viewer",
            Box::new(FoldSink::new()),
            &MonitorCaps::full("viewer", 64),
        );
        // warm-up publish (scratch takes capacity, hub takes shape)
        let mut scratch = Vec::new();
        sim.publish(&hub, &mut scratch);
        let t0 = Instant::now();
        for _ in 0..PUBLISHES {
            if !borrowed {
                scratch = Vec::new();
            }
            sim.publish(&hub, &mut scratch);
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6 / PUBLISHES as f64;
        // fold the delivered-frame accounting, not the sink's internal
        // digest (seq numbers differ between runs of different lengths
        // only if the schedule drifted — which is exactly what to catch)
        let stats = hub.stats_of("viewer").expect("viewer attached");
        let mut h = FNV_OFFSET;
        h = fold(h, &stats.delivered.to_le_bytes());
        h = fold(h, &stats.errors.to_le_bytes());
        cells.push(GateCell {
            cell: if borrowed {
                "publish_borrowed".into()
            } else {
                "publish_owned".into()
            },
            wall_us,
            digest: hex(h),
        });
    }
    let first = cells[0].digest.clone();
    assert!(
        cells.iter().all(|c| c.digest == first),
        "cold- and warm-scratch publishes delivered different schedules: {cells:?}"
    );
    GateReport {
        id: "monitor".into(),
        cells,
    }
}

/// Hub fan-out to UNICORE subscribers, whose staged-file payloads force a
/// real frame encode — the workload the encode-once chunk cache serves.
/// The digest folds every subscriber's received frames' canonical bytes.
pub fn snap_fanout() -> GateReport {
    const SUBS: usize = 4;
    const PUBLISHES: usize = 30;
    let hub = MonitorHub::new();
    for s in 0..SUBS {
        hub.attach_endpoint(
            &format!("viewer{s}"),
            gridsteer_bus::Transport::Unicore.attach_monitor("snap"),
            &MonitorCaps::full("viewer", 64),
        );
    }
    let grid: Vec<f32> = (0..32 * 32).map(|i| (i as f32).cos()).collect();
    let publish = |step: u64| {
        hub.publish_batch(
            step,
            vec![
                gridsteer_bus::MonitorPayload::scalar("demix", 0.25 + step as f64),
                gridsteer_bus::MonitorPayload::grid2_borrowed("phi_mid", 32, 32, &grid),
            ],
        )
    };
    publish(0); // warm-up
    let t0 = Instant::now();
    for step in 1..=PUBLISHES as u64 {
        publish(step);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / PUBLISHES as f64;
    let mut h = FNV_OFFSET;
    for s in 0..SUBS {
        for frame in hub.recv(&format!("viewer{s}")) {
            h = fold(h, &frame.try_to_bytes().expect("canonical frame bytes"));
        }
    }
    GateReport {
        id: "fanout".into(),
        cells: vec![GateCell {
            cell: format!("unicore_subs{SUBS}_batched"),
            wall_us,
            digest: hex(h),
        }],
    }
}

/// The checkpoint codec over a demo-scale LBM field (32³): full-snapshot
/// encode, delta encode after one more step, and full decode + restore.
/// Digests fold the encoded blob bytes (full/delta) and the restored
/// field's distribution bits (restore) — all byte-stable for a fixed
/// field, so any drift is a codec determinism break.
pub fn snap_ckpt() -> GateReport {
    use gridsteer_ckpt::Snapshot;
    const ROUNDS: usize = 8;
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 32,
        ny: 32,
        nz: 32,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);
    let mut base = Snapshot::new(0, 0);
    sim.save_sections(&mut base);
    sim.step_n(1);
    let mut next = Snapshot::new(1, 1);
    sim.save_sections(&mut next);
    let mut cells = Vec::new();
    // full encode
    let blob = base.encode(); // warm-up
    let t0 = Instant::now();
    let mut full = blob;
    for _ in 0..ROUNDS {
        full = base.encode();
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    cells.push(GateCell {
        cell: "encode_full_32c".into(),
        wall_us,
        digest: hex(fold(FNV_OFFSET, &full)),
    });
    // delta encode against the previous cut
    let mut delta = next.encode_delta(&base); // warm-up
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        delta = next.encode_delta(&base);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    cells.push(GateCell {
        cell: "encode_delta_32c".into(),
        wall_us,
        digest: hex(fold(FNV_OFFSET, &delta)),
    });
    // decode + restore into a fresh simulation
    let restored = lbm::TwoFluidLbm::from_snapshot(&Snapshot::decode(&full).unwrap()).unwrap();
    let t0 = Instant::now();
    let mut restored = restored;
    for _ in 0..ROUNDS {
        let decoded = Snapshot::decode(&full).expect("gate blob decodes");
        restored = lbm::TwoFluidLbm::from_snapshot(&decoded).expect("gate blob restores");
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let ck = restored.checkpoint();
    let mut h = FNV_OFFSET;
    for v in ck.fa.iter().chain(ck.fb.iter()) {
        h = fold(h, &v.to_bits().to_le_bytes());
    }
    cells.push(GateCell {
        cell: "decode_restore_32c".into(),
        wall_us,
        digest: hex(h),
    });
    GateReport {
        id: "ckpt".into(),
        cells,
    }
}

/// Run all five gated workloads, in [`GATE_IDS`] order.
pub fn snapshot_all() -> Vec<GateReport> {
    vec![
        snap_lbm(),
        snap_pool(),
        snap_monitor(),
        snap_fanout(),
        snap_ckpt(),
    ]
}

// ---------------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------------

/// Compare current snapshots in `current_dir` against committed baselines
/// in `baseline_dir`. Returns the list of violations (empty = gate
/// passes). Missing files, missing cells, digest drift, and normalized
/// wall regressions beyond [`MAX_REGRESSION`] are all violations.
pub fn compare(baseline_dir: &std::path::Path, current_dir: &std::path::Path) -> Vec<String> {
    let mut violations = Vec::new();
    // (id, cell, baseline wall, current wall) for every matched pair
    let mut pairs: Vec<(String, String, f64, f64)> = Vec::new();
    for id in GATE_IDS {
        let base = match read_report(baseline_dir, id) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("[{id}] baseline unreadable: {e}"));
                continue;
            }
        };
        let cur = match read_report(current_dir, id) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("[{id}] current snapshot unreadable: {e}"));
                continue;
            }
        };
        for bc in &base.cells {
            let Some(cc) = cur.cells.iter().find(|c| c.cell == bc.cell) else {
                violations.push(format!("[{id}] cell {} missing from current run", bc.cell));
                continue;
            };
            if cc.digest != bc.digest {
                violations.push(format!(
                    "[{id}] cell {} digest drift: baseline {} != current {}",
                    bc.cell, bc.digest, cc.digest
                ));
            }
            if bc.wall_us > 0.0 && cc.wall_us > 0.0 {
                pairs.push((id.to_string(), bc.cell.clone(), bc.wall_us, cc.wall_us));
            }
        }
    }
    if pairs.is_empty() {
        return violations;
    }
    // machine-speed normalization: divide every cell's ratio by the
    // global median ratio, so a uniformly faster/slower runner cancels
    // and only relative per-cell regressions remain
    let mut ratios: Vec<f64> = pairs.iter().map(|(_, _, b, c)| c / b).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    for (id, cell, base, cur) in &pairs {
        let normalized = (cur / base) / median;
        if normalized > MAX_REGRESSION {
            violations.push(format!(
                "[{id}] cell {cell} wall regression: {base:.1}us -> {cur:.1}us \
                 ({normalized:.2}x normalized, limit {MAX_REGRESSION:.2}x)"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &str, cells: &[(&str, f64, &str)]) -> GateReport {
        GateReport {
            id: id.into(),
            cells: cells
                .iter()
                .map(|(c, w, d)| GateCell {
                    cell: (*c).to_string(),
                    wall_us: *w,
                    digest: (*d).to_string(),
                })
                .collect(),
        }
    }

    fn write_all(dir: &std::path::Path, scale: f64, slow_cell: Option<(&str, f64)>) {
        let mut reports = vec![
            report("lbm", &[("a", 100.0, "d1"), ("b", 50.0, "d2")]),
            report("pool", &[("c", 40.0, "d3")]),
            report("monitor", &[("d", 30.0, "d4"), ("e", 20.0, "d5")]),
            report("fanout", &[("f", 60.0, "d6")]),
            report("ckpt", &[("g", 25.0, "d7")]),
        ];
        for r in &mut reports {
            for cell in &mut r.cells {
                cell.wall_us *= scale;
                if let Some((name, factor)) = slow_cell {
                    if cell.cell == name {
                        cell.wall_us *= factor;
                    }
                }
            }
            write_report(dir, r).unwrap();
        }
    }

    #[test]
    fn uniform_machine_speed_shift_passes() {
        let base = tempdir("gate_base_shift");
        let cur = tempdir("gate_cur_shift");
        write_all(&base, 1.0, None);
        write_all(&cur, 3.0, None); // a 3x slower runner, uniformly
        assert_eq!(compare(&base, &cur), Vec::<String>::new());
    }

    #[test]
    fn single_cell_slowdown_fails() {
        let base = tempdir("gate_base_slow");
        let cur = tempdir("gate_cur_slow");
        write_all(&base, 1.0, None);
        write_all(&cur, 1.0, Some(("b", 2.0)));
        let v = compare(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cell b wall regression"), "{}", v[0]);
    }

    #[test]
    fn digest_drift_fails_regardless_of_timing() {
        let base = tempdir("gate_base_digest");
        let cur = tempdir("gate_cur_digest");
        write_all(&base, 1.0, None);
        let mut r = report("lbm", &[("a", 100.0, "XX"), ("b", 50.0, "d2")]);
        write_report(&cur, &r).unwrap();
        r = report("pool", &[("c", 40.0, "d3")]);
        write_report(&cur, &r).unwrap();
        r = report("monitor", &[("d", 30.0, "d4"), ("e", 20.0, "d5")]);
        write_report(&cur, &r).unwrap();
        r = report("fanout", &[("f", 60.0, "d6")]);
        write_report(&cur, &r).unwrap();
        r = report("ckpt", &[("g", 25.0, "d7")]);
        write_report(&cur, &r).unwrap();
        let v = compare(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("digest drift"), "{}", v[0]);
    }

    #[test]
    fn missing_cell_or_file_fails() {
        let base = tempdir("gate_base_missing");
        let cur = tempdir("gate_cur_missing");
        write_all(&base, 1.0, None);
        // current run lacks the fanout file and drops one monitor cell
        write_report(
            &cur,
            &report("lbm", &[("a", 100.0, "d1"), ("b", 50.0, "d2")]),
        )
        .unwrap();
        write_report(&cur, &report("pool", &[("c", 40.0, "d3")])).unwrap();
        write_report(&cur, &report("monitor", &[("d", 30.0, "d4")])).unwrap();
        write_report(&cur, &report("ckpt", &[("g", 25.0, "d7")])).unwrap();
        let v = compare(&base, &cur);
        assert!(v.iter().any(|m| m.contains("cell e missing")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("current snapshot unreadable")),
            "{v:?}"
        );
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gridsteer_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
