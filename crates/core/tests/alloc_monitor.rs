//! The zero-copy acceptance gate for the monitor data plane: once warm,
//! publishing a sample must perform **no grid-sized allocation** anywhere
//! on the path — source extraction (`MonitorSource::publish` refills the
//! caller's scratch), hub fan-out (borrowed payloads chunked in place,
//! never cloned on the fast path), and subscriber delivery (a digesting
//! sink that folds the frames without storing them).
//!
//! The witness is a counting global allocator: every allocation at least
//! as large as the *smaller* grid channel (the mid-plane slice) is
//! counted, so a single hidden clone of either grid trips the gate.

use gridsteer_bus::{MonitorCaps, MonitorEndpoint, MonitorError, MonitorFrame, MonitorHub};
use lbm::{LbmConfig, TwoFluidLbm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use steer_core::MonitorSource;

/// 16×16 mid-plane slice of f32 = 1 KiB: the smallest grid buffer on the
/// monitor surface for the lattice below. Anything this large allocated
/// during a warm publish is a zero-copy regression.
const GRID_BYTES: usize = 16 * 16 * 4;

static ARMED: AtomicBool = AtomicBool::new(false);
static GRID_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Both tests arm the same global counter; the parallel test runner must
/// not interleave their measurement windows.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the wrapper only counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && layout.size() >= GRID_BYTES {
            GRID_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && new_size >= GRID_BYTES {
            GRID_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A viewer that digests delivered frames in place — FNV-1a over the
/// payload floats' bit patterns — storing nothing, allocating nothing.
struct DigestSink {
    caps: MonitorCaps,
    digest: u64,
    frames_seen: u64,
}

impl DigestSink {
    fn new() -> DigestSink {
        DigestSink {
            caps: MonitorCaps::full("digest", 64),
            digest: 0xcbf2_9ce4_8422_2325,
            frames_seen: 0,
        }
    }

    fn fold(&mut self, bits: u64) {
        self.digest ^= bits;
        self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl MonitorEndpoint for DigestSink {
    fn transport(&self) -> &'static str {
        "digest"
    }

    fn negotiate(&mut self, viewer: &MonitorCaps) -> MonitorCaps {
        self.caps = self.caps.intersect(viewer);
        self.caps.clone()
    }

    fn deliver(&mut self, frames: &[MonitorFrame]) -> Result<usize, MonitorError> {
        use gridsteer_bus::MonitorPayload;
        for f in frames {
            self.fold(f.seq);
            match &f.payload {
                MonitorPayload::Scalar { value, .. } => self.fold(value.to_bits()),
                MonitorPayload::Vec3 { value, .. } => {
                    for c in value {
                        self.fold(c.to_bits());
                    }
                }
                MonitorPayload::Grid2 { data, .. } | MonitorPayload::Grid3 { data, .. } => {
                    for v in data.iter() {
                        self.fold(u64::from(v.to_bits()));
                    }
                }
                MonitorPayload::Frame { data, .. } => {
                    for b in data.iter() {
                        self.fold(u64::from(*b));
                    }
                }
            }
            self.frames_seen += 1;
        }
        Ok(frames.len())
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        Vec::new()
    }
}

#[test]
fn warm_monitor_publish_makes_no_grid_sized_allocation() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let mut sim = TwoFluidLbm::new(LbmConfig {
        nx: 16,
        ny: 16,
        nz: 8,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);

    let hub = MonitorHub::new();
    hub.attach_endpoint(
        "viewer",
        Box::new(DigestSink::new()),
        &MonitorCaps::full("viewer", 64),
    );
    let mut scratch = Vec::new();

    // warm-up: the scratch buffer takes its grid-sized capacity here
    for _ in 0..2 {
        assert_eq!(sim.publish(&hub, &mut scratch), 6);
    }

    // steady state: many publishes, zero grid-sized allocations
    GRID_ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    for _ in 0..32 {
        assert_eq!(sim.publish(&hub, &mut scratch), 6);
    }
    ARMED.store(false, Ordering::Relaxed);
    assert_eq!(
        GRID_ALLOCS.load(Ordering::Relaxed),
        0,
        "warm publish path allocated a grid-sized buffer"
    );

    // the frames really arrived (the gate must not pass vacuously)
    let delivered = hub.stats_of("viewer").expect("viewer attached").delivered;
    assert_eq!(delivered, 34 * 6);
}

#[test]
fn cold_scratch_publish_allocates_the_field() {
    // control experiment: a publish into a fresh scratch buffer trips the
    // same counter when the field takes its capacity, proving the
    // instrument can detect what the zero-copy assertion above claims is
    // absent
    let _serial = COUNTER_LOCK.lock().unwrap();
    let sim = TwoFluidLbm::new(LbmConfig {
        nx: 16,
        ny: 16,
        nz: 8,
        threads: 1,
        ..Default::default()
    });
    let hub = MonitorHub::new();
    hub.attach_endpoint(
        "viewer",
        Box::new(DigestSink::new()),
        &MonitorCaps::full("viewer", 64),
    );
    let mut scratch = Vec::new();
    GRID_ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    assert_eq!(sim.publish(&hub, &mut scratch), 6);
    ARMED.store(false, Ordering::Relaxed);
    assert!(
        GRID_ALLOCS.load(Ordering::Relaxed) >= 1,
        "a cold scratch should allocate the field"
    );
}
