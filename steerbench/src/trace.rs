//! The benchmark's wall clock and its span tracer.
//!
//! [`now`] is the one wall-clock read in the benchmark. A [`Tracer`]
//! wraps each layer call of the replay in a span; a span's *self* time is
//! its wall time minus the wall time of the spans nested in it, so the
//! self times of all spans add up to the traced wall time they cover. The
//! self time of the structural spans ([`Span::Setup`], [`Span::Tick`],
//! [`Span::Action`]) is the untraced glue between layer calls, so the
//! coverage of the layers is the *layer* spans' self time alone. A
//! disabled tracer never reads the clock.

use std::time::Instant;

/// Read the wall clock.
pub fn now() -> Instant {
    // detlint::allow(R1, "the benchmark measures wall time; no reading reaches a digest")
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// The layer call a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    /// Engine construction before the first tick.
    Setup,
    /// One sample tick, end to end (its self time is the engine's glue).
    Tick,
    /// Applying one scripted action outside the layer calls it makes.
    Action,
    /// `SteerHub::commit_with` (including the backend write it drives).
    Commit,
    /// `SteeringSession::steer_value` inside a commit.
    SessionSteer,
    /// `SteeringSession::broadcast_sample` over every shard.
    SessionBroadcast,
    /// `ScenarioBackend::advance` on an LBM backend.
    LbmStep,
    /// `ScenarioBackend::advance` on a PEPC backend.
    PepcStep,
    /// `ScenarioBackend::publish_monitor` into the origin hub.
    Publish,
    /// `MonitorHub::recv` at the origin hub.
    MonitorRecv,
    /// `RelayHub::recv_child`.
    RelayRecvChild,
    /// `RelayHub::ingest`.
    RelayIngest,
    /// `FaultyLink::deliver`.
    Deliver,
    /// `SteerEndpoint::set_batch` (one command each).
    Stage,
    /// Saving every layer into a snapshot.
    CkptSave,
    /// `Snapshot::encode` of the chain head.
    CkptEncodeFull,
    /// `Snapshot::encode_delta` of a later cut.
    CkptEncodeDelta,
    /// Decoding the chain and restoring every layer from it.
    CkptRestore,
}

impl Span {
    /// True for a span around a layer call, false for the structural
    /// spans whose self time is the glue between layer calls.
    pub fn is_layer(self) -> bool {
        !matches!(self, Span::Setup | Span::Tick | Span::Action)
    }
}

/// Number of [`Span`] kinds.
pub const SPAN_KINDS: usize = 18;

/// Every span kind, in declaration order.
pub const ALL_SPANS: [Span; SPAN_KINDS] = [
    Span::Setup,
    Span::Tick,
    Span::Action,
    Span::Commit,
    Span::SessionSteer,
    Span::SessionBroadcast,
    Span::LbmStep,
    Span::PepcStep,
    Span::Publish,
    Span::MonitorRecv,
    Span::RelayRecvChild,
    Span::RelayIngest,
    Span::Deliver,
    Span::Stage,
    Span::CkptSave,
    Span::CkptEncodeFull,
    Span::CkptEncodeDelta,
    Span::CkptRestore,
];

/// Accumulated figures for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Closed spans.
    pub calls: u64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed wall time including nested spans, seconds.
    pub total_s: f64,
}

struct Open {
    span: Span,
    start: Instant,
    children_s: f64,
}

/// Span recorder. `Tracer::off()` is free: no clock reads, no stack.
pub struct Tracer {
    enabled: bool,
    stack: Vec<Open>,
    totals: [SpanTotals; SPAN_KINDS],
    /// Wall time of every closed [`Span::Tick`], seconds.
    pub tick_walls: Vec<f64>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            stack: Vec::new(),
            totals: [SpanTotals::default(); SPAN_KINDS],
            tick_walls: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Open a span of kind `span`.
    pub fn enter(&mut self, span: Span) {
        if self.enabled {
            self.stack.push(Open {
                span,
                start: now(),
                children_s: 0.0,
            });
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self.stack.pop().expect("exit without a matching enter");
        let wall = secs_since(open.start);
        let t = &mut self.totals[open.span as usize];
        t.calls += 1;
        t.self_s += wall - open.children_s;
        t.total_s += wall;
        if open.span == Span::Tick {
            self.tick_walls.push(wall);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_s += wall;
        }
    }

    /// Run `f` inside a span of kind `span`.
    pub fn leaf<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        self.enter(span);
        let r = f();
        self.exit();
        r
    }

    /// Totals for one span kind.
    pub fn totals(&self, span: Span) -> SpanTotals {
        self.totals[span as usize]
    }

    /// Summed self time of the layer spans, seconds.
    pub fn layer_self_s(&self) -> f64 {
        ALL_SPANS
            .iter()
            .filter(|s| s.is_layer())
            .map(|&s| self.totals(s).self_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_outer_span() {
        let mut tr = Tracer::on();
        tr.enter(Span::Tick);
        tr.leaf(Span::Publish, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tr.leaf(Span::Deliver, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tr.exit();
        let tick = tr.totals(Span::Tick);
        assert_eq!(tick.calls, 1);
        assert!((tick.self_s + tr.layer_self_s() - tick.total_s).abs() < 1e-9);
        assert!(tr.layer_self_s() > 0.0 && tr.layer_self_s() <= tick.total_s);
        assert_eq!(tr.tick_walls.len(), 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.enter(Span::Tick);
        tr.exit();
        assert_eq!(tr.totals(Span::Tick).calls, 0);
        assert!(tr.tick_walls.is_empty());
    }
}
