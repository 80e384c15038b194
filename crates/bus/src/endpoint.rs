//! The transport-agnostic steering endpoint contract.
//!
//! A [`SteerEndpoint`] is *the one way anything steers a simulation*: the
//! same four-method surface over an in-process loopback, a VISIT wire
//! link, an OGSA grid service, a COVISE module, or a UNICORE job channel.
//! Clients open with a capability-negotiation handshake
//! ([`SteerEndpoint::negotiate`]), read the typed parameter surface
//! ([`SteerEndpoint::describe`] / [`SteerEndpoint::get`]), stage
//! sequence-numbered command batches ([`SteerEndpoint::set_batch`]), and
//! observe committed changes through [`SteerEndpoint::subscribe`].

use crate::command::{SteerCommand, SteerError, SteerNotice};
use crate::spec::ParamSpec;
use crate::value::{ParamKind, ParamValue};
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// What one side of a steering connection can do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Transport label ("loopback", "visit", "ogsa", "covise", "unicore").
    pub transport: &'static str,
    /// Value kinds this side can carry losslessly.
    pub kinds: BTreeSet<ParamKind>,
    /// Largest batch this side accepts.
    pub max_batch: usize,
    /// True if committed-steer subscriptions are offered.
    pub subscribe: bool,
}

impl Capabilities {
    /// A capability set carrying every kind.
    pub fn full(transport: &'static str, max_batch: usize) -> Capabilities {
        Capabilities {
            transport,
            kinds: ParamKind::ALL.into_iter().collect(),
            max_batch,
            subscribe: true,
        }
    }

    /// The handshake result: what *both* sides can do.
    pub fn intersect(&self, other: &Capabilities) -> Capabilities {
        Capabilities {
            transport: self.transport,
            kinds: self.kinds.intersection(&other.kinds).copied().collect(),
            max_batch: self.max_batch.min(other.max_batch),
            subscribe: self.subscribe && other.subscribe,
        }
    }

    /// Stable one-line rendering (handshake audit lines, digests).
    pub fn render(&self) -> String {
        let kinds: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        format!(
            "transport={} kinds={} max_batch={} subscribe={}",
            self.transport,
            kinds.join("+"),
            self.max_batch,
            self.subscribe
        )
    }
}

/// A pollable stream of committed-steer notices.
#[derive(Debug, Clone, Default)]
pub struct Subscription {
    queue: Arc<Mutex<VecDeque<SteerNotice>>>,
}

/// Upper bound on unpolled notices retained per subscriber; the oldest
/// are dropped first (a steering client that has not polled for this
/// long only cares about recent state anyway).
pub(crate) const MAX_PENDING_NOTICES: usize = 4096;

impl Subscription {
    pub(crate) fn new() -> Subscription {
        Subscription::default()
    }

    /// Rewrap an upgraded weak queue handle (hub fan-out path).
    pub(crate) fn from_queue(queue: Arc<Mutex<VecDeque<SteerNotice>>>) -> Subscription {
        Subscription { queue }
    }

    /// Weak handle for the hub's subscriber list: the hub must not keep
    /// a dropped subscriber's queue alive.
    pub(crate) fn downgrade(&self) -> std::sync::Weak<Mutex<VecDeque<SteerNotice>>> {
        Arc::downgrade(&self.queue)
    }

    pub(crate) fn push(&self, notice: SteerNotice) {
        let mut q = self.queue.lock();
        if q.len() >= MAX_PENDING_NOTICES {
            q.pop_front();
        }
        q.push_back(notice);
    }

    /// Next pending notice, if any.
    pub fn poll(&self) -> Option<SteerNotice> {
        self.queue.lock().pop_front()
    }

    /// Drain everything pending.
    pub fn drain(&self) -> Vec<SteerNotice> {
        self.queue.lock().drain(..).collect()
    }
}

/// The shared handshake body every adapter's `negotiate` uses: narrow
/// the endpoint's capability set to the intersection with the client's
/// and record the result on the hub's audit log.
pub(crate) fn negotiate_caps(
    hub: &crate::hub::SteerHub,
    origin: &str,
    caps: &mut Capabilities,
    client: &Capabilities,
) -> Capabilities {
    *caps = caps.intersect(client);
    hub.record_handshake(origin, caps);
    caps.clone()
}

/// Enforce a negotiated capability set on an outgoing batch (shared by
/// every adapter), and refuse a command the `(name, value)` codec cannot
/// carry — before any transport encodes it, so every transport refuses it
/// alike and the hub never stages a batch its checkpoint cannot restore.
pub(crate) fn check_batch(
    caps: &Capabilities,
    commands: &[SteerCommand],
) -> Result<(), SteerError> {
    if commands.is_empty() {
        return Err(SteerError::EmptyBatch);
    }
    if commands.len() > caps.max_batch {
        return Err(SteerError::TooLarge {
            len: commands.len(),
            max: caps.max_batch,
        });
    }
    for cmd in commands {
        cmd.validate()?;
        if !caps.kinds.contains(&cmd.value.kind()) {
            return Err(SteerError::UnsupportedKind {
                param: cmd.param.clone(),
                kind: cmd.value.kind().name(),
            });
        }
    }
    Ok(())
}

/// One attached steering client over some transport.
pub trait SteerEndpoint: Send {
    /// Transport label (matches [`Capabilities::transport`]).
    fn transport(&self) -> &'static str;

    /// Capability handshake: the client offers what it can do, the
    /// endpoint answers with the negotiated intersection and enforces it
    /// on subsequent batches.
    fn negotiate(&mut self, client: &Capabilities) -> Capabilities;

    /// The typed parameter surface of the attached session.
    fn describe(&self) -> Vec<ParamSpec>;

    /// Current value of one parameter.
    fn get(&self, name: &str) -> Option<ParamValue>;

    /// Ship a command batch through the transport and stage it for the
    /// next step-boundary commit. Returns the hub-assigned batch sequence
    /// number; the per-command outcomes arrive via [`Self::subscribe`].
    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError>;

    /// Subscribe to committed-steer notices.
    fn subscribe(&mut self) -> Subscription;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_is_commutative_on_content() {
        let mut narrow = Capabilities::full("covise", 16);
        narrow.kinds.remove(&ParamKind::Str);
        narrow.kinds.remove(&ParamKind::Vec3);
        let full = Capabilities::full("client", 256);
        let a = narrow.intersect(&full);
        let b = full.intersect(&narrow);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.max_batch, 16);
        assert!(!a.kinds.contains(&ParamKind::Str));
        assert!(a.kinds.contains(&ParamKind::F64));
    }

    #[test]
    fn render_is_stable_and_ordered() {
        let caps = Capabilities::full("visit", 64);
        assert_eq!(
            caps.render(),
            "transport=visit kinds=f64+i64+bool+vec3+str max_batch=64 subscribe=true"
        );
    }

    #[test]
    fn subscription_fifo() {
        let sub = Subscription::new();
        for i in 0..3 {
            sub.push(SteerNotice::Applied {
                commit: 1,
                batch: i,
                origin: "a".into(),
                param: "x".into(),
                value: ParamValue::I64(i as i64),
            });
        }
        assert!(matches!(
            sub.poll(),
            Some(SteerNotice::Applied { batch: 0, .. })
        ));
        assert_eq!(sub.drain().len(), 2);
        assert!(sub.poll().is_none());
    }
}
