//! Transport selection: one enum, two factories — the same five
//! middlewares carry steering in ([`Transport::attach`]) and monitored
//! output back out ([`Transport::attach_monitor`]).

use crate::covise_ep::CoviseEndpoint;
use crate::endpoint::SteerEndpoint;
use crate::hub::SteerHub;
use crate::loopback::LoopbackEndpoint;
use crate::monitor::{
    CoviseMonitor, LoopbackMonitor, MonitorEndpoint, OgsaMonitor, UnicoreMonitor, VisitMonitor,
};
use crate::ogsa_ep::OgsaEndpoint;
use crate::unicore_ep::UnicoreEndpoint;
use crate::visit_ep::VisitEndpoint;

/// Which middleware carries a participant's steering traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process staging (tests, local tools).
    #[default]
    Loopback,
    /// VISIT wire frames over a frame link (§3.2).
    Visit,
    /// OGSA grid-service invocations (§2.3, Figure 2).
    Ogsa,
    /// COVISE module parameters (§4.5).
    Covise,
    /// UNICORE job consignment (§2.2, §3.1).
    Unicore,
}

impl Transport {
    /// Every transport, in display order.
    pub const ALL: [Transport; 5] = [
        Transport::Loopback,
        Transport::Visit,
        Transport::Ogsa,
        Transport::Covise,
        Transport::Unicore,
    ];

    /// Stable lowercase label (handshake lines, reports).
    pub fn label(self) -> &'static str {
        match self {
            Transport::Loopback => "loopback",
            Transport::Visit => "visit",
            Transport::Ogsa => "ogsa",
            Transport::Covise => "covise",
            Transport::Unicore => "unicore",
        }
    }

    /// Attach an endpoint of this transport to `hub` for `origin`.
    pub fn attach(self, hub: &SteerHub, origin: &str) -> Box<dyn SteerEndpoint> {
        match self {
            Transport::Loopback => Box::new(LoopbackEndpoint::attach(hub, origin)),
            Transport::Visit => Box::new(VisitEndpoint::attach(hub, origin)),
            Transport::Ogsa => Box::new(OgsaEndpoint::attach(hub, origin)),
            Transport::Covise => Box::new(CoviseEndpoint::attach(hub, origin)),
            Transport::Unicore => Box::new(UnicoreEndpoint::attach(hub, origin)),
        }
    }

    /// Build a monitor (data-plane) endpoint of this transport for a
    /// subscriber named `origin` — hand it to
    /// [`MonitorHub::attach_endpoint`](crate::MonitorHub::attach_endpoint).
    pub fn attach_monitor(self, origin: &str) -> Box<dyn MonitorEndpoint> {
        match self {
            Transport::Loopback => Box::new(LoopbackMonitor::new()),
            Transport::Visit => Box::new(VisitMonitor::new()),
            Transport::Ogsa => Box::new(OgsaMonitor::new(origin)),
            Transport::Covise => Box::new(CoviseMonitor::new()),
            Transport::Unicore => Box::new(UnicoreMonitor::new(origin)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{SteerCommand, SteerError};
    use crate::spec::ParamSpec;
    use crate::value::ParamValue;

    /// The interop contract: the same f64 steer staged over every
    /// transport produces the same committed value.
    #[test]
    fn every_transport_is_observationally_equivalent() {
        for t in Transport::ALL {
            let hub = SteerHub::new(vec![ParamSpec::f64("miscibility", 0.0, 1.0, 1.0)]);
            let mut ep = t.attach(&hub, "alice");
            assert_eq!(ep.transport(), t.label());
            ep.set_batch(vec![SteerCommand::f64("miscibility", 0.125)])
                .unwrap();
            let out = hub.commit();
            assert_eq!(out.applied, 1, "{}", t.label());
            assert_eq!(
                hub.get("miscibility"),
                Some(ParamValue::F64(0.125)),
                "{}",
                t.label()
            );
        }
    }

    /// A name past the `(name, value)` codec's u16 length field is
    /// refused alike by every transport and by the hub itself, so no batch
    /// is staged that the hub's checkpoint could not restore.
    #[test]
    fn every_transport_refuses_a_name_past_the_u16_field() {
        use gridsteer_ckpt::Snapshot;
        let long = "p".repeat(u16::MAX as usize + 6);
        let hub = SteerHub::new(vec![
            ParamSpec::f64(&long, 0.0, 1.0, 1.0),
            ParamSpec::f64("gain", 0.0, 1.0, 1.0),
        ]);
        let refused = Err(SteerError::NameTooLong { len: long.len() });
        for t in Transport::ALL {
            let mut ep = t.attach(&hub, "alice");
            assert_eq!(
                ep.set_batch(vec![SteerCommand::f64(&long, 0.5)]),
                refused,
                "{}",
                t.label()
            );
        }
        let cmds = vec![
            SteerCommand::f64("gain", 0.5),
            SteerCommand::f64(&long, 0.5),
        ];
        assert_eq!(hub.stage("alice", "loopback", cmds), refused);
        assert_eq!(hub.pending(), 0);
        // what the hub did stage checkpoints and restores
        hub.stage("alice", "loopback", vec![SteerCommand::f64("gain", 0.5)])
            .unwrap();
        let mut snap = Snapshot::new(0, 0);
        hub.save_sections(&mut snap, "hub");
        hub.restore_sections(&snap, "hub").unwrap();
        assert_eq!(hub.pending(), 1);
    }

    /// The outbound interop contract: the same published frames reach a
    /// subscriber identically over every transport that can carry them.
    #[test]
    fn every_monitor_transport_is_observationally_equivalent() {
        use crate::monitor::{MonitorCaps, MonitorHub, MonitorPayload};
        let reference = {
            let hub = MonitorHub::new();
            hub.attach_endpoint(
                "v",
                Transport::Loopback.attach_monitor("v"),
                &MonitorCaps::full("viewer", 64),
            );
            hub.publish_batch(
                3,
                vec![
                    MonitorPayload::grid2("phi", 2, 2, vec![0.5, 1.5, -0.5, 2.0]),
                    MonitorPayload::grid3("rho", 1, 1, 2, vec![9.0, 8.0]),
                ],
            );
            hub.recv("v")
        };
        for t in Transport::ALL {
            let hub = MonitorHub::new();
            hub.attach_endpoint("v", t.attach_monitor("v"), &MonitorCaps::full("viewer", 64));
            hub.publish_batch(
                3,
                vec![
                    MonitorPayload::grid2("phi", 2, 2, vec![0.5, 1.5, -0.5, 2.0]),
                    MonitorPayload::grid3("rho", 1, 1, 2, vec![9.0, 8.0]),
                ],
            );
            assert_eq!(hub.recv("v"), reference, "{}", t.label());
            assert_eq!(hub.stats_of("v").unwrap().delivered, 2, "{}", t.label());
        }
    }

    /// One session, several transports at once — the paper's interop
    /// claim in miniature: staging order decides, not transport identity.
    #[test]
    fn mixed_transports_share_one_session() {
        let hub = SteerHub::new(vec![ParamSpec::f64("x", 0.0, 10.0, 0.0)]);
        let mut eps: Vec<_> = Transport::ALL
            .iter()
            .enumerate()
            .map(|(i, t)| t.attach(&hub, &format!("client{i}")))
            .collect();
        for (i, ep) in eps.iter_mut().enumerate() {
            ep.set_batch(vec![SteerCommand::f64("x", i as f64)])
                .unwrap();
        }
        assert_eq!(hub.pending(), 5);
        let out = hub.commit();
        assert_eq!(out.applied, 5);
        // the last-staged endpoint (unicore) wins
        assert_eq!(hub.get("x"), Some(ParamValue::F64(4.0)));
    }
}
