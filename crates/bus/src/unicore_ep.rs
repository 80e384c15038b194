//! The UNICORE adapter: batches travel as Abstract Job Objects.
//!
//! UNICORE has no connection-oriented steering channel — everything is a
//! consigned job (§2.2: AJOs "sent via ssl as serialised Java objects").
//! Each batch therefore becomes a two-task AJO: stage in a `steer.cmd`
//! file carrying the binary-encoded commands, then an `steer-apply`
//! execute task depending on it. The AJO is serialized and deserialized
//! (the consignment hop), its DAG validated, and the staged file decoded
//! back into typed commands on the "target system" side.

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, negotiate_caps, Capabilities, SteerEndpoint, Subscription};
use crate::hub::SteerHub;
use crate::spec::ParamSpec;
use crate::value::ParamValue;
use bytes::{Buf, BufMut, BytesMut};
use unicore::{Ajo, Task};

/// Encode a command list as the `steer.cmd` job payload (count + the
/// shared [`SteerCommand::encode_bytes`] pair codec). The count fits its
/// u16 field: `check_batch` bounds it by the negotiated `max_batch` (64).
fn encode_payload(commands: &[SteerCommand]) -> Result<Vec<u8>, SteerError> {
    let mut buf = BytesMut::new();
    buf.put_u16_le(commands.len() as u16);
    for cmd in commands {
        cmd.encode_bytes(&mut buf)?;
    }
    Ok(buf.to_vec())
}

/// Decode the `steer.cmd` payload. `None` on any malformation.
fn decode_payload(mut buf: &[u8]) -> Option<Vec<SteerCommand>> {
    if buf.len() < 2 {
        return None;
    }
    let count = buf.get_u16_le() as usize;
    let mut commands = Vec::with_capacity(count);
    for _ in 0..count {
        commands.push(SteerCommand::decode_bytes(&mut buf)?);
    }
    buf.is_empty().then_some(commands)
}

/// Steering through UNICORE job consignment.
pub struct UnicoreEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    /// Destination Vsite name used in the job shape.
    vsite: String,
    jobs_consigned: u64,
}

impl UnicoreEndpoint {
    /// Attach to a hub as `origin`, consigning to a default Vsite.
    pub fn attach(hub: &SteerHub, origin: &str) -> UnicoreEndpoint {
        UnicoreEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps: Capabilities::full("unicore", 64),
            vsite: "compute-vsite".to_string(),
            jobs_consigned: 0,
        }
    }

    /// Jobs consigned so far (one per batch).
    pub fn jobs_consigned(&self) -> u64 {
        self.jobs_consigned
    }
}

impl SteerEndpoint for UnicoreEndpoint {
    fn transport(&self) -> &'static str {
        "unicore"
    }

    fn negotiate(&mut self, client: &Capabilities) -> Capabilities {
        negotiate_caps(&self.hub, &self.origin, &mut self.caps, client)
    }

    fn describe(&self) -> Vec<ParamSpec> {
        self.hub.describe()
    }

    fn get(&self, name: &str) -> Option<ParamValue> {
        self.hub.get(name)
    }

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        // build the steering AJO
        let mut ajo = Ajo::new(&format!("steer-{}", self.origin), &self.vsite);
        let stage = ajo.add_task(
            Task::StageIn {
                path: "steer.cmd".into(),
                data: encode_payload(&commands)?,
            },
            &[],
        );
        ajo.add_task(
            Task::Execute {
                command: "steer-apply".into(),
                args: vec![self.origin.clone()],
            },
            &[stage],
        );
        // the consignment hop: serialize, ship, deserialize, validate
        let consigned = Ajo::from_bytes(&ajo.to_bytes())
            .ok_or_else(|| SteerError::Transport("AJO serialization hop failed".into()))?;
        let order = consigned
            .topo_order()
            .map_err(|e| SteerError::Transport(format!("invalid steering AJO: {e:?}")))?;
        // target side: run the DAG in order, decoding the staged file
        let mut decoded: Option<Vec<SteerCommand>> = None;
        for id in order {
            if let Some(Task::StageIn { path, data }) = consigned.task(id).map(|t| &t.task) {
                if path == "steer.cmd" {
                    decoded = decode_payload(data);
                }
            }
        }
        let decoded = decoded
            .ok_or_else(|| SteerError::Transport("steer.cmd missing or malformed".into()))?;
        self.jobs_consigned += 1;
        self.hub.stage(&self.origin, "unicore", decoded)
    }

    fn subscribe(&mut self) -> Subscription {
        self.hub.subscribe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::vec3("beam_dir", -1.0, 1.0, [1.0, 0.0, 0.0]),
            ParamSpec::text("site", "london"),
        ])
    }

    #[test]
    fn batch_rides_an_ajo_and_applies() {
        let h = hub();
        let mut ep = UnicoreEndpoint::attach(&h, "juelich");
        ep.set_batch(vec![
            SteerCommand::f64("miscibility", 0.3),
            SteerCommand::new("beam_dir", ParamValue::Vec3([0.0, 0.0, 1.0])),
            SteerCommand::new("site", ParamValue::Str("phoenix".into())),
        ])
        .unwrap();
        assert_eq!(ep.jobs_consigned(), 1);
        let out = h.commit();
        assert_eq!(out.applied, 3);
        assert_eq!(h.get("site"), Some(ParamValue::Str("phoenix".into())));
        assert_eq!(h.get("beam_dir"), Some(ParamValue::Vec3([0.0, 0.0, 1.0])));
    }

    #[test]
    fn payload_codec_roundtrip_and_truncation() {
        let cmds = vec![
            SteerCommand::f64("a", 1.5),
            SteerCommand::new("b", ParamValue::Str("x".into())),
        ];
        let bytes = encode_payload(&cmds).unwrap();
        assert_eq!(decode_payload(&bytes), Some(cmds));
        for cut in 0..bytes.len() {
            assert_eq!(decode_payload(&bytes[..cut]), None, "cut={cut}");
        }
    }

    #[test]
    fn each_batch_is_one_job() {
        let h = hub();
        let mut ep = UnicoreEndpoint::attach(&h, "j");
        for i in 0..3 {
            ep.set_batch(vec![SteerCommand::f64("miscibility", 0.1 * (i + 1) as f64)])
                .unwrap();
        }
        assert_eq!(ep.jobs_consigned(), 3);
        assert_eq!(h.pending(), 3);
    }
}
