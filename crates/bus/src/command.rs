//! Steer commands, sequence-numbered batches, and commit outcomes.

use crate::value::ParamValue;
use bytes::{Buf, BufMut, BytesMut};

/// One requested parameter change.
#[derive(Debug, Clone, PartialEq)]
pub struct SteerCommand {
    /// Target parameter name.
    pub param: String,
    /// Requested value (may be clamped/coerced at commit).
    pub value: ParamValue,
}

impl SteerCommand {
    /// Convenience constructor.
    pub fn new(param: &str, value: ParamValue) -> SteerCommand {
        SteerCommand {
            param: param.to_string(),
            value,
        }
    }

    /// f64 shim constructor.
    pub fn f64(param: &str, value: f64) -> SteerCommand {
        SteerCommand::new(param, ParamValue::F64(value))
    }

    /// Check that this command fits the `(name, value)` codec's u16 name
    /// length field. `Ok(())` guarantees
    /// [`encode_bytes`](SteerCommand::encode_bytes) succeeds.
    pub(crate) fn validate(&self) -> Result<(), SteerError> {
        if self.param.len() > u16::MAX as usize {
            return Err(SteerError::NameTooLong {
                len: self.param.len(),
            });
        }
        Ok(())
    }

    /// The shared `(name, value)` wire codec: u16-LE name length + UTF-8
    /// name + tagged [`ParamValue`] bytes. Used by the core TCP server's
    /// `OP_BATCH`, the UNICORE `steer.cmd` job payload and hub
    /// checkpoints, so the framing lives in exactly one place. Refuses a
    /// name the length field cannot carry (writing nothing) rather than
    /// wrapping it and desyncing every byte that follows.
    pub fn encode_bytes(&self, out: &mut BytesMut) -> Result<(), SteerError> {
        self.validate()?;
        out.put_u16_le(self.param.len() as u16);
        out.put_slice(self.param.as_bytes());
        self.value.encode_bytes(out);
        Ok(())
    }

    /// Decode one `(name, value)` pair, advancing `buf` past it.
    pub fn decode_bytes(buf: &mut &[u8]) -> Option<SteerCommand> {
        if buf.len() < 2 {
            return None;
        }
        let len = buf.get_u16_le() as usize;
        if buf.len() < len {
            return None;
        }
        let param = String::from_utf8(buf[..len].to_vec()).ok()?;
        buf.advance(len);
        let value = ParamValue::decode_bytes(buf)?;
        Some(SteerCommand { param, value })
    }
}

/// A staged batch: the unit of atomic application at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandBatch {
    /// Hub-assigned monotone sequence number (global staging order).
    pub seq: u64,
    /// Originating participant (role checks happen at commit).
    pub origin: String,
    /// Transport the batch arrived over (for audit/digest lines).
    pub transport: &'static str,
    /// The commands, in request order.
    pub commands: Vec<SteerCommand>,
}

/// What happened to one staged command at commit.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerNotice {
    /// The command was applied; `value` is the value actually written
    /// (post-clamp/coercion).
    Applied {
        /// Commit sequence number.
        commit: u64,
        /// Batch the command came from.
        batch: u64,
        /// Originating participant.
        origin: String,
        /// Parameter name.
        param: String,
        /// Applied value.
        value: ParamValue,
    },
    /// The command was refused (not master, out of bounds, unknown name,
    /// vanished sender…).
    Refused {
        /// Commit sequence number.
        commit: u64,
        /// Batch the command came from.
        batch: u64,
        /// Originating participant.
        origin: String,
        /// Parameter name.
        param: String,
        /// Human-readable reason.
        reason: String,
    },
}

/// Aggregate result of one hub commit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitOutcome {
    /// Commit sequence number (0 if nothing was staged).
    pub commit: u64,
    /// Commands applied.
    pub applied: u64,
    /// Commands refused.
    pub refused: u64,
}

/// Errors a transport can raise before a command ever reaches the hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SteerError {
    /// The batch was empty.
    EmptyBatch,
    /// The batch exceeds the negotiated maximum size.
    TooLarge {
        /// Requested batch length.
        len: usize,
        /// Negotiated maximum.
        max: usize,
    },
    /// A command's value kind is outside the negotiated capability set.
    UnsupportedKind {
        /// Offending parameter.
        param: String,
        /// The kind the transport cannot carry.
        kind: &'static str,
    },
    /// A command's parameter name exceeds the wire codec's u16 length
    /// field, so no transport (nor a checkpoint) could carry it intact.
    NameTooLong {
        /// Offending name length in bytes.
        len: usize,
    },
    /// The transport failed to encode/decode the batch.
    Transport(String),
}

impl std::fmt::Display for SteerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteerError::EmptyBatch => write!(f, "empty batch"),
            SteerError::TooLarge { len, max } => {
                write!(f, "batch of {len} exceeds negotiated max {max}")
            }
            SteerError::UnsupportedKind { param, kind } => {
                write!(f, "{param}: kind {kind} not negotiated on this transport")
            }
            SteerError::NameTooLong { len } => write!(
                f,
                "parameter name of {len} bytes exceeds the codec's u16 length field"
            ),
            SteerError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_refuses_a_name_past_the_u16_field() {
        let fits = SteerCommand::f64(&"a".repeat(u16::MAX as usize), 0.5);
        let mut buf = BytesMut::new();
        fits.encode_bytes(&mut buf).unwrap();
        let bytes = buf.to_vec();
        let mut slice = bytes.as_slice();
        assert_eq!(SteerCommand::decode_bytes(&mut slice), Some(fits));
        assert!(slice.is_empty());
        // one byte more used to wrap the length to 0 and desync the stream
        let long = SteerCommand::f64(&"a".repeat(u16::MAX as usize + 1), 0.5);
        let mut buf = BytesMut::new();
        assert_eq!(
            long.encode_bytes(&mut buf),
            Err(SteerError::NameTooLong { len: 65_536 })
        );
        assert!(buf.is_empty(), "a refused command writes nothing");
    }
}
