//! Binary trace files.
//!
//! A recorded [`TraceLog`] can be written to disk and read back by the
//! `marp-trace` CLI. The format is the workspace wire encoding: a magic
//! header, a record count, then each [`TraceRecord`] as `(at, node,
//! event)`. The record and event codecs are the `wire_struct!` and
//! `wire_enum!` declarations beside them in `marp-sim`; this module owns
//! the header and the file I/O.

use bytes::{Bytes, BytesMut};
use marp_sim::{TraceLog, TraceRecord};
use marp_wire::{Reader, Wire, WireError};

/// File magic: "MARPTRC" + format version.
pub const MAGIC: &[u8; 8] = b"MARPTRC1";

/// Encode a full trace into the binary file format.
pub fn encode_trace(trace: &TraceLog) -> Vec<u8> {
    #[allow(
        clippy::disallowed_methods,
        reason = "a trace file is encoded once, into a buffer of its own"
    )]
    let mut buf = BytesMut::new();
    buf.extend_from_slice(MAGIC);
    trace.records().len().encode(&mut buf);
    for rec in trace.records() {
        rec.encode(&mut buf);
    }
    buf.to_vec()
}

/// Decode a binary trace file back into a [`TraceLog`].
pub fn decode_trace(data: &[u8]) -> Result<TraceLog, WireError> {
    let data = Bytes::copy_from_slice(data);
    let mut buf = Reader::new(&data);
    if buf.take(MAGIC.len()) != Ok(MAGIC) {
        return Err(WireError::InvalidTag {
            type_name: "TraceFileMagic",
            tag: 0,
        });
    }
    let count = usize::decode(&mut buf)?;
    let mut log = TraceLog::new();
    for _ in 0..count {
        let TraceRecord { at, node, event } = TraceRecord::decode(&mut buf)?;
        log.push(at, node, event);
    }
    Ok(log)
}

/// Write a trace to `path` in the binary format.
pub fn save_trace(path: &std::path::Path, trace: &TraceLog) -> std::io::Result<()> {
    std::fs::write(path, encode_trace(trace))
}

/// Read a binary trace file from `path`.
pub fn load_trace(path: &std::path::Path) -> std::io::Result<TraceLog> {
    let data = std::fs::read(path)?;
    decode_trace(&data).map_err(|err| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: not a marp trace file ({err:?})", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_sim::{span_id, SimTime, SpanKind, TraceEvent};

    /// One record of every [`TraceEvent`] variant, in tag order. The
    /// record of tag `t` is at `t + 1` ms on node `t % 5`, as it was
    /// when tags 0 and 1 were still assigned.
    fn sample_trace() -> TraceLog {
        let ms = SimTime::from_millis;
        let span = span_id(SpanKind::Dispatch, 9, 0);
        let events = [
            TraceEvent::MsgDropped {
                from: 1,
                to: 0,
                reason: "partition",
            },
            TraceEvent::NodeDown(3),
            TraceEvent::NodeUp(3),
            TraceEvent::RequestArrived {
                node: 2,
                request: 7,
                write: true,
            },
            TraceEvent::ReadServed {
                node: 2,
                request: 8,
                version: 5,
            },
            TraceEvent::AgentDispatched {
                agent: 9,
                home: 2,
                batch: 4,
            },
            TraceEvent::AgentMigrated {
                agent: 9,
                from: 2,
                to: 3,
                hops: 1,
            },
            TraceEvent::AgentMigrateFailed {
                agent: 9,
                from: 3,
                to: 4,
            },
            TraceEvent::ReplicaDeclaredUnavailable { agent: 9, node: 4 },
            TraceEvent::LockRequested { agent: 9, node: 3 },
            TraceEvent::LockGranted {
                agent: 9,
                node: 3,
                visits: 3,
                via_tie: true,
            },
            TraceEvent::UpdateSent {
                agent: 9,
                version: 5,
            },
            TraceEvent::UpdateAcked {
                agent: 9,
                node: 1,
                positive: false,
            },
            TraceEvent::WinAborted { agent: 9 },
            TraceEvent::CommitApplied {
                node: 1,
                version: 6,
                agent: 9,
                key: 1 << 50,
                request: 7,
            },
            TraceEvent::AgentDisposed {
                agent: 9,
                born: ms(2),
            },
            TraceEvent::UpdateCompleted {
                request: 7,
                home: 2,
                arrived: ms(1),
                dispatched: ms(2),
                locked: ms(4),
                visits: 3,
            },
            TraceEvent::SpanStart {
                id: span,
                parent: 0,
                kind: SpanKind::Dispatch,
                a: 9,
                b: 0,
            },
            TraceEvent::SpanEnd {
                id: span,
                kind: SpanKind::Dispatch,
            },
            TraceEvent::SpanLink {
                from: span_id(SpanKind::Request, 7, 2),
                to: span,
            },
            TraceEvent::Custom {
                kind: "adaptive-batch-size",
                a: 4,
                b: 2,
            },
            TraceEvent::AgentStateShipped {
                agent: 9,
                bytes: 129,
            },
        ];
        let mut log = TraceLog::new();
        for (tag, event) in (2..).zip(events) {
            log.push(ms(tag + 1), (tag % 5) as marp_sim::NodeId, event);
        }
        log
    }

    /// `encode_trace(sample_trace())` as captured before the codec
    /// became a declaration, with the records of tags 0 and 1 (the
    /// per-message events, gone since) cut out and the count lowered to
    /// match: a `MARPTRC1` file an earlier build wrote without them must
    /// keep loading, byte for byte.
    const SAMPLE_TRACE_HEX: &str = concat!(
        "4d4152505452433116c08db701020201000970",
        "6172746974696f6e8092f401030303c096b102040403809bee020005020701c09fab0301",
        "0602080580a4e8030207090204c0a8a50403080902030180ade2040409090304c0b19f05",
        "000a090480b6dc05010b0903c0ba9906020c0903030180bfd606030d0905c0c39307040e",
        "09010080c8d007000f09c0cc8d08011001060980808080808080020780d1ca0802110980",
        "897ac0d5870903120702c0843d80897a8092f4010380dac4090413e3aaa8efe9d2fee312",
        "00010900c0de810a0014e3aaa8efe9d2fee3120180e3be0a0115f6f1b6d3eca9b7f29501",
        "e3aaa8efe9d2fee312c0e7fb0a02161361646170746976652d62617463682d73697a6504",
        "0280ecb80b0317098101",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn the_file_format_is_pinned_byte_for_byte() {
        let log = sample_trace();
        // Every variant is in the sample (tags run 2..=23).
        assert_eq!(log.records().len(), 22);
        assert_eq!(hex(&encode_trace(&log)), SAMPLE_TRACE_HEX);
    }

    #[test]
    fn binary_roundtrip_preserves_every_record() {
        let log = sample_trace();
        let bytes = encode_trace(&log);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(log.records(), back.records());
    }

    #[test]
    fn interner_returns_stable_references() {
        // Labels come back from a file as `'static` references: one
        // allocation per distinct label, however many records name it.
        let mut log = TraceLog::new();
        for node in 0..2 {
            let event = TraceEvent::Custom {
                kind: "some-label",
                a: 0,
                b: 0,
            };
            log.push(SimTime::ZERO, node, event);
        }
        let back = decode_trace(&encode_trace(&log)).unwrap();
        let labels: Vec<&'static str> = back
            .records()
            .iter()
            .map(|r| {
                let TraceEvent::Custom { kind, .. } = r.event else {
                    panic!("only custom events were recorded");
                };
                kind
            })
            .collect();
        assert_eq!(labels, ["some-label"; 2]);
        assert!(std::ptr::eq(labels[0], labels[1]));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(decode_trace(b"NOTATRACE").is_err());
        assert!(decode_trace(b"").is_err());
    }

    /// Truncated anywhere: every strict prefix of a file is an error.
    #[test]
    fn truncated_file_is_rejected() {
        let bytes = encode_trace(&sample_trace());
        for len in 0..bytes.len() {
            assert!(
                decode_trace(&bytes[..len]).is_err(),
                "prefix of {len} bytes"
            );
        }
    }

    #[test]
    fn unknown_event_tags_are_rejected() {
        let mut log = TraceLog::new();
        log.push(SimTime::ZERO, 0, TraceEvent::NodeUp(1));
        let mut bytes = encode_trace(&log);
        // magic, count, at, node, then the event tag.
        let tag_at = MAGIC.len() + 3;
        assert_eq!(bytes[tag_at], 4);
        for tag in [0, 1, 24, 25, 0xff] {
            bytes[tag_at] = tag;
            assert!(matches!(
                decode_trace(&bytes),
                Err(WireError::InvalidTag {
                    type_name: "TraceEvent",
                    ..
                })
            ));
        }
    }
}
