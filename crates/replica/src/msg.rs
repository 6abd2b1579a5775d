//! Wire messages shared by every replication protocol in the workspace:
//! client traffic, the write-request records agents carry, and the
//! anti-entropy (recovery) exchange.

use crate::store::CommitRecord;
use marp_sim::{NodeId, SimTime};

/// A client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operation {
    /// Read the current value of `key`.
    Read {
        /// Key to read.
        key: u64,
    },
    /// Write `value` to `key`.
    Write {
        /// Key to write.
        key: u64,
        /// New value.
        value: u64,
    },
    /// Read `key` with a freshness guarantee: the protocol must consult
    /// a quorum (MARP dispatches a read agent over a majority of
    /// replicas — the §5 "generic method" extension).
    ReadFresh {
        /// Key to read.
        key: u64,
    },
}

marp_wire::wire_enum!(Operation {
    0 => Read { key },
    1 => Write { key, value },
    2 => ReadFresh { key },
});

impl Operation {
    /// True for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, Operation::Write { .. })
    }

    /// The operation's key.
    pub fn key(&self) -> u64 {
        match *self {
            Operation::Read { key }
            | Operation::Write { key, .. }
            | Operation::ReadFresh { key } => key,
        }
    }
}

/// A request as sent from a client to its replica server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRequest {
    /// Globally unique request id (`client_node << 32 | seq`).
    pub id: u64,
    /// The operation.
    pub op: Operation,
}

marp_wire::wire_struct!(ClientRequest { id, op });

/// Build a globally unique request id.
pub fn request_id(client: NodeId, seq: u32) -> u64 {
    (u64::from(client) << 32) | u64::from(seq)
}

/// Server-to-client replies. Clients' entire message space is this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientReply {
    /// A read result (possibly stale — MARP reads are local).
    ReadOk {
        /// Request id being answered.
        id: u64,
        /// Key that was read.
        key: u64,
        /// Current value, or `None` if never written.
        value: Option<u64>,
        /// Version the serving replica had applied.
        version: u64,
    },
    /// A write has committed (globally ordered at `version`).
    WriteDone {
        /// Request id being answered.
        id: u64,
        /// Commit version assigned to the write.
        version: u64,
    },
    /// The server refused the request (e.g. it only serves reads).
    Rejected {
        /// Request id being answered.
        id: u64,
    },
}

marp_wire::wire_enum!(ClientReply {
    0 => ReadOk { id, key, value, version },
    1 => WriteDone { id, version },
    2 => Rejected { id },
});

/// A pending write as carried in an agent's Request List (RL) or a
/// baseline coordinator's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRequest {
    /// The client request id.
    pub id: u64,
    /// The client node to answer.
    pub client: NodeId,
    /// Key to write.
    pub key: u64,
    /// New value.
    pub value: u64,
    /// When the request arrived at its home server (starts the paper's
    /// ATT clock).
    pub arrived: SimTime,
}

marp_wire::wire_struct!(WriteRequest {
    id,
    client,
    key,
    value,
    arrived
});

/// Anti-entropy exchange for recovering replicas.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncMsg {
    /// "Send me everything my chains are missing."
    Pull {
        /// Highest applied version per chain at the requester. A chain
        /// absent from the map means "send it in full", so an empty map
        /// asks for everything.
        versions: std::collections::BTreeMap<u64, u64>,
    },
    /// The requested commit-log suffix.
    Push {
        /// Records in version order (within each chain).
        records: Vec<CommitRecord>,
    },
}

marp_wire::wire_enum!(SyncMsg {
    0 => Pull { versions },
    1 => Push { records },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: marp_wire::Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = marp_wire::to_bytes(&value);
        assert_eq!(marp_wire::from_bytes::<T>(&bytes).unwrap(), value);
    }

    #[test]
    fn operations_roundtrip() {
        roundtrip(Operation::Read { key: 5 });
        roundtrip(Operation::Write { key: 5, value: 10 });
        roundtrip(Operation::ReadFresh { key: 5 });
        assert!(!Operation::ReadFresh { key: 1 }.is_write());
        assert_eq!(Operation::ReadFresh { key: 4 }.key(), 4);
        assert!(Operation::Write { key: 1, value: 2 }.is_write());
        assert!(!Operation::Read { key: 1 }.is_write());
        assert_eq!(Operation::Read { key: 9 }.key(), 9);
    }

    #[test]
    fn request_and_replies_roundtrip() {
        roundtrip(ClientRequest {
            id: request_id(3, 7),
            op: Operation::Write { key: 1, value: 2 },
        });
        roundtrip(ClientReply::ReadOk {
            id: 1,
            key: 2,
            value: Some(3),
            version: 4,
        });
        roundtrip(ClientReply::ReadOk {
            id: 1,
            key: 2,
            value: None,
            version: 0,
        });
        roundtrip(ClientReply::WriteDone { id: 1, version: 9 });
        roundtrip(ClientReply::Rejected { id: 1 });
    }

    #[test]
    fn request_ids_are_unique_per_client_seq() {
        assert_ne!(request_id(1, 0), request_id(2, 0));
        assert_ne!(request_id(1, 0), request_id(1, 1));
        assert_eq!(request_id(3, 9) >> 32, 3);
    }

    #[test]
    fn write_request_roundtrips() {
        roundtrip(WriteRequest {
            id: 77,
            client: 4,
            key: 8,
            value: 16,
            arrived: SimTime::from_millis(32),
        });
    }

    #[test]
    fn sync_messages_roundtrip() {
        roundtrip(SyncMsg::Pull {
            versions: std::collections::BTreeMap::from([(0u64, 3u64), (7, 1)]),
        });
        roundtrip(SyncMsg::Push {
            records: vec![CommitRecord {
                version: 1,
                key: 2,
                value: 3,
                agent: 4,
                request: 5,
                committed_at: SimTime::from_millis(6),
            }],
        });
    }
}
