//! MARP wire messages.
//!
//! [`NodeMsg`] is the complete message space of a MARP replica node;
//! [`AgentReply`] is the payload space of `ToAgent` envelopes servers
//! send back to agents (UPDATE acknowledgements and LL information).

use crate::lt::LockingTable;
use bytes::{Bytes, BytesMut};
use marp_agent::{AgentEnvelope, AgentId, Horizon};
use marp_replica::{ClientRequest, CommitRecord, LlSnapshot, SyncMsg, UpdatedList, WriteRequest};
use marp_sim::{NodeId, SimTime};
use marp_wire::Wire;

/// The winning agent's UPDATE broadcast: "having obtained the lock,
/// broadcast a message to all the replicas to request the update".
/// Doubles as the validation/reservation round (see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// The claiming agent.
    pub agent: AgentId,
    /// Attempt counter: acks echo it so a retried claim cannot count
    /// stale acknowledgements from an aborted attempt.
    pub attempt: u32,
    /// Regeneration incarnation of the batch this agent carries. The
    /// home replica bumps it each time it regenerates a lost agent;
    /// servers fence claims whose incarnation is below the highest they
    /// have positively acknowledged for any of the same requests, so a
    /// zombie original and its replacement can never both commit.
    pub incarnation: u32,
    /// Where the agent awaits acknowledgements: the UPDATE's sender.
    /// The transport names it, so it does not ship; the receiving node
    /// sets it before validation, and a held claim keeps it.
    pub reply_to: NodeId,
    /// The write requests about to be committed (versions not yet
    /// assigned — they are fixed at COMMIT from the quorum's maximum).
    pub requests: Vec<WriteRequest>,
    /// For tie wins: every rival the winner knows about; a server
    /// validates that all agents ranked above the claimant in its LL
    /// appear here.
    pub tie_certificate: Option<Vec<AgentId>>,
}

marp_wire::wire_struct!(UpdateMsg {
    agent,
    attempt,
    incarnation,
    requests,
    tie_certificate
} off_wire { reply_to });

/// The winning agent's COMMIT broadcast, carrying the final records.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitMsg {
    /// The committing agent (its LL entries are removed and it enters
    /// the Updated List).
    pub agent: AgentId,
    /// The committed records, versions assigned.
    pub records: Vec<CommitRecord>,
}

marp_wire::wire_struct!(CommitMsg { agent, records });

/// Full message space of a MARP replica node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// A client request.
    Client(ClientRequest),
    /// Agent-runtime traffic (migrations, acks, agent-addressed mail).
    Agent(AgentEnvelope),
    /// A winner's UPDATE broadcast.
    Update(UpdateMsg),
    /// A winner's COMMIT broadcast.
    Commit(CommitMsg),
    /// A claimant releasing its reservation after a failed validation.
    Release {
        /// The aborting agent.
        agent: AgentId,
    },
    /// A parked agent refreshing its lease and asking for fresh LL info
    /// about its object key — the loss-recovery path behind the pushed
    /// change notices. The reply goes to the query's sender, where the
    /// agent is parked.
    LlQuery {
        /// The asking agent.
        agent: AgentId,
        /// The object key whose queue the agent waits on.
        key: u64,
        /// The asker's Locking-Table horizon (`server → snapshot
        /// version`): the reply's board omits what it already covers.
        horizon: Horizon,
    },
    /// Anti-entropy.
    Sync(SyncMsg),
    /// Read-agent runtime traffic (the consistent-read extension runs
    /// its agents in a separate runtime with its own envelope space).
    RAgent(AgentEnvelope),
}

const TAG_CLIENT: u8 = 0;
const TAG_AGENT: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_RELEASE: u8 = 4;
const TAG_LL_QUERY: u8 = 5;
const TAG_SYNC: u8 = 6;
const TAG_RAGENT: u8 = 7;

/// Leading wire-tag byte of [`NodeMsg::Sync`] frames — the anti-entropy
/// (gossip reconciliation) channel. The sim kernel buckets sent bytes by
/// this leading byte (`RunStats::bytes_by_kind`), so observability code
/// needs the tag value to attribute that slot without re-decoding frames.
pub const WIRE_TAG_SYNC: u8 = TAG_SYNC;

/// Human-readable name for a leading [`NodeMsg`] wire-tag byte, for
/// byte-accounting tables indexed by `RunStats::bytes_by_kind` slot.
/// Unassigned slots come back as `"other"`.
pub fn wire_tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_CLIENT => "client",
        TAG_AGENT => "agent",
        TAG_UPDATE => "update",
        TAG_COMMIT => "commit",
        TAG_RELEASE => "release",
        TAG_LL_QUERY => "ll-query",
        TAG_SYNC => "sync",
        TAG_RAGENT => "ragent",
        _ => "other",
    }
}

marp_wire::wire_enum!(NodeMsg {
    TAG_CLIENT => Client(request),
    TAG_AGENT => Agent(envelope),
    TAG_UPDATE => Update(msg),
    TAG_COMMIT => Commit(msg),
    TAG_RELEASE => Release { agent },
    TAG_LL_QUERY => LlQuery { agent, key, horizon },
    TAG_SYNC => Sync(msg),
    TAG_RAGENT => RAgent(envelope),
});

/// How many tags [`NodeMsg`] has: they are `0..NODE_MSG_TAGS`.
const NODE_MSG_TAGS: usize = 8;

/// How many shapes of frame a node tells apart (see [`frame_shape`]).
pub(crate) const FRAME_SHAPES: usize = NODE_MSG_TAGS + 2;

/// A frame's shape, below [`FRAME_SHAPES`]: its [`NodeMsg`] tag, except
/// that an ack under either agent tag is a shape of its own, since its
/// horizon is the one envelope buffer a migration or a mail between two
/// acks would drop. A frame whose tag names no variant is given the
/// shape of one that does, and fails to decode.
pub(crate) fn frame_shape(frame: &[u8]) -> usize {
    match *frame {
        [TAG_AGENT, AgentEnvelope::ACK_TAG, ..] => NODE_MSG_TAGS,
        [TAG_RAGENT, AgentEnvelope::ACK_TAG, ..] => NODE_MSG_TAGS + 1,
        [tag, ..] => usize::from(tag).min(NODE_MSG_TAGS - 1),
        [] => 0,
    }
}

/// The header of a [`NodeMsg::Agent`] frame (the agent runtime's
/// `WrapFn`: it writes the envelope after it).
pub fn agent_header(buf: &mut BytesMut) {
    TAG_AGENT.encode(buf);
}

/// The header of a [`NodeMsg::RAgent`] frame (the read-agent runtime's
/// `WrapFn`).
pub fn read_agent_header(buf: &mut BytesMut) {
    TAG_RAGENT.encode(buf);
}

/// Payloads servers address to agents (inside `ToAgent` envelopes).
/// None names the replying server: the transport's sender does.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentReply {
    /// Acknowledgement of an UPDATE.
    UpdateAck {
        /// Echo of the claim's attempt counter.
        attempt: u32,
        /// True when validation passed and the lock is reserved for the
        /// claimant; the paper's plain ack.
        positive: bool,
        /// The highest version the server has seen on the key's chain,
        /// applied or buffered behind a gap (the winner commits from
        /// the quorum maximum — "uses the most recent copy").
        store_version: u64,
        /// True when the claim was refused because it is *superseded*:
        /// its incarnation is below a fence, or every request it
        /// carries has already committed. The agent must release and
        /// dispose — its work belongs to another incarnation.
        fenced: bool,
    },
    /// Fresh locking information: the reply to an `LlQuery`, i.e. the
    /// recovery path for an agent that missed a change notice.
    LlInfo {
        /// Its current LL.
        snapshot: LlSnapshot,
        /// Its gossip board contents (empty when gossip is disabled).
        board: LockingTable,
        /// Its Updated List.
        ul: UpdatedList,
    },
    /// Change notice pushed on COMMIT to the agents still queued: the
    /// one fact a commit changes for a waiter is that `finished` left
    /// every queue. The agent records it in its UAL and re-decides; its
    /// carried snapshots stay valid because the priority calculation
    /// skips finished agents.
    LlChanged {
        /// The agent whose commit was just applied there.
        finished: AgentId,
        /// When the server recorded it in its Updated List.
        at: SimTime,
    },
}

marp_wire::wire_enum!(AgentReply {
    0 => UpdateAck { attempt, positive, store_version, fenced },
    1 => LlInfo { snapshot, board, ul },
    2 => LlChanged { finished, at },
});

impl AgentReply {
    /// True when every agent the reply names was launched by a server
    /// of an `n`-server system and every row of its board is such a
    /// server. A reply is outside input: the agent it is mailed to
    /// checks it once, as it decodes it, before reading it.
    pub fn validate(&self, n: usize) -> bool {
        match self {
            AgentReply::UpdateAck { .. } => true,
            AgentReply::LlInfo {
                snapshot,
                board,
                ul,
            } => snapshot.validate(n) && board.validate(n) && ul.validate(n),
            AgentReply::LlChanged { finished, .. } => finished.validate(n),
        }
    }
}

/// The two broadcasts an update agent sends, each written in one pass
/// from the lists it holds (its requests, the records it derives from
/// them) rather than from a message owning copies of them: byte for
/// byte the [`NodeMsg`] that would own them.
impl NodeMsg {
    /// The [`NodeMsg::Update`] frame of a claim on `requests`.
    pub fn update_frame(
        agent: AgentId,
        attempt: u32,
        incarnation: u32,
        requests: &[WriteRequest],
        tie_certificate: Option<&[AgentId]>,
    ) -> Bytes {
        marp_wire::frame(|buf| {
            TAG_UPDATE.encode(buf);
            agent.encode(buf);
            attempt.encode(buf);
            incarnation.encode(buf);
            put_list(buf, requests.iter());
            match tie_certificate {
                None => 0u8.encode(buf),
                Some(rivals) => {
                    1u8.encode(buf);
                    put_list(buf, rivals.iter());
                }
            }
        })
    }

    /// The [`NodeMsg::Commit`] frame of `records`.
    pub fn commit_frame(
        agent: AgentId,
        records: impl ExactSizeIterator<Item = CommitRecord>,
    ) -> Bytes {
        marp_wire::frame(|buf| {
            TAG_COMMIT.encode(buf);
            agent.encode(buf);
            marp_wire::put_uvarint(buf, records.len() as u64);
            for record in records {
                record.encode(buf);
            }
        })
    }
}

/// What a `Vec` of `items` encodes to: a count, then each item.
fn put_list<'a, T: Wire + 'a>(buf: &mut BytesMut, items: impl ExactSizeIterator<Item = &'a T>) {
    marp_wire::put_uvarint(buf, items.len() as u64);
    for item in items {
        item.encode(buf);
    }
}

/// Encode an [`AgentEnvelope`] into the MARP node message space.
pub fn wrap_agent_envelope(envelope: AgentEnvelope) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Agent(envelope))
}

/// Encode a [`SyncMsg`] into the MARP node message space.
pub fn wrap_sync(msg: SyncMsg) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Sync(msg))
}

/// Encode a [`ClientRequest`] into the MARP node message space.
pub fn wrap_client_request(request: ClientRequest) -> Bytes {
    marp_wire::to_bytes(&NodeMsg::Client(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marp_replica::Operation;
    use std::collections::BTreeMap;

    fn roundtrip(msg: NodeMsg) {
        let bytes = marp_wire::to_bytes(&msg);
        assert_eq!(marp_wire::from_bytes::<NodeMsg>(&bytes).unwrap(), msg);
    }

    fn aid(home: u16) -> AgentId {
        AgentId::new(home, SimTime::from_millis(3), 1)
    }

    #[test]
    fn node_msgs_roundtrip() {
        roundtrip(NodeMsg::Client(ClientRequest {
            id: 1,
            op: Operation::Write { key: 2, value: 3 },
        }));
        roundtrip(NodeMsg::Agent(AgentEnvelope::MigrateAck {
            agent: aid(1),
            hop: 2,
            horizon: Default::default(),
        }));
        roundtrip(NodeMsg::Update(UpdateMsg {
            agent: aid(1),
            attempt: 2,
            incarnation: 1,
            reply_to: 0,
            requests: vec![WriteRequest {
                id: 9,
                client: 8,
                key: 7,
                value: 6,
                arrived: SimTime::from_millis(5),
            }],
            tie_certificate: Some(vec![aid(2), aid(3)]),
        }));
        roundtrip(NodeMsg::Commit(CommitMsg {
            agent: aid(1),
            records: vec![CommitRecord {
                version: 1,
                key: 2,
                value: 3,
                agent: aid(1).key(),
                request: 9,
                committed_at: SimTime::from_millis(11),
            }],
        }));
        roundtrip(NodeMsg::Release { agent: aid(1) });
        roundtrip(NodeMsg::LlQuery {
            agent: aid(1),
            key: 6,
            horizon: Horizon::from_iter([(0, 3), (4, 9)]),
        });
        roundtrip(NodeMsg::Sync(SyncMsg::Pull {
            versions: BTreeMap::from([(0, 3)]),
        }));
        roundtrip(NodeMsg::RAgent(AgentEnvelope::MigrateAck {
            agent: aid(4),
            hop: 1,
            horizon: Default::default(),
        }));
    }

    #[test]
    fn agent_replies_roundtrip() {
        let reply = AgentReply::UpdateAck {
            attempt: 3,
            positive: true,
            store_version: 5,
            fenced: false,
        };
        let bytes = marp_wire::to_bytes(&reply);
        assert_eq!(marp_wire::from_bytes::<AgentReply>(&bytes).unwrap(), reply);

        let mut board = LockingTable::new();
        board.merge(
            0,
            LlSnapshot {
                version: 1,
                taken_at: SimTime::from_millis(1),
                queue: vec![aid(4)],
            },
        );
        let mut ul = UpdatedList::new();
        ul.record(aid(5), SimTime::from_millis(1));
        let reply = AgentReply::LlInfo {
            snapshot: LlSnapshot {
                version: 2,
                taken_at: SimTime::from_millis(2),
                queue: vec![aid(1), aid(2)],
            },
            board,
            ul,
        };
        let bytes = marp_wire::to_bytes(&reply);
        assert_eq!(marp_wire::from_bytes::<AgentReply>(&bytes).unwrap(), reply);

        let notice = AgentReply::LlChanged {
            finished: aid(5),
            at: SimTime::from_millis(9),
        };
        let bytes = marp_wire::to_bytes(&notice);
        assert!(bytes.len() <= 20, "notice is {} bytes", bytes.len());
        assert_eq!(marp_wire::from_bytes::<AgentReply>(&bytes).unwrap(), notice);
    }

    #[test]
    fn each_message_and_each_ack_has_a_shape_of_its_own() {
        let envelopes = [
            AgentEnvelope::Migrate {
                agent: aid(1),
                hop: 1,
                state: Bytes::from_static(b"state"),
            },
            AgentEnvelope::MigrateAck {
                agent: aid(1),
                hop: 1,
                horizon: Horizon::new(),
            },
            AgentEnvelope::ToAgent {
                agent: aid(1),
                payload: Bytes::new(),
            },
        ];
        let mut msgs = vec![
            NodeMsg::Client(ClientRequest {
                id: 1,
                op: Operation::Read { key: 1 },
            }),
            NodeMsg::Release { agent: aid(1) },
            NodeMsg::LlQuery {
                agent: aid(1),
                key: 1,
                horizon: Horizon::new(),
            },
            NodeMsg::Sync(SyncMsg::Pull {
                versions: BTreeMap::new(),
            }),
            NodeMsg::Update(UpdateMsg {
                agent: aid(1),
                attempt: 1,
                incarnation: 0,
                reply_to: 0,
                requests: Vec::new(),
                tie_certificate: None,
            }),
            NodeMsg::Commit(CommitMsg {
                agent: aid(1),
                records: Vec::new(),
            }),
        ];
        for envelope in envelopes {
            msgs.push(NodeMsg::Agent(envelope.clone()));
            msgs.push(NodeMsg::RAgent(envelope));
        }
        let shapes: std::collections::BTreeSet<usize> = msgs
            .iter()
            .map(|msg| frame_shape(&marp_wire::to_bytes(msg)))
            .collect();
        // A migration and a mail share their carrier's shape.
        assert_eq!(shapes.len(), msgs.len() - 2);
        assert!(shapes.iter().all(|&shape| shape < FRAME_SHAPES));
        for garbage in [&[][..], &[255], &[TAG_AGENT, 255], &[TAG_RAGENT]] {
            assert!(frame_shape(garbage) < FRAME_SHAPES);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let bytes = Bytes::from_static(&[99]);
        assert!(marp_wire::from_bytes::<NodeMsg>(&bytes).is_err());
        assert!(marp_wire::from_bytes::<AgentReply>(&bytes).is_err());
    }

    #[test]
    fn wrappers_produce_decodable_node_msgs() {
        let pull = SyncMsg::Pull {
            versions: BTreeMap::from([(0, 3)]),
        };
        assert_eq!(
            marp_wire::from_bytes::<NodeMsg>(&wrap_sync(pull.clone())).unwrap(),
            NodeMsg::Sync(pull)
        );
        let wrapped = wrap_client_request(ClientRequest {
            id: 4,
            op: Operation::Read { key: 1 },
        });
        assert!(matches!(
            marp_wire::from_bytes::<NodeMsg>(&wrapped).unwrap(),
            NodeMsg::Client(_)
        ));
        let wrapped = wrap_agent_envelope(AgentEnvelope::MigrateAck {
            agent: aid(1),
            hop: 0,
            horizon: Default::default(),
        });
        assert!(matches!(
            marp_wire::from_bytes::<NodeMsg>(&wrapped).unwrap(),
            NodeMsg::Agent(_)
        ));
    }
}
