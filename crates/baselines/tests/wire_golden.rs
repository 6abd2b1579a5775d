//! Golden wire vectors for the four baseline message spaces — the
//! sibling of `crates/core/tests/wire_golden.rs` for the types
//! `marp-core` cannot see. One fixed value per variant against
//! committed hex; a codec refactor must leave every line untouched.
//!
//! To re-bless after a deliberate format change, run the test: the
//! failure message prints every mismatching vector as a ready-to-paste
//! `name: hex` line.

use marp_baselines::{AcMsg, Ballot, LwwTs, McvMsg, PcMsg, WvMsg};
use marp_replica::{ClientRequest, CommitRecord, Operation, SyncMsg, WriteRequest};
use marp_sim::SimTime;
use marp_wire::Wire;
use std::collections::BTreeMap;
use std::fmt::Debug;

#[derive(Default)]
struct Golden {
    mismatches: Vec<String>,
}

impl Golden {
    fn check<T: Wire + PartialEq + Debug>(&mut self, name: &str, value: T, hex: &str) {
        let bytes = marp_wire::to_bytes(&value);
        let actual: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if actual != hex {
            self.mismatches.push(format!("{name}: {actual}"));
        }
        assert_eq!(value.encoded_len(), bytes.len(), "{name}: encoded_len");
        assert_eq!(
            marp_wire::from_bytes::<T>(&bytes).expect(name),
            value,
            "{name}: round trip"
        );
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "wire format changed; actual encodings:\n{}",
            self.mismatches.join("\n")
        );
    }
}

fn client_request() -> ClientRequest {
    ClientRequest {
        id: 1,
        op: Operation::Write { key: 2, value: 3 },
    }
}

fn commit_record() -> CommitRecord {
    CommitRecord {
        version: 1,
        key: 2,
        value: 3,
        agent: 4,
        request: 9,
        committed_at: SimTime::from_millis(11),
    }
}

fn ballot() -> Ballot {
    Ballot {
        seq: 300,
        coordinator: 2,
    }
}

fn sync() -> SyncMsg {
    SyncMsg::Pull {
        versions: BTreeMap::from([(0, 3)]),
    }
}

#[test]
fn baseline_message_vectors() {
    let mut g = Golden::default();

    g.check(
        "McvMsg::Client",
        McvMsg::Client(client_request()),
        "0001010203",
    );
    g.check(
        "McvMsg::VoteReq",
        McvMsg::VoteReq { ballot: ballot() },
        "01ac0202",
    );
    g.check(
        "McvMsg::Vote",
        McvMsg::Vote {
            ballot: ballot(),
            granted: true,
            store_version: 5,
        },
        "02ac02020105",
    );
    g.check(
        "McvMsg::Apply",
        McvMsg::Apply {
            ballot: ballot(),
            records: vec![commit_record()],
        },
        "03ac0202010102030409c0b19f05",
    );
    g.check(
        "McvMsg::Release",
        McvMsg::Release { ballot: ballot() },
        "04ac0202",
    );
    g.check("McvMsg::Sync", McvMsg::Sync(sync()), "0500010003");

    g.check(
        "WvMsg::Client",
        WvMsg::Client(client_request()),
        "0001010203",
    );
    g.check("WvMsg::WReq", WvMsg::WReq { ballot: ballot() }, "01ac0202");
    g.check(
        "WvMsg::WGrant",
        WvMsg::WGrant {
            ballot: ballot(),
            votes: 2,
            version: 5,
        },
        "02ac02020205",
    );
    g.check(
        "WvMsg::WReject",
        WvMsg::WReject {
            ballot: ballot(),
            votes: 2,
        },
        "03ac020202",
    );
    g.check(
        "WvMsg::WApply",
        WvMsg::WApply {
            ballot: ballot(),
            key: 7,
            value: 300,
            version: 6,
        },
        "04ac020207ac0206",
    );
    g.check(
        "WvMsg::WRelease",
        WvMsg::WRelease { ballot: ballot() },
        "05ac0202",
    );
    g.check("WvMsg::RReq", WvMsg::RReq { rid: 9, key: 7 }, "060907");
    g.check(
        "WvMsg::RResp(some)",
        WvMsg::RResp {
            rid: 9,
            votes: 2,
            held: Some((300, 6)),
        },
        "07090201ac0206",
    );
    g.check(
        "WvMsg::RResp(none)",
        WvMsg::RResp {
            rid: 9,
            votes: 2,
            held: None,
        },
        "07090200",
    );

    let ts = LwwTs {
        counter: 300,
        node: 2,
    };
    g.check(
        "AcMsg::Client",
        AcMsg::Client(client_request()),
        "0001010203",
    );
    g.check(
        "AcMsg::Write",
        AcMsg::Write {
            request: 9,
            key: 7,
            value: 300,
            ts,
        },
        "010907ac02ac0202",
    );
    g.check("AcMsg::WriteAck", AcMsg::WriteAck { request: 9 }, "0209");
    g.check("AcMsg::StatePull", AcMsg::StatePull, "03");
    g.check(
        "AcMsg::StatePush",
        AcMsg::StatePush {
            dump: vec![(7, 300, ts)],
        },
        "040107ac02ac0202",
    );

    g.check(
        "PcMsg::Client",
        PcMsg::Client(client_request()),
        "0001010203",
    );
    g.check(
        "PcMsg::Forward",
        PcMsg::Forward {
            request: WriteRequest {
                id: 9,
                client: 8,
                key: 7,
                value: 300,
                arrived: SimTime::from_millis(5),
            },
        },
        "01090807ac02c096b102",
    );
    g.check(
        "PcMsg::Replicate",
        PcMsg::Replicate {
            record: commit_record(),
        },
        "020102030409c0b19f05",
    );
    g.check("PcMsg::RepAck", PcMsg::RepAck { version: 300 }, "03ac02");
    g.check("PcMsg::Sync", PcMsg::Sync(sync()), "0400010003");
    g.finish();
}
