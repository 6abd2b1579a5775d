//! Message-passing replication baselines.
//!
//! The paper's motivation (§1) is a comparison against conventional
//! replication protocols that "are expensive because multiple local
//! processes need to participate in sessions of passing messages and
//! waiting for replies". This crate implements those comparators on the
//! same substrate so the comparison is apples-to-apples:
//!
//! * [`McvNode`] — Majority Consensus Voting (Thomas 1979), the scheme
//!   MARP itself is based on, done the conventional coordinator way.
//! * [`AcNode`] — Available Copy (write-all-available / read-one), the
//!   optimistic baseline of §3.1.
//! * [`WvNode`] — Gifford weighted voting with configurable votes and
//!   `r`/`w` quorums; its quorum reads are the E13 contrast to MARP's
//!   local reads.
//! * [`PcNode`] — primary copy: a sequencer baseline that is cheap
//!   until the primary dies.

#![warn(missing_docs)]

mod ac;
mod common;
mod mcv;
mod primary;
mod weighted;

pub use ac::{wrap_client_request as wrap_ac_client_request, AcConfig, AcMsg, AcNode};
pub use common::{Ballot, LwwStore, LwwTs};
pub use mcv::{wrap_client_request as wrap_mcv_client_request, McvConfig, McvMsg, McvNode};
pub use primary::{wrap_client_request as wrap_pc_client_request, PcConfig, PcMsg, PcNode};
pub use weighted::{wrap_client_request as wrap_wv_client_request, WvConfig, WvMsg, WvNode};
