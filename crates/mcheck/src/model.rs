//! Model configurations: small, fully-specified protocol deployments
//! the explorer can enumerate.
//!
//! A [`ModelSpec`] builds the same process graph the experiment harness
//! uses (`marp-lab`), but sized for exhaustive exploration: a handful
//! of replicas, one single-write client per "agent", a fixed-delay
//! transport (no jitter — nondeterminism is the *scheduler's* job
//! here), and protocol time constants shrunk so that timer-driven
//! recovery paths sit within the explorer's per-path timer budget.
//!
//! The model's network is where its faults live: it can lose MARP mail
//! ([`MailLoss`]) and, for `selftest`, corrupt one field of it
//! ([`Chaos`]), so the protocol crates carry no seeded bug. A faithful
//! network wraps nothing.

#![deny(clippy::wildcard_enum_match_arm)]
#![deny(clippy::match_wildcard_for_single_variants)]

use bytes::Bytes;
use marp_agent::AgentEnvelope;
use marp_baselines::{
    wrap_mcv_client_request, wrap_pc_client_request, McvConfig, McvNode, PcConfig, PcNode,
};
use marp_core::{
    wrap_agent_envelope, wrap_client_request as wrap_marp_client_request, AgentReply, MarpConfig,
    MarpNode, NodeMsg,
};
use marp_metrics::{InvariantMonitor, Violation};
use marp_net::{RoutingTable, Topology};
use marp_replica::{request_id, ClientReply, ClientRequest, ClientWrapFn, Operation};
use marp_sim::{
    impl_as_any, Context, FixedDelay, NodeId, Process, Simulation, TimerId, TraceEvent, TraceLevel,
};
use std::any::Any;
use std::time::Duration;

/// Which protocol family a model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's mobile-agent protocol (strict audit, Theorem 3).
    Marp,
    /// Majority-consensus voting baseline (strict audit, no visits).
    Mcv,
    /// Primary-copy baseline (strict audit, no visits).
    PrimaryCopy,
}

impl Family {
    /// CLI / schedule-file names, each value's printed one first (`pc`
    /// also reads as `primary` and `primary-copy`).
    #[rustfmt::skip]
    const NAMES: &'static [(&'static str, Family)] = &[
        ("marp", Family::Marp),
        ("mcv", Family::Mcv),
        ("pc", Family::PrimaryCopy), ("primary", Family::PrimaryCopy), ("primary-copy", Family::PrimaryCopy),
    ];

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Family> {
        parse_name(Self::NAMES, name)
    }

    /// The CLI / schedule-file name.
    pub fn name(&self) -> &'static str {
        name_of(Self::NAMES, self)
    }
}

/// The value a name stands for in an option's name table.
fn parse_name<T: Copy>(names: &[(&str, T)], name: &str) -> Option<T> {
    names
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, value)| value)
}

/// A value's printed name: its first entry in the option's name table.
fn name_of<T: PartialEq>(names: &[(&'static str, T)], value: &T) -> &'static str {
    names
        .iter()
        .find(|(_, v)| v == value)
        .map_or("", |&(n, _)| n)
}

/// Which mail the model's network loses (MARP only). The
/// **missed-notice schedule family** loses server→agent mail: safety
/// must not depend on the COMMIT change notices, and liveness must fall
/// back to the parked agents' re-poll timer (`AgentTimer::Repoll`). The
/// **lost-commit family** loses the COMMIT itself (FAULTS.md §2's rows
/// for a COMMIT lost to the servers that acked its UPDATE; canonical run
/// `tests/schedules/marp_3x2_commit_lost.txt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MailLoss {
    /// Reliable mail (the faithful default).
    #[default]
    None,
    /// Every change notice is lost — in particular every one addressed
    /// to the would-be next winner.
    Notices,
    /// Every change notice, plus the first `LlInfo` reply each host
    /// would have received: the first re-poll's answer is incomplete
    /// too.
    NoticesAndFirstReply,
    /// Every COMMIT that crosses the network: only the winner's own
    /// host, which gets a loopback copy, learns the decision first-hand.
    Commits,
}

impl MailLoss {
    /// CLI / schedule-file names.
    const NAMES: &'static [(&'static str, MailLoss)] = &[
        ("none", MailLoss::None),
        ("notices", MailLoss::Notices),
        ("notices+reply", MailLoss::NoticesAndFirstReply),
        ("commits", MailLoss::Commits),
    ];

    /// Parse a CLI / schedule-file name.
    pub fn parse(name: &str) -> Option<MailLoss> {
        parse_name(Self::NAMES, name)
    }

    /// The CLI / schedule-file name.
    pub fn name(&self) -> &'static str {
        name_of(Self::NAMES, self)
    }
}

/// The bug `selftest` seeds (MARP only): one field of one message kind
/// corrupted in flight by the model's network, beside [`MailLoss`]. The
/// protocol itself carries no such switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// Faithful delivery.
    None,
    /// Every UPDATE acknowledgement reaches its agent with
    /// `store_version: 0`, so a winner numbers its write on top of
    /// nothing instead of on "the most recent copy": the second winner
    /// commits a second version 1 (`version-conflict`).
    StaleAcks,
}

impl Chaos {
    /// CLI / schedule-file names.
    const NAMES: &'static [(&'static str, Chaos)] =
        &[("none", Chaos::None), ("stale-acks", Chaos::StaleAcks)];

    /// Parse a CLI / schedule-file name.
    pub fn parse(name: &str) -> Option<Chaos> {
        parse_name(Self::NAMES, name)
    }

    /// The CLI / schedule-file name.
    pub fn name(&self) -> &'static str {
        name_of(Self::NAMES, self)
    }
}

/// A fully-specified model: protocol, cluster size, concurrent writers,
/// and the faults its network injects — among them, for the checker's
/// self-test, a seeded bug.
///
/// Its options have one vocabulary: a schedule file's header lines and
/// the command line's model flags (the same names after `--`) are read
/// by [`ModelSpec::set`] and written from [`ModelSpec::options`].
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Protocol family.
    pub family: Family,
    /// Number of replica servers (nodes `0..replicas`).
    pub replicas: usize,
    /// Number of concurrent single-write clients (nodes
    /// `replicas..replicas+agents`), each homed at `client % replicas`.
    pub agents: usize,
    /// Seeded bug (MARP only; `None` for faithful checking).
    pub chaos: Chaos,
    /// Home-side regeneration of lost agents (MARP only). Faithful
    /// models keep this on; the agent-loss schedule family disables it
    /// to prove a crashed host really strands its resident agent's
    /// write without the dispatch registry.
    pub regeneration: bool,
    /// Key assignment for the writers. Off (the default), every writer
    /// targets key 1, so all agents conflict on one lock queue — the
    /// adversarial case Theorems 1–3 are about. On, writer `k` targets
    /// key `k + 1`: the disjoint-key family, which must commit with
    /// per-key chains and no cross-key interference.
    pub distinct_keys: bool,
    /// Agent mail the network loses (MARP only; `None` for faithful
    /// checking).
    pub mail_loss: MailLoss,
    /// The **early-claim schedule family** (MARP only): the network is
    /// slow for COMMITs. Everything else in flight is delivered first,
    /// a COMMIT holds back nothing sent after it on its link, and it
    /// reaches the servers hosting a waiting agent before the others —
    /// so the next winner hears of the commit, claims, and its UPDATE
    /// arrives ahead of the previous COMMIT at every other server: the
    /// pipelined handoff's held-claim path, on the canonical schedule
    /// and every bounded deviation from it.
    pub early_claims: bool,
}

impl ModelSpec {
    /// A faithful model of `family` with the given sizes.
    pub fn new(family: Family, replicas: usize, agents: usize) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        assert!(agents >= 1, "need at least one writer");
        ModelSpec {
            family,
            replicas,
            agents,
            chaos: Chaos::None,
            regeneration: true,
            distinct_keys: false,
            mail_loss: MailLoss::None,
            early_claims: false,
        }
    }

    /// Set the option `name` from its text `value`: `family`, `chaos`
    /// and `mail-loss` by name, `replicas` and `agents` as a number of
    /// at least 1, and the switches `regeneration`, `distinct-keys` and
    /// `early-claims` as a number, on unless 0.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let bad = |what: &str| format!("{name} {value}: {what}");
        let number = || value.parse::<u64>().map_err(|_| bad("not a number"));
        let size = || match number()? {
            0 => Err(bad("must be at least 1")),
            n => Ok(n as usize),
        };
        match name {
            "family" => self.family = Family::parse(value).ok_or_else(|| bad("unknown family"))?,
            "replicas" => self.replicas = size()?,
            "agents" => self.agents = size()?,
            "chaos" => self.chaos = Chaos::parse(value).ok_or_else(|| bad("unknown chaos mode"))?,
            "regeneration" => self.regeneration = number()? != 0,
            "distinct-keys" => self.distinct_keys = number()? != 0,
            "mail-loss" => {
                self.mail_loss = MailLoss::parse(value).ok_or_else(|| bad("unknown mail loss"))?;
            }
            "early-claims" => self.early_claims = number()? != 0,
            _ => return Err(format!("unknown option {name}")),
        }
        Ok(())
    }

    /// The options as `(name, value)` pairs, in header order. Optional
    /// ones at their default are left out, so older schedule files
    /// re-render byte for byte.
    pub fn options(&self) -> Vec<(&'static str, String)> {
        let mut options = vec![
            ("family", self.family.name().to_string()),
            ("replicas", self.replicas.to_string()),
            ("agents", self.agents.to_string()),
            ("chaos", self.chaos.name().to_string()),
        ];
        let loss = self.mail_loss;
        let optional = [
            ("regeneration", !self.regeneration, "0"),
            ("distinct-keys", self.distinct_keys, "1"),
            ("mail-loss", loss != MailLoss::None, loss.name()),
            ("early-claims", self.early_claims, "1"),
        ];
        for (name, shown, value) in optional {
            if shown {
                options.push((name, value.to_string()));
            }
        }
        options
    }

    /// The MARP configuration this model runs (time constants shrunk so
    /// recovery paths fit the explorer's timer budget; batching off so
    /// every write dispatches an agent immediately).
    pub fn marp_config(&self) -> MarpConfig {
        let mut cfg = MarpConfig::new(self.replicas);
        cfg.batch.max_batch = 1;
        cfg.ack_timeout = Duration::from_millis(50);
        cfg.park_repoll = Duration::from_millis(30);
        cfg.maintenance_interval = Duration::from_millis(100);
        cfg.reserve_lease = Duration::from_millis(200);
        cfg.server.lock_lease = Duration::from_millis(300);
        cfg.redispatch_timeout = Duration::from_millis(400);
        cfg.regeneration = self.regeneration;
        cfg
    }

    /// Build the simulation: replicas then one-shot writer clients, on
    /// a 1 ms fixed-delay transport.
    pub fn build(&self) -> Simulation {
        let delay = Duration::from_millis(1);
        let mut sim = Simulation::new(Box::new(FixedDelay(delay)), TraceLevel::Protocol);
        let n = self.replicas;
        let wrap: ClientWrapFn = match self.family {
            Family::Marp => {
                let topo = Topology::uniform_lan(n + self.agents, delay);
                let cfg = self.marp_config();
                for me in 0..n as NodeId {
                    let node = MarpNode::new(me, cfg, RoutingTable::from_topology(me, &topo));
                    sim.add_process(if self.faulty_network() {
                        Box::new(FaultyMail {
                            node,
                            loss: self.mail_loss,
                            chaos: self.chaos,
                            reply_lost: false,
                        })
                    } else {
                        Box::new(node)
                    });
                }
                wrap_marp_client_request
            }
            Family::Mcv => {
                let cfg = McvConfig::new(n);
                for me in 0..n as NodeId {
                    sim.add_process(Box::new(McvNode::new(me, cfg)));
                }
                wrap_mcv_client_request
            }
            Family::PrimaryCopy => {
                for me in 0..n as NodeId {
                    sim.add_process(Box::new(PcNode::new(me, PcConfig::new(n))));
                }
                wrap_pc_client_request
            }
        };
        for k in 0..self.agents {
            let server = (k % n) as NodeId;
            let key = if self.distinct_keys { k as u64 + 1 } else { 1 };
            sim.add_process(Box::new(OneShotWriter::new(
                server,
                key,
                100 + k as u64,
                wrap,
            )));
        }
        sim
    }

    /// Whether the network loses or corrupts MARP mail. A faithful one
    /// adds the nodes unwrapped, so faithful exploration takes exactly
    /// the steps it would without the wrapper.
    fn faulty_network(&self) -> bool {
        self.mail_loss != MailLoss::None || self.chaos != Chaos::None
    }

    /// Whether a run in which `completed` writes have reported
    /// completion has only steady-state ticks left. Never when COMMITs
    /// are lost: a server that missed one catches up on a timer (the
    /// maintenance tick's pull) or not at all, so those runs go on to
    /// the timer budget.
    pub fn finished(&self, completed: usize) -> bool {
        completed >= self.agents && self.mail_loss != MailLoss::Commits
    }

    /// State invariants the trace cannot show, checked after every
    /// step: no MARP server holds a claim behind the claimant's own
    /// reservation. (That a held claim waits behind *some* reservation
    /// needs no check: the claim lives inside it.)
    pub fn state_violations(&self, sim: &Simulation) -> Vec<Violation> {
        if self.family != Family::Marp {
            return Vec::new();
        }
        // Writer `k` writes key `k + 1`, or every writer key 1.
        let keys = 1..=self.agents as u64;
        (0..self.replicas as NodeId)
            .flat_map(|server| keys.clone().map(move |key| (server, key)))
            .filter_map(|(server, key)| {
                let state = sim.process::<MarpNode>(server)?.state();
                let holder = state.reserved_for(key)?;
                state
                    .held_claimants(key)
                    .any(|c| c == holder)
                    .then(|| Violation {
                        rule: "held-behind-itself",
                        detail: format!("server {server}, key {key}: {holder} waits behind itself"),
                    })
            })
            .collect()
    }

    /// The invariant monitor matching this family's guarantees (same
    /// selection as the experiment harness's post-run audit).
    pub fn monitor(&self) -> InvariantMonitor {
        match self.family {
            // MARP grants are subject to the Theorem 3 visit bounds,
            // and its store keeps one dense version chain per key.
            Family::Marp => InvariantMonitor::keyed(self.replicas),
            // Message-passing baselines keep the dense version order but
            // report no visits.
            Family::Mcv | Family::PrimaryCopy => InvariantMonitor::strict(0),
        }
    }
}

/// A MARP node behind a network that loses mail per [`MailLoss`] and
/// corrupts it per [`Chaos`]. Changing a message in flight and changing
/// it on arrival are indistinguishable to the protocol; doing it here
/// keeps the fault a pure function of the delivery order, so explored
/// paths replay exactly.
struct FaultyMail {
    node: MarpNode,
    loss: MailLoss,
    chaos: Chaos,
    reply_lost: bool,
}

impl FaultyMail {
    fn loses(&mut self, from: NodeId, me: NodeId, msg: &Bytes) -> bool {
        if self.loss == MailLoss::None {
            return false;
        }
        let decoded = marp_wire::from_bytes::<NodeMsg>(msg);
        if self.loss == MailLoss::Commits {
            return from != me && matches!(decoded, Ok(NodeMsg::Commit(_)));
        }
        let Ok(NodeMsg::Agent(AgentEnvelope::ToAgent { payload, .. })) = decoded else {
            return false;
        };
        match marp_wire::from_bytes::<AgentReply>(&payload) {
            Ok(AgentReply::LlChanged { .. }) => true,
            Ok(AgentReply::LlInfo { .. }) => {
                let lose = self.loss == MailLoss::NoticesAndFirstReply && !self.reply_lost;
                self.reply_lost |= lose;
                lose
            }
            Ok(AgentReply::UpdateAck { .. }) | Err(_) => false,
        }
    }

    /// `msg` as the node receives it: under [`Chaos::StaleAcks`] an
    /// UPDATE acknowledgement's `store_version` is 0; every other frame
    /// passes untouched.
    fn corrupt(&self, msg: Bytes) -> Bytes {
        if self.chaos != Chaos::StaleAcks {
            return msg;
        }
        let Ok(NodeMsg::Agent(AgentEnvelope::ToAgent { agent, payload })) =
            marp_wire::from_bytes::<NodeMsg>(&msg)
        else {
            return msg;
        };
        let Ok(mut reply) = marp_wire::from_bytes::<AgentReply>(&payload) else {
            return msg;
        };
        let AgentReply::UpdateAck { store_version, .. } = &mut reply else {
            return msg;
        };
        *store_version = 0;
        let payload = marp_wire::to_bytes(&reply);
        wrap_agent_envelope(AgentEnvelope::ToAgent { agent, payload })
    }
}

impl Process for FaultyMail {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Bytes, ctx: &mut dyn Context) {
        if self.loses(from, ctx.me(), &msg) {
            ctx.trace(TraceEvent::Custom {
                kind: "mail-lost",
                a: u64::from(from),
                b: msg.len() as u64,
            });
            return;
        }
        let msg = self.corrupt(msg);
        self.node.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, tag: u64, ctx: &mut dyn Context) {
        self.node.on_timer(timer, tag, ctx);
    }

    fn on_node_status(&mut self, node: NodeId, up: bool, ctx: &mut dyn Context) {
        self.node.on_node_status(node, up, ctx);
    }

    fn on_recover(&mut self, ctx: &mut dyn Context) {
        self.node.on_recover(ctx);
    }

    // Inspection sees through to the protocol node.
    fn as_any(&self) -> &dyn Any {
        &self.node
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut self.node
    }
}

/// A client that issues exactly one write in `on_start` and records the
/// completion. No timers: its whole behaviour is delivery-driven, which
/// keeps client nondeterminism inside the explorer's schedule.
pub struct OneShotWriter {
    server: NodeId,
    key: u64,
    value: u64,
    wrap: ClientWrapFn,
    /// Set when the server confirms the write.
    pub done: bool,
}

impl OneShotWriter {
    /// A writer of `key = value` attached to `server`.
    pub fn new(server: NodeId, key: u64, value: u64, wrap: ClientWrapFn) -> Self {
        OneShotWriter {
            server,
            key,
            value,
            wrap,
            done: false,
        }
    }
}

impl Process for OneShotWriter {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let id = request_id(ctx.me(), 0);
        let msg = (self.wrap)(ClientRequest {
            id,
            op: Operation::Write {
                key: self.key,
                value: self.value,
            },
        });
        ctx.send(self.server, msg);
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, _ctx: &mut dyn Context) {
        if let Ok(ClientReply::WriteDone { .. }) = marp_wire::from_bytes::<ClientReply>(&msg) {
            self.done = true;
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec whose every option differs from [`ModelSpec::new`]'s.
    fn every_option_set() -> ModelSpec {
        let mut spec = ModelSpec::new(Family::PrimaryCopy, 5, 4);
        spec.chaos = Chaos::StaleAcks;
        spec.regeneration = false;
        spec.distinct_keys = true;
        spec.mail_loss = MailLoss::NoticesAndFirstReply;
        spec.early_claims = true;
        spec
    }

    /// Under `stale-acks` the network changes one field of one frame
    /// kind and loses nothing; a faithful network is no wrapper at all.
    #[test]
    fn stale_acks_change_only_an_update_acks_store_version() {
        use marp_agent::AgentId;
        use marp_core::{lt::LockingTable, wrap_sync, CommitMsg};
        use marp_replica::{CommitRecord, LlSnapshot, SyncMsg, UpdatedList};
        use marp_sim::SimTime;

        let mut spec = ModelSpec::new(Family::Marp, 3, 2);
        assert!(!spec.faulty_network(), "faithful nodes are not wrapped");
        spec.chaos = Chaos::StaleAcks;
        assert!(spec.faulty_network());
        let topo = Topology::uniform_lan(3, Duration::from_millis(1));
        let mut net = FaultyMail {
            node: MarpNode::new(0, spec.marp_config(), RoutingTable::from_topology(0, &topo)),
            loss: spec.mail_loss,
            chaos: spec.chaos,
            reply_lost: false,
        };

        let agent = AgentId::new(1, SimTime::from_millis(2), 3);
        let to_agent = |reply: &AgentReply| {
            let payload = marp_wire::to_bytes(reply);
            wrap_agent_envelope(AgentEnvelope::ToAgent { agent, payload })
        };
        let at = SimTime::from_millis(6);
        let record = CommitRecord {
            version: 1,
            key: 1,
            value: 100,
            agent: agent.key(),
            request: 9,
            committed_at: at,
        };
        let untouched = [
            wrap_marp_client_request(ClientRequest {
                id: 9,
                op: Operation::Write { key: 1, value: 100 },
            }),
            wrap_agent_envelope(AgentEnvelope::Migrate {
                agent,
                hop: 1,
                state: Bytes::from_static(b"state"),
            }),
            wrap_agent_envelope(AgentEnvelope::MigrateAck {
                agent,
                hop: 1,
                horizon: marp_agent::Horizon::from_iter([(0, 2)]),
            }),
            to_agent(&AgentReply::LlChanged {
                finished: agent,
                at,
            }),
            to_agent(&AgentReply::LlInfo {
                snapshot: LlSnapshot {
                    version: 1,
                    taken_at: at,
                    queue: vec![agent],
                },
                board: LockingTable::new(),
                ul: UpdatedList::new(),
            }),
            marp_wire::to_bytes(&NodeMsg::Commit(CommitMsg {
                agent,
                records: vec![record.clone()],
            })),
            wrap_sync(SyncMsg::Push {
                records: vec![record],
            }),
        ];
        for frame in untouched {
            assert!(!net.loses(1, 0, &frame));
            assert_eq!(net.corrupt(frame.clone()), frame);
        }

        let ack = |store_version| AgentReply::UpdateAck {
            attempt: 3,
            positive: true,
            store_version,
            fenced: false,
        };
        let frame = to_agent(&ack(7));
        assert!(!net.loses(1, 0, &frame));
        assert_eq!(net.corrupt(frame.clone()), to_agent(&ack(0)));
        net.chaos = Chaos::None;
        assert_eq!(net.corrupt(frame.clone()), frame);
    }

    #[test]
    fn every_option_value_is_named_and_parses_back() {
        for &(name, family) in Family::NAMES {
            assert_eq!(Family::parse(family.name()), Some(family), "{name}");
        }
        for &(name, loss) in MailLoss::NAMES {
            assert_eq!((MailLoss::parse(name), loss.name()), (Some(loss), name));
        }
        for &(name, chaos) in Chaos::NAMES {
            assert_eq!((Chaos::parse(name), chaos.name()), (Some(chaos), name));
        }
        assert_eq!(Family::parse("primary-copy"), Some(Family::PrimaryCopy));
        assert_eq!(Family::PrimaryCopy.name(), "pc");
    }

    #[test]
    fn every_printed_option_round_trips_through_set() {
        for spec in [ModelSpec::new(Family::Mcv, 3, 2), every_option_set()] {
            let mut back = ModelSpec::new(Family::Marp, 1, 1);
            for (name, value) in spec.options() {
                back.set(name, &value).unwrap();
            }
            assert_eq!(back.options(), spec.options());
        }
        assert_eq!(every_option_set().options().len(), 8, "one line per field");
        let mut spec = ModelSpec::new(Family::Marp, 3, 2);
        assert!(spec.set("replicas", "0").is_err());
        assert!(spec.set("agents", "0").is_err());
        assert!(spec.set("chaos", "wat").is_err());
        assert!(spec.set("wat", "1").is_err());
        assert_eq!(spec.options(), ModelSpec::new(Family::Marp, 3, 2).options());
    }

    #[test]
    fn marp_model_runs_clean_under_the_default_scheduler() {
        let spec = ModelSpec::new(Family::Marp, 3, 2);
        let mut sim = spec.build();
        sim.run_until(marp_sim::SimTime::from_secs(30));
        let mut monitor = spec.monitor();
        monitor.observe_all(sim.trace().records());
        assert!(monitor.ok(), "violations: {:?}", monitor.violations());
        assert_eq!(monitor.completed_requests(), 2);
        assert!(monitor.quiescent_violations().is_empty());
        for k in 0..2u16 {
            let w: &OneShotWriter = sim.process(3 + k).unwrap();
            assert!(w.done);
        }
    }

    #[test]
    fn distinct_key_model_runs_clean_and_commits_both_writes() {
        let mut spec = ModelSpec::new(Family::Marp, 3, 2);
        spec.distinct_keys = true;
        let mut sim = spec.build();
        sim.run_until(marp_sim::SimTime::from_secs(30));
        let mut monitor = spec.monitor();
        monitor.observe_all(sim.trace().records());
        assert!(monitor.ok(), "violations: {:?}", monitor.violations());
        assert_eq!(monitor.completed_requests(), 2);
        assert!(monitor.quiescent_violations().is_empty());
        for k in 0..2u16 {
            let w: &OneShotWriter = sim.process(3 + k).unwrap();
            assert!(w.done);
        }
    }

    #[test]
    fn baseline_models_run_clean_under_the_default_scheduler() {
        for family in [Family::Mcv, Family::PrimaryCopy] {
            let spec = ModelSpec::new(family, 3, 2);
            let mut sim = spec.build();
            sim.run_until(marp_sim::SimTime::from_secs(30));
            let mut monitor = spec.monitor();
            monitor.observe_all(sim.trace().records());
            assert!(monitor.ok(), "{family:?}: {:?}", monitor.violations());
            assert_eq!(monitor.completed_requests(), 2, "{family:?}");
        }
    }
}
