//! The consistent-read agent — the §5 "generic method" extension.
//!
//! The paper closes by noting that MARP "is a generic method, which can
//! be used to implement different kinds of replication control
//! algorithms. The mobile agents encapsulate the data replication
//! protocols…". This module demonstrates that genericity with a second
//! agent behaviour on the same runtime: a **read agent** that gives
//! clients an optional strong read. Plain MARP reads are local and may
//! be stale; a [`marp_replica::Operation::ReadFresh`] dispatches a
//! `ReadAgent` that visits a strict majority of replicas (cheapest
//! first) and returns the freshest value it saw. Because every write
//! lands on a majority before its COMMIT round completes, a
//! majority-read intersects every completed write's quorum.

use crate::host::MarpServerState;
use marp_agent::{Action, AgentBehavior, AgentEnv, AgentId, Itinerary};
use marp_replica::ClientReply;
use marp_sim::{NodeId, SpanKey, SpanKind, TraceEvent};

/// What one visit observes: (applied version, key version, value if
/// present).
type Observation = (u64, u64, Option<u64>);

/// A travelling quorum-read agent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadAgent {
    id: AgentId,
    /// The client request being served.
    request: u64,
    /// Who gets the answer.
    client: NodeId,
    /// Key under inspection.
    key: u64,
    /// The freshest observation so far, by (key version, applied
    /// version); a later equal one replaces it.
    best: Observation,
    /// Replicas still to consult; every other one has been, each once
    /// (the read answers at a majority).
    itinerary: Itinerary,
}

// The `Migrate` envelope names the agent, so its id does not ship.
marp_wire::wire_struct!(ReadAgent {
    request,
    client,
    key,
    best,
    itinerary
} off_wire { id });

impl ReadAgent {
    /// Create a read agent for one `ReadFresh` request, in the buffers
    /// of `spare` — a read agent no one uses any more — if there is
    /// one. Nothing of the spare's state survives: the agent equals one
    /// built from `None`.
    pub fn new(
        spare: Option<Self>,
        id: AgentId,
        cfg: &crate::MarpConfig,
        request: u64,
        client: NodeId,
        key: u64,
    ) -> Self {
        let ReadAgent { itinerary, .. } = spare.unwrap_or_default();
        ReadAgent {
            id,
            request,
            client,
            key,
            best: (0, 0, None),
            itinerary: itinerary.restart(cfg.n_servers, id.home),
        }
    }

    /// Keep `seen` if it is at least as fresh as the best so far:
    /// highest key version, with the highest applied version as
    /// tiebreak for absent keys.
    fn observe(&mut self, seen: Observation) {
        let freshness = |&(applied, key_version, _): &Observation| (key_version, applied);
        if freshness(&seen) >= freshness(&self.best) {
            self.best = seen;
        }
    }

    fn finish(&self, env: &mut AgentEnv<'_>) -> Action {
        let (applied, key_version, value) = self.best;
        env.trace(TraceEvent::ReadServed {
            node: env.here(),
            request: self.request,
            version: key_version.max(applied),
        });
        let reply = ClientReply::ReadOk {
            id: self.request,
            key: self.key,
            value,
            version: key_version.max(applied),
        };
        env.send_raw(self.client, marp_wire::to_bytes(&reply));
        Action::Dispose
    }

    fn give_up(&self, env: &mut AgentEnv<'_>) -> Action {
        // A majority is unreachable: refuse rather than silently
        // downgrade the guarantee.
        let reply = ClientReply::Rejected { id: self.request };
        env.send_raw(self.client, marp_wire::to_bytes(&reply));
        Action::Dispose
    }

    fn proceed(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        let cfg = host.config();
        if self.itinerary.visited(cfg.n_servers) >= crate::lt::majority(cfg.n_servers) {
            return self.finish(env);
        }
        let policy = cfg.itinerary;
        match self
            .itinerary
            .next_destination(policy, |to| host.route_cost(to))
        {
            Some(next) => Action::Migrate(next),
            // Fewer than a majority of replicas reachable.
            None => self.give_up(env),
        }
    }
}

impl AgentBehavior for ReadAgent {
    type Host = MarpServerState;

    fn id(&self) -> AgentId {
        self.id
    }

    fn set_id(&mut self, id: AgentId) {
        self.id = id;
    }

    fn validate(&self, agent: AgentId, host: &MarpServerState) -> bool {
        let n = host.config().n_servers;
        agent.validate(n) && self.itinerary.validate(n, host.core.me())
    }

    /// A read agent's life is the strong read it serves.
    fn life_span(&self) -> SpanKey {
        SpanKey::new(SpanKind::Read, self.request, u64::from(self.id.home))
    }

    fn on_arrive(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        if env.here() == self.id.home {
            // First arrival (the itinerary never leads back home): the
            // strong read begins here.
            env.trace(self.life_span().start(None));
        }
        let store = &host.core.store;
        let stored = store.get(self.key);
        self.observe((
            store.applied_version_for(self.key),
            stored.map_or(0, |s| s.version),
            stored.map(|s| s.value),
        ));
        self.proceed(host, env)
    }

    fn on_migrate_failed(
        &mut self,
        dest: NodeId,
        _attempts: u32,
        host: &mut MarpServerState,
        env: &mut AgentEnv<'_>,
    ) -> Action {
        self.itinerary.mark_unavailable(dest);
        self.proceed(host, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{read_agent_header, wrap_sync, NodeMsg};
    use crate::MarpConfig;
    use marp_agent::{AgentEnvelope, AgentRuntime};
    use marp_net::{RoutingTable, Topology};
    use marp_replica::{CommitRecord, ServerConfig, ServerCore};
    use marp_sim::{RecordingCtx, SimTime};
    use proptest::prelude::*;
    use std::time::Duration;

    const CLIENT: NodeId = 9;

    #[test]
    fn wire_roundtrip() {
        let cfg = MarpConfig::new(5);
        let mut agent = ReadAgent::new(
            None,
            AgentId::new(1, SimTime::from_millis(3), 7),
            &cfg,
            42,
            9,
            5,
        );
        agent.observe((3, 2, Some(20)));
        agent.itinerary.next_destination(cfg.itinerary, |_| 0.0);
        let bytes = marp_wire::to_bytes(&agent);
        let mut back: ReadAgent = marp_wire::from_bytes(&bytes).unwrap();
        back.set_id(agent.id);
        assert_eq!(back, agent);
    }

    /// A read agent built in the buffers of one that observed a value
    /// and travelled equals one built from none.
    #[test]
    fn a_read_agent_built_in_a_spare_equals_one_built_from_none() {
        let cfg = MarpConfig::new(5);
        let mut spare = ReadAgent::new(None, AgentId::new(1, SimTime::ZERO, 7), &cfg, 42, 9, 5);
        spare.observe((3, 2, Some(20)));
        spare.itinerary.next_destination(cfg.itinerary, |_| 0.0);
        spare.itinerary.mark_unavailable(4);
        let id = AgentId::new(3, SimTime::from_millis(8), 2);
        assert_eq!(
            ReadAgent::new(Some(spare), id, &cfg, 43, 8, 6),
            ReadAgent::new(None, id, &cfg, 43, 8, 6)
        );
    }

    /// One replica server of `cfg`'s deployment and its read-agent
    /// runtime; replica `me` holds `me` commits of key 4, the last one
    /// of value `10 * me`.
    struct Replica {
        runtime: AgentRuntime<ReadAgent>,
        state: MarpServerState,
        ctx: RecordingCtx,
    }

    fn replica(me: NodeId, cfg: &MarpConfig) -> Replica {
        let topo = Topology::uniform_lan(cfg.n_servers, Duration::from_millis(1));
        let mut state = MarpServerState::new(
            ServerCore::keyed(me, ServerConfig::default(), wrap_sync),
            RoutingTable::from_topology(me, &topo),
            cfg,
        );
        for version in 1..=u64::from(me) {
            let record = CommitRecord {
                version,
                key: 4,
                value: 10 * version,
                agent: 0,
                request: version,
                committed_at: SimTime::ZERO,
            };
            state.core.store.offer(record, SimTime::ZERO);
        }
        Replica {
            runtime: AgentRuntime::new(cfg.migration, read_agent_header),
            state,
            ctx: RecordingCtx::new(me, SimTime::from_millis(5)),
        }
    }

    /// The migration a replica sent, if any.
    fn departed(ctx: &RecordingCtx) -> Option<(NodeId, AgentEnvelope)> {
        let frames = ctx.sent.iter().filter(|(to, _)| *to != CLIENT);
        frames
            .rev()
            .find_map(|(to, frame)| match marp_wire::from_bytes(frame) {
                Ok(NodeMsg::RAgent(migrate @ AgentEnvelope::Migrate { .. })) => {
                    Some((*to, migrate))
                }
                _ => None,
            })
    }

    /// What a replica answered the client.
    fn answers(ctx: &RecordingCtx) -> Vec<ClientReply> {
        let frames = ctx.sent.iter().filter(|(to, _)| *to == CLIENT);
        frames
            .map(|(_, frame)| marp_wire::from_bytes(frame).expect("a client reply"))
            .collect()
    }

    #[test]
    fn two_of_five_visits_migrate_on_and_the_third_answers() {
        let cfg = MarpConfig::new(5);
        let mut replicas: Vec<Replica> = (0..5).map(|me| replica(me, &cfg)).collect();
        let agent = ReadAgent::new(None, AgentId::new(0, SimTime::ZERO, 0), &cfg, 1, CLIENT, 4);
        let home = &mut replicas[0];
        home.runtime.spawn(agent, &mut home.state, &mut home.ctx);
        let mut visited: Vec<NodeId> = vec![0];
        for visit in 1..=2 {
            let at = visited[visit - 1];
            let here = &replicas[usize::from(at)];
            assert_eq!(answers(&here.ctx), vec![], "visit {visit} answered");
            let (to, mut migrate) = departed(&here.ctx).expect("a visit short of a majority");
            let next = &mut replicas[usize::from(to)];
            next.runtime
                .handle_envelope(at, &mut migrate, &mut next.state, &mut next.ctx);
            visited.push(to);
        }
        let third = &replicas[usize::from(visited[2])];
        assert_eq!(departed(&third.ctx), None);
        assert_eq!(third.runtime.resident_count(), 0);
        // The freshest of the three replicas visited, not of all five.
        let version = visited.iter().copied().map(u64::from).max().unwrap();
        assert_eq!(
            answers(&third.ctx),
            vec![ClientReply::ReadOk {
                id: 1,
                key: 4,
                value: Some(10 * version),
                version,
            }]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The running best is the old answer: the last maximum by
        /// (key version, applied version) over every observation, ties
        /// going to the later one. Narrow ranges make ties common.
        #[test]
        fn the_running_best_is_the_last_freshest_observation(
            seen in proptest::collection::vec(
                (0u64..3, 0u64..3, proptest::option::of(0u64..4)),
                1..6,
            )
        ) {
            let cfg = MarpConfig::new(5);
            let mut agent = ReadAgent::new(None, AgentId::new(0, SimTime::ZERO, 0), &cfg, 1, CLIENT, 4);
            for &observation in &seen {
                agent.observe(observation);
            }
            let oracle = seen
                .iter()
                .copied()
                .max_by_key(|&(applied, key_version, _)| (key_version, applied));
            prop_assert_eq!(Some(agent.best), oracle);
        }
    }
}
