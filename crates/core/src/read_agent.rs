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
use marp_quorum::{QuorumCall, SuccessRule, Verdict};
use marp_replica::ClientReply;
use marp_sim::{NodeId, SpanKey, SpanKind, TraceEvent};

/// What one visit observes: (applied version, key version, value if
/// present).
type Observation = (u64, u64, Option<u64>);

/// A travelling quorum-read agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadAgent {
    id: AgentId,
    /// The client request being served.
    request: u64,
    /// Who gets the answer.
    client: NodeId,
    /// Key under inspection.
    key: u64,
    /// The visit round: first-majority-of-replicas-consulted wins, each
    /// positive reply carrying that replica's observation.
    call: QuorumCall<Observation>,
    itinerary: Itinerary,
    visited: u32,
}

marp_wire::wire_struct!(ReadAgent {
    id,
    request,
    client,
    key,
    call,
    itinerary,
    visited
});

impl ReadAgent {
    /// Create a read agent for one `ReadFresh` request.
    pub fn new(
        id: AgentId,
        cfg: &crate::MarpConfig,
        request: u64,
        client: NodeId,
        key: u64,
    ) -> Self {
        let n = cfg.n_servers as u16;
        let k = crate::lt::majority(cfg.n_servers) as u16;
        ReadAgent {
            id,
            request,
            client,
            key,
            call: QuorumCall::new(SuccessRule::FirstK { k }, 0..n, id.born),
            itinerary: Itinerary::for_system(cfg.n_servers, id.home, cfg.itinerary),
            visited: 0,
        }
    }

    /// Replicas consulted so far.
    pub fn visits(&self) -> u32 {
        self.visited
    }

    fn finish(&self, env: &mut AgentEnv<'_>) -> Action {
        // The freshest observation wins: highest key version, with the
        // highest applied version as tiebreak for absent keys.
        let best = self
            .call
            .positives()
            .iter()
            .map(|&(_, obs)| obs)
            .max_by_key(|&(applied, key_version, _)| (key_version, applied));
        let (applied, key_version, value) = best.unwrap_or((0, 0, None));
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
        if self.call.verdict() == Some(Verdict::Won) {
            return self.finish(env);
        }
        match self.itinerary.next_destination(|to| host.route_cost(to)) {
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

    /// A read agent's life is the strong read it serves.
    fn life_span(&self) -> SpanKey {
        SpanKey::new(SpanKind::Read, self.request, u64::from(self.id.home))
    }

    fn on_arrive(&mut self, host: &mut MarpServerState, env: &mut AgentEnv<'_>) -> Action {
        if self.visited == 0 {
            // First arrival (at home): the strong read begins here.
            env.trace(self.life_span().start(None));
        }
        self.visited += 1;
        let store = &host.core.store;
        let stored = store.get(self.key);
        self.call.offer_vote(
            env.here(),
            true,
            (
                store.applied_version_for(self.key),
                stored.map_or(0, |s| s.version),
                stored.map(|s| s.value),
            ),
        );
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
    use crate::MarpConfig;
    use marp_sim::SimTime;

    #[test]
    fn wire_roundtrip() {
        let cfg = MarpConfig::new(5);
        let mut agent = ReadAgent::new(AgentId::new(1, SimTime::from_millis(3), 7), &cfg, 42, 9, 5);
        agent.call.offer_vote(1, true, (3, 2, Some(20)));
        agent.visited = 1;
        let bytes = marp_wire::to_bytes(&agent);
        let back: ReadAgent = marp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, agent);
    }

    #[test]
    fn majority_threshold_matches_cluster() {
        let cfg = MarpConfig::new(5);
        let mut agent = ReadAgent::new(AgentId::new(0, SimTime::ZERO, 0), &cfg, 1, 9, 1);
        assert_eq!(agent.visits(), 0);
        // Two of five observations decide nothing; the third does.
        assert_eq!(agent.call.offer_vote(0, true, (1, 1, None)), None);
        assert_eq!(agent.call.offer_vote(1, true, (1, 1, None)), None);
        assert_eq!(
            agent.call.offer_vote(2, true, (1, 1, None)),
            Some(Verdict::Won)
        );
    }
}
