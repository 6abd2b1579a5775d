//! MARP protocol configuration.

use marp_agent::{AgentConfig, ItineraryPolicy};
use marp_replica::{BatchConfig, ServerConfig};
use std::time::Duration;

/// All knobs of a MARP deployment. Start from [`MarpConfig::new`] and
/// override fields for ablations.
#[derive(Debug, Clone, Copy)]
pub struct MarpConfig {
    /// Number of replica servers (nodes `0..n_servers`; clients and
    /// other processes use higher node ids).
    pub n_servers: usize,
    /// Request batching before an agent is dispatched (§3.2; E11).
    pub batch: BatchConfig,
    /// Server-core settings (lock lease).
    pub server: ServerConfig,
    /// Agent migration timeout and retry budget.
    pub migration: AgentConfig,
    /// Itinerary ordering (E9).
    pub itinerary: ItineraryPolicy,
    /// Whether agents share locking information through server boards
    /// (§3.3; E10).
    pub gossip: bool,
    /// Delta-encode the Locking Table an agent carries across a
    /// migration: snapshots the destination already holds (per its
    /// advertised knowledge horizon) are pruned before serialization
    /// and re-merged from the destination's state on arrival. Purely a
    /// wire-size optimisation — disable to measure full-table shipping.
    pub lt_delta: bool,
    /// Adapt the batch-size trigger to the commit backlog (the §5
    /// "flexible and adaptive replication scheme" hint, E14): when many
    /// dispatched batches are still uncommitted the node coalesces more
    /// writes per agent, shedding lock contention; when the backlog
    /// clears it returns to small batches for latency.
    pub adaptive_batching: bool,
    /// How long a winner waits for UPDATE acknowledgements before
    /// aborting and re-gathering.
    pub ack_timeout: Duration,
    /// Re-poll interval for parked agents (servers push them a change
    /// notice on every COMMIT; this is the fallback for a lost one).
    pub park_repoll: Duration,
    /// How long a positive acknowledgement reserves the lock for the
    /// claimant before the reservation lapses.
    pub reserve_lease: Duration,
    /// Node maintenance cadence (lease purge, anti-entropy check,
    /// re-dispatch check).
    pub maintenance_interval: Duration,
    /// Re-dispatch a batch whose agent produced no commit within this
    /// bound (the agent likely died with a crashed host). Must exceed
    /// the lock lease — leases clean up a dead agent's queue entries
    /// before its work is retried — and should be generous: a live
    /// agent that merely sits in a deep contention backlog will commit
    /// eventually, and re-dispatching it creates (harmless but
    /// wasteful) duplicate commits.
    pub redispatch_timeout: Duration,
    /// Regenerate the update agent of a batch whose commits were not
    /// observed by the regeneration deadline (the agent presumably died
    /// with a crashed host). The regenerated agent carries the same
    /// request ids under a bumped incarnation: servers fence the
    /// original's claims and the store deduplicates its commits, so
    /// regeneration can never double-apply. Disable only for ablations
    /// (the chaos harness's lost-write demonstration).
    pub regeneration: bool,
}

impl MarpConfig {
    /// Defaults tuned for the paper's LAN experiments.
    pub fn new(n_servers: usize) -> Self {
        assert!(n_servers >= 1, "need at least one replica server");
        MarpConfig {
            n_servers,
            batch: BatchConfig::default(),
            server: ServerConfig::default(),
            migration: AgentConfig::default(),
            itinerary: ItineraryPolicy::CostSorted,
            gossip: true,
            lt_delta: true,
            adaptive_batching: false,
            ack_timeout: Duration::from_millis(250),
            park_repoll: Duration::from_millis(25),
            reserve_lease: Duration::from_secs(5),
            maintenance_interval: Duration::from_millis(500),
            redispatch_timeout: Duration::from_secs(45),
            regeneration: true,
        }
    }

    /// Strict-majority threshold for this deployment.
    pub fn majority(&self) -> usize {
        crate::lt::majority(self.n_servers)
    }

    /// Scale the protocol's time constants to a deployment whose worst
    /// one-way latency is `max_latency`. The LAN defaults assume
    /// millisecond links; on a wide-area network an acknowledgement
    /// *cannot* return inside 250 ms when one hop takes 200 ms, and a
    /// timeout below the physical round trip turns every claim into an
    /// abort storm. Call this (or set the fields directly) whenever the
    /// topology is slower than a LAN.
    pub fn scaled_to_latency(mut self, max_latency: Duration) -> Self {
        let lat = max_latency.max(Duration::from_millis(1));
        // UPDATE out + ack back + scheduling slack.
        self.ack_timeout = self.ack_timeout.max(lat * 5);
        // One hop each way for a re-poll round.
        self.park_repoll = self.park_repoll.max(lat);
        // Migration send + ack, with retry slack.
        self.migration.migrate_timeout = self.migration.migrate_timeout.max(lat * 6);
        // A reservation must outlive a full claim cycle.
        self.reserve_lease = self.reserve_lease.max(self.ack_timeout * 10);
        self.server.lock_lease = self.server.lock_lease.max(self.reserve_lease * 6);
        self.redispatch_timeout = self
            .redispatch_timeout
            .max(self.server.lock_lease + self.ack_timeout * 10);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = MarpConfig::new(5);
        assert_eq!(cfg.majority(), 3);
        assert!(cfg.gossip);
        assert!(cfg.ack_timeout < cfg.reserve_lease);
        assert!(cfg.park_repoll < cfg.ack_timeout);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_servers_rejected() {
        let _ = MarpConfig::new(0);
    }

    #[test]
    fn latency_scaling_lifts_timeouts_on_wans() {
        let lan = MarpConfig::new(5).scaled_to_latency(Duration::from_millis(2));
        // A LAN keeps the defaults.
        assert_eq!(lan.ack_timeout, Duration::from_millis(250));
        let wan = MarpConfig::new(5).scaled_to_latency(Duration::from_millis(200));
        assert_eq!(wan.ack_timeout, Duration::from_millis(1000));
        assert!(wan.migration.migrate_timeout >= Duration::from_millis(1200));
        assert!(wan.reserve_lease >= wan.ack_timeout * 10);
        assert!(wan.server.lock_lease > wan.reserve_lease);
        assert!(wan.redispatch_timeout > wan.server.lock_lease);
    }
}
