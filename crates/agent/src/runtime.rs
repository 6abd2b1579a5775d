//! The per-host agent runtime.
//!
//! Each agent-enabled server embeds an [`AgentRuntime`]. It hosts
//! resident agents, performs migration (serialize → ship → ack), retries
//! timed-out migrations, and applies the paper's unavailability rule:
//! "If a mobile agent cannot migrate to a replicated server host after a
//! certain amount of time, the protocol assumes the replica process at
//! the host has temporarily failed. After a certain number of such
//! unsuccessful attempts, the protocol declares the replica unavailable."

use crate::behavior::{Action, AgentBehavior, AgentEnv, TimerMap, WrapFn};
use crate::envelope::AgentEnvelope;
use crate::horizon::Horizon;
use crate::id::AgentId;
use bytes::Bytes;
use marp_quorum::RetryPolicy;
use marp_sim::{trace, Context, NodeId, SpanKey, TimerId, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Tag for migration-retry timers. The runtime attributes these by
/// [`TimerId`] (see `migrate_timers`), so the tag value itself is
/// never demultiplexed; it exists so fired timers are identifiable in
/// traces.
const TAG_MIGRATE_RETRY: u64 = 0;

/// Behaviours a runtime keeps for the next arrival to decode into: an
/// agent acked away or disposed of here leaves its buffers behind, and
/// an arrival of the same shape then decodes without allocating.
const SPARES: usize = 2;

/// Migration attempts before the destination is declared unavailable
/// and [`AgentBehavior::on_migrate_failed`] runs.
const MAX_ATTEMPTS: u32 = 3;

/// Migration policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// How long to wait for a migration ack before retrying. Must be
    /// comfortably above the maximum plausible round-trip time — a
    /// retry that races a slow ack can clone the agent (the duplicate is
    /// harmless to MARP, whose server-side structures are keyed by agent
    /// id and deduplicate by request id, but it wastes traffic).
    pub migrate_timeout: Duration,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            migrate_timeout: Duration::from_millis(500),
        }
    }
}

impl AgentConfig {
    /// The ack-wait schedule: a fixed `migrate_timeout` per attempt (no
    /// growth — the delay bounds ack latency, not contention).
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy::fixed(self.migrate_timeout)
    }
}

struct Resident<B> {
    behavior: B,
    hops: u32,
}

struct Outbound<B> {
    behavior: B,
    dest: NodeId,
    hop: u32,
    attempts: u32,
    timer: TimerId,
    /// The `Migrate` frame sent, which a retry sends again.
    frame: Bytes,
    /// The length of the state within it.
    state_len: usize,
}

/// Hosts agents of behaviour type `B` on one node.
pub struct AgentRuntime<B: AgentBehavior> {
    cfg: AgentConfig,
    wrap: WrapFn,
    resident: BTreeMap<AgentId, Resident<B>>,
    outbound: BTreeMap<AgentId, Outbound<B>>,
    agent_timers: TimerMap<(AgentId, u64)>,
    migrate_timers: TimerMap<AgentId>,
    seen_migrations: BTreeSet<(AgentId, u32)>,
    /// At most [`SPARES`] behaviours no agent is using any more.
    spares: Vec<B>,
    /// The buffer each ack's horizon is written into.
    horizon: Horizon,
}

impl<B: AgentBehavior> AgentRuntime<B> {
    /// Create a runtime; `wrap` lifts envelopes into the owner process's
    /// message encoding.
    pub fn new(cfg: AgentConfig, wrap: WrapFn) -> Self {
        AgentRuntime {
            cfg,
            wrap,
            resident: BTreeMap::new(),
            outbound: BTreeMap::new(),
            agent_timers: TimerMap::default(),
            migrate_timers: TimerMap::default(),
            seen_migrations: BTreeSet::new(),
            spares: Vec::new(),
            horizon: Horizon::new(),
        }
    }

    /// Number of agents currently hosted here.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Iterate over resident agent ids.
    pub fn resident_ids(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.resident.keys().copied()
    }

    /// Inspect a resident agent's behaviour state.
    pub fn resident(&self, id: AgentId) -> Option<&B> {
        self.resident.get(&id).map(|r| &r.behavior)
    }

    /// Number of migrations currently awaiting acks from this host.
    pub fn in_flight(&self) -> usize {
        self.outbound.len()
    }

    /// A behaviour no agent uses any more, if the runtime keeps one: a
    /// new agent built in its buffers starts warm.
    pub fn take_spare(&mut self) -> Option<B> {
        self.spares.pop()
    }

    /// Create an agent at this (its home) host and run its first
    /// `on_arrive`.
    pub fn spawn(&mut self, behavior: B, host: &mut B::Host, ctx: &mut dyn Context) {
        let id = behavior.id();
        self.resident.insert(id, Resident { behavior, hops: 0 });
        self.dispatch_callback(id, host, ctx, |b, h, env| b.on_arrive(h, env));
    }

    /// Handle an envelope addressed to this host. Call from the owner's
    /// `on_message` after decoding its own message enum. The envelope
    /// stays the owner's, to decode the next one into: what the runtime
    /// keeps of it, it swaps out (an ack's horizon leaves the buffer
    /// it replaces in its place).
    pub fn handle_envelope(
        &mut self,
        from: NodeId,
        envelope: &mut AgentEnvelope,
        host: &mut B::Host,
        ctx: &mut dyn Context,
    ) {
        match envelope {
            AgentEnvelope::Migrate { agent, hop, state } => {
                self.handle_migrate(from, *agent, *hop, state, host, ctx)
            }
            AgentEnvelope::MigrateAck {
                agent,
                hop,
                horizon,
            } => {
                // The ack advertises what the destination knew about the
                // agent's subject; remember it so the *next* such agent
                // migrating there from here can delta-encode its state.
                let Some(out) = self.outbound.get(agent) else {
                    return; // a retry's second ack: the agent is gone
                };
                out.behavior.record_peer_horizon(host, from, horizon);
                if out.hop == *hop {
                    let out = self.outbound.remove(agent).expect("checked");
                    self.migrate_timers.remove(&out.timer);
                    ctx.cancel_timer(out.timer);
                    self.recycle(out.behavior);
                }
            }
            AgentEnvelope::ToAgent { agent, payload } => {
                let agent = *agent;
                if self.resident.contains_key(&agent) {
                    self.dispatch_callback(agent, host, ctx, |b, h, env| {
                        b.on_agent_message(from, payload.clone(), h, env)
                    });
                } else {
                    ctx.trace(TraceEvent::Custom {
                        kind: trace::AGENT_MSG_MISSED,
                        a: agent.key(),
                        b: u64::from(from),
                    });
                }
            }
        }
    }

    /// Offer a fired timer to the runtime. Returns `true` if the timer
    /// belonged to an agent or a pending migration; `false` means it is
    /// the owner's own timer.
    pub fn handle_timer(
        &mut self,
        timer: TimerId,
        host: &mut B::Host,
        ctx: &mut dyn Context,
    ) -> bool {
        if let Some((agent, tag)) = self.agent_timers.remove(&timer) {
            if self.resident.contains_key(&agent) {
                self.dispatch_callback(agent, host, ctx, |b, h, env| b.on_timer(tag, h, env));
            }
            return true;
        }
        if let Some(agent) = self.migrate_timers.remove(&timer) {
            self.retry_or_fail(agent, host, ctx);
            return true;
        }
        false
    }

    /// Drop all volatile state after a host crash: resident agents,
    /// in-flight migrations, timers. (Agents hosted here at crash time
    /// are lost, exactly like aglets on a killed server; their lock
    /// entries elsewhere expire via the servers' lock leases.)
    pub fn clear_volatile(&mut self) {
        self.resident.clear();
        self.outbound.clear();
        self.agent_timers.clear();
        self.migrate_timers.clear();
        // seen_migrations is also volatile, but keeping it is harmless
        // and avoids re-running a duplicate arrival after recovery.
    }

    fn handle_migrate(
        &mut self,
        from: NodeId,
        agent: AgentId,
        hop: u32,
        state: &Bytes,
        host: &mut B::Host,
        ctx: &mut dyn Context,
    ) {
        // Always (re-)ack so a retry caused by a lost ack terminates:
        // before the duplicate check, and even for state that does not
        // decode or that the host refuses as forged. The ack carries
        // what this host knew about the agent's subject *before* the
        // agent arrived. A spare that fails to decode goes with the
        // error.
        let mut decoded = match self.spares.pop() {
            Some(mut spare) => marp_wire::from_bytes_into(&mut spare, state).map(|()| spare),
            None => marp_wire::from_bytes::<B>(state),
        };
        let forged = decoded.as_ref().is_ok_and(|b| !b.validate(agent, host));
        self.horizon.clear();
        if let (Ok(behavior), false) = (&mut decoded, forged) {
            behavior.set_id(agent);
            behavior.host_horizon(host, &mut self.horizon);
        }
        ctx.send(
            from,
            AgentEnvelope::ack_frame(self.wrap, agent, hop, &self.horizon),
        );
        if !self.seen_migrations.insert((agent, hop)) {
            return; // duplicate delivery of a retried migration
        }
        let behavior = match decoded {
            Ok(b) if forged => {
                ctx.trace(TraceEvent::Custom {
                    kind: trace::AGENT_STATE_FORGED,
                    a: agent.key(),
                    b: u64::from(from),
                });
                self.recycle(b);
                return;
            }
            Ok(b) => b,
            Err(_) => {
                // Corrupt state should be impossible (reliable channels);
                // record and drop rather than crash the server.
                ctx.trace(TraceEvent::Custom {
                    kind: trace::AGENT_STATE_CORRUPT,
                    a: agent.key(),
                    b: u64::from(from),
                });
                return;
            }
        };
        ctx.trace(TraceEvent::AgentMigrated {
            agent: agent.key(),
            from,
            to: ctx.me(),
            hops: hop,
        });
        // Close the migration span the sender opened: we are its
        // destination.
        ctx.trace(SpanKey::migrate(agent.key(), hop, ctx.me()).end());
        self.resident.insert(
            agent,
            Resident {
                behavior,
                hops: hop,
            },
        );
        self.dispatch_callback(agent, host, ctx, |b, h, env| b.on_arrive(h, env));
    }

    fn retry_or_fail(&mut self, agent: AgentId, host: &mut B::Host, ctx: &mut dyn Context) {
        let Some(out) = self.outbound.get_mut(&agent) else {
            return; // ack won the race
        };
        ctx.trace(TraceEvent::AgentMigrateFailed {
            agent: agent.key(),
            from: ctx.me(),
            to: out.dest,
        });
        if out.attempts < MAX_ATTEMPTS {
            out.attempts += 1;
            ctx.trace(TraceEvent::AgentStateShipped {
                agent: agent.key(),
                bytes: out.state_len,
            });
            ctx.send(out.dest, out.frame.clone());
            let timer = ctx.set_timer(self.cfg.retry().next_delay(out.attempts), TAG_MIGRATE_RETRY);
            out.timer = timer;
            self.migrate_timers.insert(timer, agent);
            return;
        }
        // Give up: the destination is declared unavailable and the agent
        // resumes execution here.
        let out = self.outbound.remove(&agent).expect("present above");
        ctx.trace(TraceEvent::ReplicaDeclaredUnavailable {
            agent: agent.key(),
            node: out.dest,
        });
        let attempts = out.attempts;
        let dest = out.dest;
        self.resident.insert(
            agent,
            Resident {
                behavior: out.behavior,
                hops: out.hop.saturating_sub(1),
            },
        );
        self.dispatch_callback(agent, host, ctx, |b, h, env| {
            b.on_migrate_failed(dest, attempts, h, env)
        });
    }

    /// Run one behaviour callback and apply the resulting action.
    fn dispatch_callback<F>(
        &mut self,
        id: AgentId,
        host: &mut B::Host,
        ctx: &mut dyn Context,
        callback: F,
    ) where
        F: FnOnce(&mut B, &mut B::Host, &mut AgentEnv<'_>) -> Action,
    {
        let Some(resident) = self.resident.get_mut(&id) else {
            return;
        };
        let action = {
            let mut env = AgentEnv {
                ctx,
                agent: id,
                agent_timers: &mut self.agent_timers,
            };
            callback(&mut resident.behavior, host, &mut env)
        };
        match action {
            Action::Stay => {}
            Action::Dispose => self.dispose(id, ctx),
            Action::Migrate(dest) => {
                if dest == ctx.me() {
                    debug_assert!(false, "agent asked to migrate to its current host");
                    return;
                }
                // Last chance to shed state the destination already knows
                // (delta-encoded Locking Tables) before serialization.
                if let Some(resident) = self.resident.get_mut(&id) {
                    resident.behavior.before_migrate(dest, host);
                }
                self.begin_migration(id, dest, ctx);
            }
        }
    }

    fn dispose(&mut self, id: AgentId, ctx: &mut dyn Context) {
        if let Some(resident) = self.resident.remove(&id) {
            self.drop_agent_timers(id, ctx);
            ctx.trace(TraceEvent::AgentDisposed {
                agent: id.key(),
                born: resident.behavior.id().born,
            });
            ctx.trace(resident.behavior.life_span().end());
            self.recycle(resident.behavior);
        }
    }

    /// Keep a behaviour no agent uses any more for the next arrival to
    /// decode into, while there is room.
    fn recycle(&mut self, behavior: B) {
        if self.spares.len() < SPARES {
            self.spares.reserve_exact(SPARES - self.spares.len());
            self.spares.push(behavior);
        }
    }

    fn begin_migration(&mut self, id: AgentId, dest: NodeId, ctx: &mut dyn Context) {
        let Some(resident) = self.resident.remove(&id) else {
            return;
        };
        self.drop_agent_timers(id, ctx);
        let hop = resident.hops + 1;
        let (frame, state_len) =
            AgentEnvelope::migrate_frame(self.wrap, id, hop, &resident.behavior);
        // Sampled post-`before_migrate`, so this is what actually ships.
        for (kind, carried) in [
            (
                trace::LT_ENTRIES_CARRIED,
                resident.behavior.carried_lt_entries(),
            ),
            (trace::LT_IDS_CARRIED, resident.behavior.carried_lt_ids()),
        ] {
            if carried > 0 {
                ctx.trace(TraceEvent::Custom {
                    kind,
                    a: carried,
                    b: id.key(),
                });
            }
        }
        ctx.trace(TraceEvent::AgentStateShipped {
            agent: id.key(),
            bytes: state_len,
        });
        ctx.send(dest, frame.clone());
        // Open the migration span; the receiving runtime closes it on
        // arrival.
        ctx.trace(SpanKey::migrate(id.key(), hop, dest).start(Some(resident.behavior.life_span())));
        let timer = ctx.set_timer(self.cfg.retry().next_delay(1), TAG_MIGRATE_RETRY);
        self.migrate_timers.insert(timer, id);
        self.outbound.insert(
            id,
            Outbound {
                behavior: resident.behavior,
                dest,
                hop,
                attempts: 1,
                timer,
                frame,
                state_len,
            },
        );
    }

    fn drop_agent_timers(&mut self, id: AgentId, ctx: &mut dyn Context) {
        self.agent_timers.retain(|&timer, (agent, _)| {
            let stale = *agent == id;
            if stale {
                ctx.cancel_timer(timer);
            }
            !stale
        });
    }
}
