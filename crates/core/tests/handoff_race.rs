//! The lock-handoff race, forced deterministically.
//!
//! The next winner learns "W finished" from the first change notice —
//! its own host's — and claims at once, so its UPDATE can reach the
//! other servers before W's COMMIT does. Those servers still see W on
//! top (and hold W's reservation) and refuse; the claim aborts although
//! nothing is wrong except timing. This test drives the simulator's
//! controlled scheduler through exactly that interleaving and requires
//! the agent to re-claim immediately — it absorbed the late notices
//! while the doomed claim was in flight — and commit within two round
//! trips of the abort, with no timer firing.

use marp_agent::{AgentEnvelope, AgentId};
use marp_core::{build_cluster, wrap_client_request, AgentReply, MarpConfig, MarpNode, NodeMsg};
use marp_net::Topology;
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{FixedDelay, NodeId, PendingKind, SimTime, Simulation, TraceEvent, TraceLevel};
use std::time::Duration;

const N: usize = 5;
const MAJORITY: usize = N / 2 + 1;
const ONE_WAY: Duration = Duration::from_millis(1);

/// A pending server-bound message, decoded.
struct InFlight {
    seq: u64,
    to: NodeId,
    msg: NodeMsg,
    /// The agent-addressed payload, when `msg` is agent mail.
    mail: Option<(AgentId, AgentReply)>,
}

fn in_flight(sim: &mut Simulation) -> Vec<InFlight> {
    sim.pending_events()
        .into_iter()
        .filter_map(|e| {
            let PendingKind::Message { to, .. } = e.kind else {
                return None;
            };
            if usize::from(to) >= N {
                return None; // replies to clients are not NodeMsgs
            }
            let msg: NodeMsg = marp_wire::from_bytes(sim.pending_payload(e.seq)?).ok()?;
            let mail = match &msg {
                NodeMsg::Agent(AgentEnvelope::ToAgent { agent, payload }) => {
                    Some((*agent, marp_wire::from_bytes(payload).ok()?))
                }
                _ => None,
            };
            Some(InFlight {
                seq: e.seq,
                to,
                msg,
                mail,
            })
        })
        .collect()
}

/// Deliver, oldest first, every server-bound message `pick` accepts —
/// including ones those deliveries send — and every client-bound one.
/// Timers never fire. Returns how many server-bound messages ran.
fn deliver_all(sim: &mut Simulation, pick: impl Fn(&InFlight) -> bool) -> usize {
    let mut delivered = 0;
    loop {
        let client_bound = sim.pending_events().into_iter().find_map(|e| match e.kind {
            PendingKind::Message { to, .. } if usize::from(to) >= N => Some(e.seq),
            _ => None,
        });
        if let Some(seq) = client_bound {
            sim.step_event(seq);
            continue;
        }
        let Some(next) = in_flight(sim).into_iter().find(|m| pick(m)) else {
            return delivered;
        };
        sim.step_event(next.seq);
        delivered += 1;
    }
}

fn is_ack(m: &InFlight) -> bool {
    matches!(m.mail, Some((_, AgentReply::UpdateAck { .. })))
}

fn is_notice(m: &InFlight) -> bool {
    matches!(m.mail, Some((_, AgentReply::LlChanged { .. })))
}

fn is_commit(m: &InFlight) -> bool {
    matches!(m.msg, NodeMsg::Commit(_))
}

fn is_update(m: &InFlight) -> bool {
    matches!(m.msg, NodeMsg::Update(_))
}

fn count(sim: &Simulation, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    sim.trace().count(pred)
}

#[test]
fn aborted_handoff_claim_retries_at_once() {
    let mut cfg = MarpConfig::new(N);
    cfg.batch.max_batch = 1; // every write dispatches its agent immediately
    let topo = Topology::uniform_lan(N + 2, ONE_WAY);
    let mut sim = Simulation::new(Box::new(FixedDelay(ONE_WAY)), TraceLevel::Protocol);
    build_cluster(&mut sim, &cfg, &topo);
    for (server, value) in [(0, 10), (1, 11)] {
        sim.add_process(Box::new(ClientProcess::new(
            server,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Write { key: 1, value },
            )])),
            wrap_client_request,
        )));
    }
    let starts: Vec<u64> = sim.pending_events().iter().map(|e| e.seq).collect();
    for seq in starts {
        sim.step_event(seq);
    }
    // The clients issue their writes off a timer each.
    for client in [N as NodeId, N as NodeId + 1] {
        let issue = sim
            .pending_events()
            .into_iter()
            .find(|e| matches!(e.kind, PendingKind::Timer { node, .. } if node == client))
            .expect("client arrival timer");
        sim.step_event(issue.seq);
    }

    // Both agents tour; one claims (its acks are held back so it stays
    // mid-claim), the other exhausts its itinerary and parks.
    deliver_all(&mut sim, |m| !is_ack(m));
    assert_eq!(
        count(&sim, |e| matches!(e, TraceEvent::UpdateSent { .. })),
        1
    );
    let (host, loser) = (0..N as NodeId)
        .find_map(|s| {
            let runtime = sim.process::<MarpNode>(s)?.update_runtime();
            let parked = runtime.resident_ids().find(|&id| {
                matches!(
                    runtime.resident(id).map(|a| a.phase()),
                    Some(marp_core::Phase::Parked)
                )
            })?;
            Some((s, parked))
        })
        .expect("the losing agent parked somewhere");

    // The parked agent re-polls once, so every server knows where to
    // push its change notices.
    let repoll = sim
        .pending_events()
        .into_iter()
        .find(|e| matches!(e.kind, PendingKind::Timer { node, tag } if node == host && tag & 0xff == 1))
        .expect("the parked agent armed its re-poll");
    sim.step_event(repoll.seq);
    deliver_all(&mut sim, |m| !is_ack(m));

    // The winner gets its acks and broadcasts COMMIT; only the loser's
    // host applies it for now.
    deliver_all(&mut sim, |m| !is_commit(m));
    assert_eq!(
        in_flight(&mut sim).iter().filter(|m| is_commit(m)).count(),
        N
    );
    deliver_all(&mut sim, |m| is_commit(m) && m.to == host);
    // Its notice reaches the loser, who claims on the spot...
    assert_eq!(deliver_all(&mut sim, is_notice), 1);
    assert_eq!(
        count(&sim, |e| matches!(e, TraceEvent::UpdateSent { .. })),
        2
    );
    // ...and the claim's UPDATE overtakes the COMMIT at the other
    // servers: the winner still tops a majority of them, which refuses.
    assert_eq!(deliver_all(&mut sim, is_update), N);
    assert_eq!(
        count(
            &sim,
            |e| matches!(e, TraceEvent::UpdateAcked { agent, positive: false, .. } if *agent == loser.key())
        ),
        MAJORITY
    );
    // The COMMIT lands; the late notices reach the loser mid-claim.
    assert_eq!(deliver_all(&mut sim, is_commit), N - 1);
    assert_eq!(deliver_all(&mut sim, is_notice), N - 1);
    // The refusals arrive: the claim aborts.
    deliver_all(&mut sim, is_ack);
    assert_eq!(
        count(&sim, |e| matches!(e, TraceEvent::WinAborted { .. })),
        1
    );
    let aborted_at = sim.now();

    // It must already have re-claimed — not gone dormant until the
    // 25 ms re-poll — and the retry commits with no timer firing.
    assert_eq!(
        count(&sim, |e| matches!(e, TraceEvent::UpdateSent { .. })),
        3,
        "the aborted claim was not retried immediately"
    );
    deliver_all(&mut sim, |_| true);
    let completions: Vec<SimTime> = sim
        .trace()
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpdateCompleted { .. }))
        .map(|r| r.at)
        .collect();
    assert_eq!(completions.len(), 2, "both writes commit");
    assert_eq!(
        count(&sim, |e| matches!(e, TraceEvent::WinAborted { .. })),
        1
    );
    let round_trip = ONE_WAY * 2;
    assert!(
        completions[1] <= aborted_at + round_trip * 2,
        "retry committed {:?} after the abort",
        completions[1].checked_since(aborted_at)
    );
    assert!(round_trip * 2 < cfg.park_repoll);
    for server in 0..N as NodeId {
        let node = sim.process::<MarpNode>(server).expect("server");
        assert_eq!(node.state().core.store.applied_version_for(1), 2);
    }
}
