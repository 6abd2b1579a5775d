//! The lock handoff, forced deterministically.
//!
//! The next winner learns "W finished" from its own host's change
//! notice and claims at once, so its UPDATE can reach the other servers
//! before W's COMMIT does. Those servers still see W on top and hold
//! W's reservation — the claim is early, not wrong. The first test
//! drives the simulator's controlled scheduler through exactly that
//! interleaving and requires the pipelined handoff: the servers *hold*
//! the early claim, answer it the moment W's COMMIT lands, and the
//! successor commits one hop later — no refusal, no abort, no RELEASE,
//! no timer.
//!
//! The second test keeps the retry rule honest for the aborts that
//! remain possible. A claimant that is wrong about who finished is
//! behind an unfinished agent, which is a refusal no hold may paper
//! over; when the news that makes it right arrives during the doomed
//! claim, it must claim again at once instead of going dormant until a
//! re-poll.

use marp_agent::{AgentEnvelope, AgentId};
use marp_core::{
    build_cluster, wrap_agent_envelope, wrap_client_request, AgentReply, MarpConfig, MarpNode,
    NodeMsg, Phase,
};
use marp_net::Topology;
use marp_replica::{ClientProcess, Operation, ScriptedSource};
use marp_sim::{FixedDelay, NodeId, PendingKind, SimTime, Simulation, TraceEvent, TraceLevel};
use std::time::Duration;

const ONE_WAY: Duration = Duration::from_millis(1);

/// A pending server-bound message, decoded.
struct InFlight {
    seq: u64,
    to: NodeId,
    msg: NodeMsg,
    /// The agent-addressed payload, when `msg` is agent mail.
    mail: Option<(AgentId, AgentReply)>,
}

fn in_flight(sim: &mut Simulation, n: usize) -> Vec<InFlight> {
    sim.pending_events()
        .into_iter()
        .filter_map(|e| {
            let PendingKind::Message { to, .. } = e.kind else {
                return None;
            };
            if usize::from(to) >= n {
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
fn deliver_all(sim: &mut Simulation, n: usize, pick: impl Fn(&InFlight) -> bool) -> usize {
    let mut delivered = 0;
    loop {
        let client_bound = sim.pending_events().into_iter().find_map(|e| match e.kind {
            PendingKind::Message { to, .. } if usize::from(to) >= n => Some(e.seq),
            _ => None,
        });
        if let Some(seq) = client_bound {
            sim.step_event(seq);
            continue;
        }
        let Some(next) = in_flight(sim, n).into_iter().find(|m| pick(m)) else {
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

fn custom(sim: &Simulation, kind: &'static str) -> usize {
    count(
        sim,
        |e| matches!(e, TraceEvent::Custom { kind: k, .. } if *k == kind),
    )
}

fn claims(sim: &Simulation) -> usize {
    count(sim, |e| matches!(e, TraceEvent::UpdateSent { .. }))
}

fn aborts(sim: &Simulation) -> usize {
    count(sim, |e| matches!(e, TraceEvent::WinAborted { .. }))
}

fn completions(sim: &Simulation) -> Vec<SimTime> {
    sim.trace()
        .records()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::UpdateCompleted { .. }))
        .map(|r| r.at)
        .collect()
}

/// `n` servers and one single-write client per entry of `homes`
/// (attached to that server), every write on key 1. Runs the start
/// events and the clients' arrival timers, in order.
fn cluster(n: usize, homes: &[NodeId]) -> (Simulation, MarpConfig) {
    let mut cfg = MarpConfig::new(n);
    cfg.batch.max_batch = 1; // every write dispatches its agent immediately
    let topo = Topology::uniform_lan(n + homes.len(), ONE_WAY);
    let mut sim = Simulation::new(Box::new(FixedDelay(ONE_WAY)), TraceLevel::Protocol);
    build_cluster(&mut sim, &cfg, &topo);
    for (i, &server) in homes.iter().enumerate() {
        sim.add_process(Box::new(ClientProcess::new(
            server,
            Box::new(ScriptedSource::new([(
                Duration::from_millis(1),
                Operation::Write {
                    key: 1,
                    value: 10 + i as u64,
                },
            )])),
            wrap_client_request,
        )));
    }
    let starts: Vec<u64> = sim.pending_events().iter().map(|e| e.seq).collect();
    for seq in starts {
        sim.step_event(seq);
    }
    // The clients issue their writes off a timer each.
    for client in (n..n + homes.len()).map(|c| c as NodeId) {
        let issue = sim
            .pending_events()
            .into_iter()
            .find(|e| matches!(e.kind, PendingKind::Timer { node, .. } if node == client))
            .expect("client arrival timer");
        sim.step_event(issue.seq);
    }
    (sim, cfg)
}

/// The parked agents, each with its host.
fn parked(sim: &Simulation, n: usize) -> Vec<(NodeId, AgentId)> {
    (0..n as NodeId)
        .flat_map(|s| {
            let runtime = sim.process::<MarpNode>(s).expect("server").update_runtime();
            runtime
                .resident_ids()
                .filter(|&id| {
                    matches!(
                        runtime.resident(id).map(|a| a.phase()),
                        Some(Phase::Parked { .. })
                    )
                })
                .map(move |id| (s, id))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn an_early_claim_is_held_and_the_lock_hands_over_without_an_abort() {
    const N: usize = 5;
    const MAJORITY: usize = N / 2 + 1;
    let (mut sim, cfg) = cluster(N, &[0, 1]);

    // Both agents tour; one claims (its acks are held back so it stays
    // mid-claim), the other exhausts its itinerary and parks.
    deliver_all(&mut sim, N, |m| !is_ack(m));
    assert_eq!(claims(&sim), 1);
    let [(host, successor)] = parked(&sim, N)[..] else {
        panic!("exactly one agent parks");
    };
    // (The winner itself was refused where the other agent queued
    // first; that is not the handoff.)
    let refused_before = custom(&sim, "update-refused");

    // The winner gets its acks and broadcasts COMMIT; only the parked
    // agent's host applies it for now.
    deliver_all(&mut sim, N, |m| !is_commit(m));
    assert_eq!(
        in_flight(&mut sim, N)
            .iter()
            .filter(|m| is_commit(m))
            .count(),
        N
    );
    deliver_all(&mut sim, N, |m| is_commit(m) && m.to == host);
    // Its notice — the only one any server sends — reaches the parked
    // agent, which claims on the spot...
    assert_eq!(deliver_all(&mut sim, N, is_notice), 1);
    assert_eq!(claims(&sim), 2);
    // ...and the claim's UPDATE overtakes the COMMIT at the other
    // servers. Those that acked the winner still hold its reservation:
    // they keep the early claim instead of refusing it. Without them
    // the successor has no majority.
    let reserving: Vec<NodeId> = (0..N as NodeId)
        .filter(|&s| {
            let state = sim.process::<MarpNode>(s).expect("server").state();
            state.reserved_for(1).is_some()
        })
        .collect();
    assert!(!reserving.contains(&host));
    assert!(N - reserving.len() < MAJORITY);
    assert_eq!(deliver_all(&mut sim, N, is_update), N);
    assert_eq!(custom(&sim, "update-held"), reserving.len());
    assert_eq!(custom(&sim, "update-refused"), refused_before);
    assert_eq!(
        count(
            &sim,
            |e| matches!(e, TraceEvent::UpdateAcked { agent, .. } if *agent == successor.key())
        ),
        N - reserving.len(),
        "only servers with no reservation in the way answer yet"
    );
    for &server in &reserving {
        let state = sim.process::<MarpNode>(server).expect("server").state();
        assert_eq!(state.held_claimants(1).collect::<Vec<_>>(), vec![successor]);
    }

    // The COMMIT lands: every server answers the held claim, positively
    // and carrying the post-COMMIT version, and mails no one else.
    assert_eq!(deliver_all(&mut sim, N, is_commit), N - 1);
    let commit_landed = sim.now();
    let acks: Vec<AgentReply> = in_flight(&mut sim, N)
        .into_iter()
        .filter_map(|m| m.mail.map(|(_, reply)| reply))
        .collect();
    assert_eq!(acks.len(), N);
    assert!(acks
        .iter()
        .all(|reply| matches!(reply, AgentReply::UpdateAck { positive: true, .. })));
    let post_commit = |reply: &&AgentReply| {
        matches!(
            reply,
            AgentReply::UpdateAck {
                store_version: 1,
                ..
            }
        )
    };
    assert!(acks.iter().filter(post_commit).count() > reserving.len());
    assert_eq!(deliver_all(&mut sim, N, is_notice), 0);

    // The acks arrive and the successor commits: one hop after the
    // predecessor's COMMIT landed (a refusal would cost an abort, a
    // RELEASE and a second UPDATE round on top of the notice hop).
    deliver_all(&mut sim, N, |_| true);
    let done = completions(&sim);
    assert_eq!(done.len(), 2, "both writes commit");
    assert!(
        done[1] <= commit_landed + ONE_WAY * 2,
        "successor committed {:?} after the predecessor's COMMIT landed",
        done[1].checked_since(commit_landed)
    );
    assert_eq!(aborts(&sim), 0);
    assert_eq!(claims(&sim), 2);
    let release = (0..16)
        .find(|&tag| marp_core::wire_tag_name(tag) == "release")
        .expect("RELEASE has a wire tag");
    assert_eq!(
        sim.stats().bytes_for_kind(release),
        0,
        "nobody broadcast RELEASE"
    );
    assert!(ONE_WAY * 2 < cfg.park_repoll);
    for server in 0..N as NodeId {
        let node = sim.process::<MarpNode>(server).expect("server");
        assert_eq!(node.state().core.store.applied_version_for(1), 2);
        assert_eq!(node.state().held_claimants(1).count(), 0);
    }
}

#[test]
fn a_claim_refused_behind_an_unfinished_agent_retries_on_the_news_it_absorbed() {
    const N: usize = 3;
    // Three writers on one server: their agents queue in the same order
    // everywhere. The first wins; the other two tour and park.
    let (mut sim, _) = cluster(N, &[0, 0, 0]);
    deliver_all(&mut sim, N, |m| !is_ack(m));
    assert_eq!(claims(&sim), 1);
    let waiting = parked(&sim, N);
    assert_eq!(waiting.len(), 2);
    let rank = |sim: &Simulation, agent| {
        let node = sim.process::<MarpNode>(0).expect("server");
        node.state()
            .core
            .ll
            .rank_of(1, agent, sim.now())
            .expect("queued")
    };
    let (second_host, second) = *waiting
        .iter()
        .find(|&&(_, a)| rank(&sim, a) == 1)
        .expect("the agent ranked second");
    let (third_host, third) = *waiting
        .iter()
        .find(|&&(_, a)| rank(&sim, a) == 2)
        .expect("the agent ranked third");
    let from = |agent: AgentId| move |m: &InFlight| matches!(&m.msg, NodeMsg::Update(u) if u.agent == agent);
    let ack_to = |agent: AgentId| {
        move |m: &InFlight| is_ack(m) && m.mail.as_ref().is_some_and(|(to, _)| *to == agent)
    };

    // The first winner commits; its COMMIT reaches the waiters' hosts,
    // whose notices make the second agent claim. Its UPDATEs stay in
    // flight.
    deliver_all(&mut sim, N, |m| !is_commit(m));
    deliver_all(&mut sim, N, |m| {
        is_commit(m) && (m.to == second_host || m.to == third_host)
    });
    deliver_all(&mut sim, N, is_notice);
    assert_eq!(claims(&sim), 2);

    // The third agent is told — wrongly, as by a stale clone's commit —
    // that the second has finished too, believes itself on top, and
    // claims.
    let forged = wrap_agent_envelope(AgentEnvelope::ToAgent {
        agent: third,
        payload: marp_wire::to_bytes(&AgentReply::LlChanged {
            node: third_host,
            finished: second,
            at: sim.now(),
        }),
    });
    let now = sim.now();
    sim.schedule_external(now, third_host, forged);
    assert_eq!(deliver_all(&mut sim, N, is_notice), 1);
    assert_eq!(claims(&sim), 3);
    // Every server finds the unfinished second agent ahead of it. That
    // is no early claim: it is refused at once, never held.
    let refused_before = custom(&sim, "update-refused");
    assert_eq!(deliver_all(&mut sim, N, from(third)), N);
    assert_eq!(custom(&sim, "update-refused"), refused_before + N);
    assert_eq!(custom(&sim, "update-held"), 0);

    // Meanwhile the second agent really does win and commit. The
    // notice reaches the third mid-claim: it names an agent already in
    // its UAL, but it is news all the same.
    deliver_all(&mut sim, N, |m| !ack_to(third)(m));
    assert_eq!(completions(&sim).len(), 2);
    assert_eq!(aborts(&sim), 0);

    // The refusals arrive: the claim aborts, and — having heard news
    // during it — the agent claims again in the same instant.
    deliver_all(&mut sim, N, ack_to(third));
    assert_eq!(aborts(&sim), 1);
    assert_eq!(
        claims(&sim),
        4,
        "the aborted claim was not retried immediately"
    );
    // The retry commits with no timer firing.
    deliver_all(&mut sim, N, |_| true);
    assert_eq!(completions(&sim).len(), 3);
    assert_eq!(aborts(&sim), 1);
    for server in 0..N as NodeId {
        let node = sim.process::<MarpNode>(server).expect("server");
        assert_eq!(node.state().core.store.applied_version_for(1), 3);
    }
}
