//! Property tests for the coordination kernel.
//!
//! The two load-bearing guarantees the protocols rely on:
//!
//! * a [`QuorumCall`]'s verdict depends only on *which* recipients said
//!   what, never on delivery order or duplication — the simulator's
//!   schedulers may reorder replies arbitrarily;
//! * a [`RetryPolicy`] is a pure function of the attempt number:
//!   deterministic, monotone non-decreasing, and constant past its
//!   growth cap.

use marp_quorum::{QuorumCall, RetryPolicy, SuccessRule, Verdict};
use marp_sim::SimTime;
use proptest::prelude::*;
use std::time::Duration;

/// Deliver `votes[i]` for node `i`, starting at `rotate`, offering each
/// vote `repeat + 1` times, and return the final verdict.
fn run_call(
    rule: SuccessRule,
    weights: &[u32],
    votes: &[bool],
    rotate: usize,
    repeat: usize,
) -> (Option<Verdict>, usize) {
    let n = votes.len();
    let mut call: QuorumCall<u64> = QuorumCall::new(rule, 0..n as u16, SimTime::ZERO);
    for step in 0..n {
        let node = (step + rotate) % n;
        for _ in 0..=repeat {
            call.offer(node as u16, weights[node], votes[node], node as u64);
        }
    }
    (call.verdict(), call.positives().len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn majority_verdict_ignores_order_and_duplicates(
        votes in proptest::collection::vec(any::<bool>(), 1..9),
        rotate in 0usize..8,
        repeat in 0usize..3,
    ) {
        let n = votes.len();
        let rule = SuccessRule::Majority { n: n as u16 };
        let weights = vec![1u32; n];
        let reference = run_call(rule, &weights, &votes, 0, 0);
        let shuffled = run_call(rule, &weights, &votes, rotate % n, repeat);
        prop_assert_eq!(reference.0, shuffled.0);
        // With every recipient answering, exactly one side wins.
        let maj = n / 2 + 1;
        let positives = votes.iter().filter(|&&v| v).count();
        let expect = if positives >= maj { Verdict::Won } else { Verdict::Lost };
        prop_assert_eq!(reference.0, Some(expect));
    }

    #[test]
    fn weighted_verdict_ignores_order_and_duplicates(
        weighted in proptest::collection::vec((1u32..5, any::<bool>()), 1..9),
        rotate in 0usize..8,
        repeat in 0usize..3,
    ) {
        let n = weighted.len();
        let weights: Vec<u32> = weighted.iter().map(|&(w, _)| w).collect();
        let votes: Vec<bool> = weighted.iter().map(|&(_, v)| v).collect();
        let total: u32 = weights.iter().sum();
        let threshold = total / 2 + 1;
        let rule = SuccessRule::Weighted { total_votes: total, threshold };
        let reference = run_call(rule, &weights, &votes, 0, 0);
        let shuffled = run_call(rule, &weights, &votes, rotate % n, repeat);
        prop_assert_eq!(reference.0, shuffled.0);
        let granted: u32 = weighted.iter().filter(|&&(_, v)| v).map(|&(w, _)| w).sum();
        let expect = if granted >= threshold { Verdict::Won } else { Verdict::Lost };
        prop_assert_eq!(reference.0, Some(expect));
    }

    #[test]
    fn post_verdict_replies_change_nothing(
        votes in proptest::collection::vec(any::<bool>(), 1..9),
        late_node in 0usize..8,
        late_vote in any::<bool>(),
    ) {
        let n = votes.len();
        let mut call: QuorumCall<u64> =
            QuorumCall::new(SuccessRule::Majority { n: n as u16 }, 0..n as u16, SimTime::ZERO);
        for (node, &vote) in votes.iter().enumerate() {
            call.offer_vote(node as u16, vote, node as u64);
        }
        let verdict = call.verdict();
        let positives = call.positives().len();
        prop_assert!(verdict.is_some(), "all recipients answered");
        // Replays and strangers after the decision are inert.
        prop_assert_eq!(call.offer_vote((late_node % n) as u16, late_vote, 99), None);
        prop_assert_eq!(call.offer_vote(n as u16 + 7, late_vote, 99), None);
        prop_assert_eq!(call.verdict(), verdict);
        prop_assert_eq!(call.positives().len(), positives);
    }

    #[test]
    fn retry_policy_is_monotone_deterministic_and_capped(
        base_ms in 1u64..100,
        cap in 0u32..8,
        key in 0u64..64,
        exponential in any::<bool>(),
        attempt in 0u32..24,
    ) {
        let build = || {
            let base = Duration::from_millis(base_ms);
            let policy = if exponential {
                RetryPolicy::exponential(base, cap)
            } else {
                RetryPolicy::linear(base, cap)
            };
            policy.staggered(Duration::from_micros(500), key, 8)
        };
        let policy = build();
        // Deterministic: an identically-built policy agrees everywhere.
        prop_assert_eq!(policy.next_delay(attempt), build().next_delay(attempt));
        // Monotone non-decreasing in the attempt number...
        prop_assert!(policy.next_delay(attempt) <= policy.next_delay(attempt + 1));
        // ...and constant past the growth cap.
        prop_assert_eq!(policy.next_delay(cap), policy.next_delay(cap + attempt));
        // The stagger never exceeds its modulus worth of units.
        prop_assert!(policy.stagger < Duration::from_micros(500) * 8);
    }
}
