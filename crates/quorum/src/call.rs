//! Quorum calls: broadcast a question, collect deduplicated per-node
//! replies, decide through a configurable success predicate.

use marp_sim::{NodeId, SimTime};

/// When is a call decided, and how?
///
/// Each variant captures one protocol family's predicate. The *lost*
/// condition is always "success has become impossible", specialized per
/// rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuccessRule {
    /// Strict majority of `n` voters: won at `n/2 + 1` positive
    /// replies, lost when more than `n - (n/2 + 1)` voters refused
    /// (a positive majority can no longer be assembled). Used by the
    /// MARP update agent's UPDATE round, MCV vote rounds, and the
    /// primary-copy replication ack round.
    Majority {
        /// Number of voters.
        n: u16,
    },
    /// Weighted (Gifford) voting: won when the granted vote weight
    /// reaches `threshold`, lost when even every still-silent voter
    /// could not lift the granted weight to `threshold` (i.e.
    /// `total_votes - rejected < threshold`).
    Weighted {
        /// Sum of all voters' weights.
        total_votes: u32,
        /// Weight that must be granted to win.
        threshold: u32,
    },
    /// Won only when *every* recipient has answered (or been
    /// retracted as failed): the Available-Copy write-all-available
    /// rule. Never lost by replies alone.
    AllAvailable,
}

/// The terminal outcome of a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The success predicate fired.
    Won,
    /// Success became impossible.
    Lost,
}

/// One broadcast/collect round.
///
/// Create it when the question is broadcast, [`offer`](Self::offer)
/// each reply as it arrives, and act on the verdict transition the
/// offer reports. Replies are deduplicated per node (only the first
/// answer from each recipient counts) and replies from nodes outside
/// the recipient set are ignored, so duplicate or reordered deliveries
/// can never change the verdict. `T` is the payload a positive reply
/// carries (a store version, an observation, or `()`).
#[derive(Debug, PartialEq)]
pub struct QuorumCall<T> {
    rule: SuccessRule,
    /// Recipients that have not answered (and not been retracted).
    outstanding: Vec<NodeId>,
    positives: Vec<(NodeId, T)>,
    negatives: Vec<NodeId>,
    granted_votes: u32,
    rejected_votes: u32,
    started: SimTime,
    verdict: Option<Verdict>,
}

impl<T> QuorumCall<T> {
    /// Open a call to `recipients` under `rule`, started at `started`
    /// (kept for latency accounting). An [`SuccessRule::AllAvailable`]
    /// call with no recipients is won immediately.
    pub fn new(
        rule: SuccessRule,
        recipients: impl IntoIterator<Item = NodeId>,
        started: SimTime,
    ) -> Self {
        let mut call = QuorumCall::default();
        call.restart(rule, recipients, started);
        call
    }

    /// A majority call over servers `0..n`.
    pub fn majority(n: u16, started: SimTime) -> Self {
        QuorumCall::new(SuccessRule::Majority { n }, 0..n, started)
    }

    /// Open this call again as [`new`](Self::new) would open a call,
    /// in the buffers it holds: a caller that runs round after round
    /// (an agent claiming again) allocates nothing once they have
    /// grown to its rounds' size.
    pub fn restart(
        &mut self,
        rule: SuccessRule,
        recipients: impl IntoIterator<Item = NodeId>,
        started: SimTime,
    ) {
        self.rule = rule;
        self.outstanding.clear();
        self.outstanding.extend(recipients);
        self.outstanding.sort_unstable();
        self.outstanding.dedup();
        self.positives.clear();
        self.negatives.clear();
        self.granted_votes = 0;
        self.rejected_votes = 0;
        self.started = started;
        self.verdict = None;
        self.evaluate();
    }

    /// Record one reply. `votes` is the replier's weight (1 for
    /// unweighted rules); a positive reply attaches `payload`. Returns
    /// the verdict if — and only if — this reply decided the call;
    /// duplicate replies, replies from non-recipients, and replies
    /// after the call is decided all return `None` without changing
    /// anything.
    pub fn offer(
        &mut self,
        node: NodeId,
        votes: u32,
        positive: bool,
        payload: T,
    ) -> Option<Verdict> {
        if self.verdict.is_some() {
            return None;
        }
        let slot = self.outstanding.iter().position(|&r| r == node)?;
        self.outstanding.swap_remove(slot);
        if positive {
            self.positives.push((node, payload));
            self.granted_votes += votes;
        } else {
            self.negatives.push(node);
            self.rejected_votes += votes;
        }
        self.evaluate();
        self.verdict
    }

    /// Record one unweighted reply (see [`offer`](Self::offer)).
    pub fn offer_vote(&mut self, node: NodeId, positive: bool, payload: T) -> Option<Verdict> {
        self.offer(node, 1, positive, payload)
    }

    /// Remove a recipient that will never answer (its node was declared
    /// failed). Under [`SuccessRule::AllAvailable`] this can decide the
    /// call; the transition is reported exactly like `offer`'s.
    pub fn retract(&mut self, node: NodeId) -> Option<Verdict> {
        if self.verdict.is_some() {
            return None;
        }
        let slot = self.outstanding.iter().position(|&r| r == node)?;
        self.outstanding.swap_remove(slot);
        self.evaluate();
        self.verdict
    }

    fn evaluate(&mut self) {
        debug_assert!(self.verdict.is_none());
        let decided = match self.rule {
            SuccessRule::Majority { n } => {
                let maj = usize::from(n) / 2 + 1;
                if self.positives.len() >= maj {
                    Some(Verdict::Won)
                } else if self.negatives.len() > usize::from(n) - maj {
                    Some(Verdict::Lost)
                } else {
                    None
                }
            }
            SuccessRule::Weighted {
                total_votes,
                threshold,
            } => {
                if self.granted_votes >= threshold {
                    Some(Verdict::Won)
                } else if total_votes - self.rejected_votes.min(total_votes) < threshold {
                    Some(Verdict::Lost)
                } else {
                    None
                }
            }
            SuccessRule::AllAvailable => self.outstanding.is_empty().then_some(Verdict::Won),
        };
        self.verdict = decided;
    }

    /// The verdict, if the call is decided.
    pub fn verdict(&self) -> Option<Verdict> {
        self.verdict
    }

    /// Positive replies in arrival order: `(node, payload)`.
    pub fn positives(&self) -> &[(NodeId, T)] {
        &self.positives
    }

    /// Nodes that have granted, in arrival order.
    pub fn positive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.positives.iter().map(|&(node, _)| node)
    }

    /// When the call was opened.
    pub fn started(&self) -> SimTime {
        self.started
    }
}

impl<T: Clone> Clone for QuorumCall<T> {
    fn clone(&self) -> Self {
        let mut call = QuorumCall::default();
        call.clone_from(self);
        call
    }

    /// Into the buffers held: a call reset to its `Default` keeps them
    /// for the next [`restart`](QuorumCall::restart).
    fn clone_from(&mut self, source: &Self) {
        self.rule = source.rule;
        self.outstanding.clone_from(&source.outstanding);
        self.positives.clone_from(&source.positives);
        self.negatives.clone_from(&source.negatives);
        self.granted_votes = source.granted_votes;
        self.rejected_votes = source.rejected_votes;
        self.started = source.started;
        self.verdict = source.verdict;
    }
}

/// A call to no one that was never opened: undecided, and nothing it
/// is offered counts until it is [`restart`](QuorumCall::restart)ed.
impl<T> Default for QuorumCall<T> {
    fn default() -> Self {
        QuorumCall {
            rule: SuccessRule::AllAvailable,
            outstanding: Vec::new(),
            positives: Vec::new(),
            negatives: Vec::new(),
            granted_votes: 0,
            rejected_votes: 0,
            started: SimTime::ZERO,
            verdict: None,
        }
    }
}

impl<T: Ord + Copy> QuorumCall<T> {
    /// The largest payload among positive replies ("use the most recent
    /// copy"), if any reply was positive.
    pub fn max_payload(&self) -> Option<T> {
        self.positives.iter().map(|&(_, p)| p).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_wins_at_threshold_and_not_before() {
        let mut call = QuorumCall::majority(5, SimTime::ZERO);
        assert_eq!(call.offer_vote(0, true, 10u64), None);
        assert_eq!(call.offer_vote(3, true, 12), None);
        assert_eq!(call.offer_vote(1, true, 11), Some(Verdict::Won));
        assert_eq!(call.max_payload(), Some(12));
        assert_eq!(call.positive_nodes().collect::<Vec<_>>(), vec![0, 3, 1]);
    }

    #[test]
    fn majority_loses_when_impossible() {
        // n = 5, maj = 3: two refusals leave three possible grants
        // (still winnable); the third refusal makes a majority
        // impossible.
        let mut call = QuorumCall::majority(5, SimTime::ZERO);
        assert_eq!(call.offer_vote(0, false, 0u64), None);
        assert_eq!(call.offer_vote(1, false, 0), None);
        assert_eq!(call.offer_vote(2, false, 0), Some(Verdict::Lost));
        assert_eq!(call.negatives, [0, 1, 2]);
    }

    #[test]
    fn duplicates_and_strangers_are_ignored() {
        let mut call = QuorumCall::majority(3, SimTime::ZERO);
        assert_eq!(call.offer_vote(0, true, 1u64), None);
        // Duplicate from node 0 (even flipping its answer) is inert.
        assert_eq!(call.offer_vote(0, false, 9), None);
        assert!(call.negatives.is_empty());
        // Node 7 is not a recipient.
        assert_eq!(call.offer_vote(7, true, 9), None);
        assert_eq!(call.offer_vote(2, true, 2), Some(Verdict::Won));
        // Decided: further replies change nothing.
        assert_eq!(call.offer_vote(1, true, 3), None);
        assert_eq!(call.positives().len(), 2);
    }

    #[test]
    fn weighted_counts_votes_not_nodes() {
        let rule = SuccessRule::Weighted {
            total_votes: 7,
            threshold: 4,
        };
        let mut call = QuorumCall::new(rule, 0..5, SimTime::ZERO);
        assert_eq!(call.offer(0, 3, true, 5u64), None);
        assert_eq!(call.offer(1, 1, true, 2), Some(Verdict::Won));
        assert_eq!(call.granted_votes, 4);
    }

    #[test]
    fn weighted_loses_when_threshold_unreachable() {
        let rule = SuccessRule::Weighted {
            total_votes: 5,
            threshold: 3,
        };
        let mut call = QuorumCall::new(rule, 0..5, SimTime::ZERO);
        assert_eq!(call.offer(0, 1, false, 0u64), None);
        assert_eq!(call.offer(1, 1, false, 0), None);
        // 5 - 3 = 2 < 3: lost.
        assert_eq!(call.offer(2, 1, false, 0), Some(Verdict::Lost));
    }

    #[test]
    fn all_available_waits_for_everyone() {
        let mut call = QuorumCall::new(SuccessRule::AllAvailable, [1u16, 2, 3], SimTime::ZERO);
        assert_eq!(call.offer_vote(1, true, ()), None);
        assert_eq!(call.offer_vote(3, true, ()), None);
        assert_eq!(call.offer_vote(2, true, ()), Some(Verdict::Won));
    }

    #[test]
    fn all_available_with_no_recipients_wins_immediately() {
        let call = QuorumCall::<()>::new(SuccessRule::AllAvailable, [], SimTime::ZERO);
        assert_eq!(call.verdict(), Some(Verdict::Won));
    }

    #[test]
    fn a_restarted_call_is_a_new_one() {
        let mut call = QuorumCall::majority(5, SimTime::ZERO);
        call.offer_vote(0, false, 0u64);
        call.offer_vote(1, false, 0);
        assert_eq!(call.offer_vote(2, false, 0), Some(Verdict::Lost));
        let later = SimTime::from_millis(9);
        call.restart(SuccessRule::Majority { n: 5 }, [4, 0, 3, 2, 1, 0], later);
        assert_eq!(call, QuorumCall::majority(5, later));
        assert_eq!(call.offer_vote(2, true, 7), None);
        call.restart(SuccessRule::AllAvailable, [], later);
        assert_eq!(call.verdict(), Some(Verdict::Won));
    }

    #[test]
    fn a_default_call_counts_nothing() {
        let mut call = QuorumCall::<u64>::default();
        assert_eq!(call.offer_vote(0, true, 1), None);
        assert_eq!(call.retract(0), None);
        assert_eq!(call.verdict(), None);
        assert!(call.positives().is_empty());
    }

    #[test]
    fn retract_can_complete_all_available() {
        let mut call = QuorumCall::new(SuccessRule::AllAvailable, [1u16, 2], SimTime::ZERO);
        assert_eq!(call.offer_vote(1, true, ()), None);
        assert_eq!(call.retract(2), Some(Verdict::Won));
        assert_eq!(call.retract(2), None);
    }
}
