//! Knowledge horizons: what a host already knows about the state an
//! agent carries, as `server → highest locking-list snapshot version`.

use marp_sim::NodeId;

/// A knowledge horizon, as a vector of `(server, version)` sorted by
/// server, one entry per server. It encodes as a count, then each
/// pair; a decoded horizon whose servers are not strictly ascending is
/// malformed, so a horizon has one encoding. It is what a
/// [`AgentEnvelope::MigrateAck`](crate::AgentEnvelope) advertises, what
/// a host remembers of each peer, and what a Locking Table is pruned
/// against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Horizon(Vec<(NodeId, u64)>);

marp_wire::wire_struct!(Horizon { 0 } if Horizon::is_ascending);

impl Horizon {
    /// An empty horizon.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_ascending(&self) -> bool {
        self.0.windows(2).all(|w| w[0].0 < w[1].0)
    }

    /// Forget every entry, keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Know at least `version` for `server`.
    pub fn raise(&mut self, server: NodeId, version: u64) {
        match self.0.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(at) => self.0[at].1 = self.0[at].1.max(version),
            Err(at) => self.0.insert(at, (server, version)),
        }
    }

    /// The version known for `server`, if any.
    pub fn get(&self, server: NodeId) -> Option<u64> {
        let at = self.0.binary_search_by_key(&server, |&(s, _)| s).ok()?;
        Some(self.0[at].1)
    }

    /// The entries, in server order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.0.iter().copied()
    }
}

/// Entries in any order, a server named twice keeping its highest
/// version; the buffer is sized from the iterator's lower bound.
impl FromIterator<(NodeId, u64)> for Horizon {
    fn from_iter<I: IntoIterator<Item = (NodeId, u64)>>(entries: I) -> Self {
        let entries = entries.into_iter();
        let mut horizon = Horizon(Vec::with_capacity(entries.size_hint().0));
        for (server, version) in entries {
            horizon.raise(server, version);
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raising_keeps_the_highest_version() {
        let mut horizon: Horizon = [(1, 5)].into_iter().collect();
        horizon.raise(1, 3);
        horizon.raise(0, 2);
        assert_eq!(horizon.iter().collect::<Vec<_>>(), [(0, 2), (1, 5)]);
    }
}
