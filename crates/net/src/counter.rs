//! The paper's message cost model (§6.4), split by traffic class.
//!
//! > "we count the total number of messages received and processed by all
//! > the servers in the system during simulation. Since we are counting
//! > processed messages, a broadcast has overhead cost n where n is the
//! > number of servers. A point-to-point message has cost 1."

/// Traffic class a message belongs to, for separate accounting.
///
/// Figure 14 of the paper counts *update* overhead only, while the lookup
/// cost metric (§4.2) counts servers contacted per lookup. Keeping the
/// classes separate lets a single simulation report both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Messages caused by `place`, `add` or `delete` (including internal
    /// store/remove/migrate traffic).
    Update,
    /// Messages caused by `partial_lookup` probes and replies.
    Lookup,
    /// Control-plane traffic that is neither (e.g. health checks in the
    /// live deployment); not reported by the paper's metrics.
    Control,
}

/// Counts messages processed by servers, per [`MsgClass`].
///
/// A message *processed* means it was delivered to an operational server.
/// Messages addressed to failed servers are tallied in
/// [`MessageCounter::dropped`] instead, mirroring the paper's assumption
/// that a failed server does no work.
///
/// # Example
///
/// ```
/// use pls_net::{MessageCounter, MsgClass};
/// let mut c = MessageCounter::new();
/// c.record(MsgClass::Update);
/// c.record(MsgClass::Update);
/// c.record(MsgClass::Lookup);
/// assert_eq!(c.update_messages(), 2);
/// assert_eq!(c.lookup_messages(), 1);
/// assert_eq!(c.total(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounter {
    update: u64,
    lookup: u64,
    control: u64,
    dropped: u64,
}

impl MessageCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one processed message of the given class.
    pub fn record(&mut self, class: MsgClass) {
        self.add(class, 1);
    }

    /// Records `count` processed messages of the given class.
    pub fn add(&mut self, class: MsgClass, count: u64) {
        match class {
            MsgClass::Update => self.update += count,
            MsgClass::Lookup => self.lookup += count,
            MsgClass::Control => self.control += count,
        }
    }

    /// Records a message that was lost because its destination had failed.
    pub fn record_dropped(&mut self) {
        self.dropped += 1;
    }

    /// Messages processed on behalf of updates (the quantity plotted in
    /// Figure 14).
    pub fn update_messages(&self) -> u64 {
        self.update
    }

    /// Messages processed on behalf of lookups.
    pub fn lookup_messages(&self) -> u64 {
        self.lookup
    }

    /// Control-plane messages processed.
    pub fn control_messages(&self) -> u64 {
        self.control
    }

    /// Messages dropped at failed servers.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// All processed messages, across every class (excludes dropped).
    pub fn total(&self) -> u64 {
        self.update + self.lookup + self.control
    }

    /// Resets every tally to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Component-wise difference `self - earlier`, for measuring a window.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` has any tally larger than `self` (i.e. it is not
    /// actually an earlier snapshot of the same counter).
    pub fn since(&self, earlier: &MessageCounter) -> MessageCounter {
        MessageCounter {
            update: self.update.checked_sub(earlier.update).expect("snapshot ordering"),
            lookup: self.lookup.checked_sub(earlier.lookup).expect("snapshot ordering"),
            control: self.control.checked_sub(earlier.control).expect("snapshot ordering"),
            dropped: self.dropped.checked_sub(earlier.dropped).expect("snapshot ordering"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_class() {
        let mut c = MessageCounter::new();
        for _ in 0..5 {
            c.record(MsgClass::Update);
        }
        c.add(MsgClass::Lookup, 3);
        c.record(MsgClass::Control);
        c.record_dropped();
        assert_eq!(c.update_messages(), 5);
        assert_eq!(c.lookup_messages(), 3);
        assert_eq!(c.control_messages(), 1);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = MessageCounter::new();
        c.record(MsgClass::Update);
        c.record_dropped();
        c.reset();
        assert_eq!(c, MessageCounter::new());
    }

    #[test]
    fn since_computes_window() {
        let mut c = MessageCounter::new();
        c.record(MsgClass::Update);
        let snap = c;
        c.record(MsgClass::Update);
        c.record(MsgClass::Lookup);
        let window = c.since(&snap);
        assert_eq!(window.update_messages(), 1);
        assert_eq!(window.lookup_messages(), 1);
    }

    #[test]
    #[should_panic(expected = "snapshot ordering")]
    fn since_rejects_unordered_snapshots() {
        let mut later = MessageCounter::new();
        later.record(MsgClass::Update);
        let earlier = MessageCounter::new();
        // Swapped on purpose: `earlier.since(&later)` underflows.
        let _ = earlier.since(&later);
    }
}
