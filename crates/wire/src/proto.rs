//! The application protocol: requests, responses, and the encoding of
//! `pls-core`'s strategy [`Message`]s.
//!
//! Every request/response is one frame (see [`crate::wire`]). The first
//! payload byte is the opcode.

use pls_core::{Membership, Message, StrategySpec, Tombstone};
use pls_net::ServerId;
use pls_telemetry::{HistogramSnapshot, MetricsSnapshot, SpanRecord, BUCKETS};

use crate::error::ClusterError;
use crate::metrics::ReqOp;
use crate::shard::Digest;
use crate::storage::KeySnapshot;
use crate::wire::{Reader, Writer, MAX_FRAME};

/// A live-cluster entry: an opaque byte string (peer address, URL, …).
pub type Entry = Vec<u8>;

/// A request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Client: batch-specify the entries of a key.
    Place {
        /// The key.
        key: Vec<u8>,
        /// Its full entry set.
        entries: Vec<Entry>,
        /// Strategy override for this key (§2: "different strategies can
        /// be used to manage different types of keys"); `None` uses the
        /// cluster's default. Must be consistent across re-places of the
        /// same key.
        spec: Option<StrategySpec>,
    },
    /// Client: add one entry to a key.
    Add {
        /// The key.
        key: Vec<u8>,
        /// The new entry.
        entry: Entry,
    },
    /// Client: delete one entry from a key.
    Delete {
        /// The key.
        key: Vec<u8>,
        /// The entry to remove.
        entry: Entry,
    },
    /// Client: lookup probe — "return up to `t` random entries you store
    /// for this key" (§3's per-server lookup behaviour).
    Probe {
        /// The key.
        key: Vec<u8>,
        /// The target answer size.
        t: u32,
    },
    /// Server→server: a strategy-protocol message for a key, forwarded on
    /// behalf of server `from`.
    Internal {
        /// Originating server (engines need it for migrate replies).
        from: u32,
        /// The key whose engine should process the message.
        key: Vec<u8>,
        /// The key's strategy when it differs from the cluster default,
        /// so the receiver creates the engine under the right strategy
        /// even if it never saw the client's `Place`.
        spec: Option<StrategySpec>,
        /// The engine message.
        msg: Message<Entry>,
    },
    /// Diagnostics: key and entry counts.
    Status,
    /// Recovery: list every key this server manages.
    Keys,
    /// Recovery: a full snapshot of one key's local state (entries,
    /// round-robin positions, coordinator counters).
    Snapshot {
        /// The key.
        key: Vec<u8>,
    },
    /// Which strategy manages this key (lets a client that did not place
    /// the key pick the right lookup procedure).
    SpecOf {
        /// The key.
        key: Vec<u8>,
    },
    /// Observability: this server's runtime metrics snapshot.
    Metrics {
        /// Atomically drain every counter and histogram as it is read
        /// (delta scraping); `false` leaves them accumulating.
        reset: bool,
    },
    /// Observability: every span this server's flight recorder retains
    /// for one request id (see [`pls_telemetry::recorder`]).
    Trace {
        /// The request id to reconstruct.
        req: u64,
    },
    /// Anti-entropy: a cheap placement digest of one key — entry count,
    /// an order-independent entry-set hash, and the round-robin
    /// position/counter fingerprint. Peers compare digests on a jittered
    /// interval and repair divergence through the `Snapshot` pull path.
    Digest {
        /// The key.
        key: Vec<u8>,
    },
    /// Membership gossip: "here is my view of the cluster — install it
    /// if it is newer than yours, and reply with yours." Carrying
    /// [`Membership::empty`] makes this a plain fetch. Sent by servers on
    /// their anti-entropy cadence, by joiners at boot, and by clients
    /// refreshing their routing table.
    Membership(Membership),
    /// Operator-initiated membership change: join an address and/or
    /// gracefully remove a server. The receiving server bumps the
    /// epoch, installs the new view, fans it out to every member, and
    /// replies with the result.
    JoinLeave {
        /// Address of a server joining the cluster, if any.
        join: Option<String>,
        /// Id of a server leaving gracefully (a drain), if any.
        leave: Option<u64>,
    },
}

/// A response frame.
// No `Eq`: metrics snapshots carry `f64` gauge readings.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was applied.
    Ok,
    /// Probe answer.
    Entries(Vec<Entry>),
    /// Status answer: `(keys, total entries stored)`.
    Status {
        /// Number of keys this server manages.
        keys: u64,
        /// Total entries stored across keys.
        entries: u64,
    },
    /// The request failed server-side.
    Error(String),
    /// Recovery: the keys this server manages.
    Keys(Vec<Vec<u8>>),
    /// Recovery and repair: one key's local state, as a checkpoint row
    /// holds it (`None` when the key is unknown to this server).
    Snapshot(Option<KeySnapshot>),
    /// The strategy managing a key (`None` when the key is unknown to
    /// this server).
    SpecOf(Option<StrategySpec>),
    /// Observability: the server's metrics snapshot (see
    /// [`crate::metrics::ServerMetrics`]).
    Metrics(MetricsSnapshot),
    /// Observability: the flight-recorder spans answering a `Trace`
    /// request, oldest first.
    Spans(Vec<SpanRecord>),
    /// Anti-entropy: one key's placement digest (see [`Request::Digest`];
    /// `None` when the key is unknown to this server).
    Digest(Option<Digest>),
    /// The responder's membership view after processing the request (see
    /// [`Request::Membership`] and [`Request::JoinLeave`]).
    Membership(Membership),
}

// ---- opcodes ----
const REQ_PLACE: u8 = 0x01;
const REQ_ADD: u8 = 0x02;
const REQ_DELETE: u8 = 0x03;
const REQ_PROBE: u8 = 0x04;
const REQ_INTERNAL: u8 = 0x05;
const REQ_STATUS: u8 = 0x06;
const REQ_KEYS: u8 = 0x07;
const REQ_SNAPSHOT: u8 = 0x08;
const REQ_SPEC_OF: u8 = 0x09;
const REQ_METRICS: u8 = 0x0A;
const REQ_TRACE: u8 = 0x0B;
const REQ_DIGEST: u8 = 0x0C;
const REQ_MEMBERSHIP: u8 = 0x0D;
const REQ_JOIN_LEAVE: u8 = 0x0E;

const RESP_OK: u8 = 0x80;
const RESP_ENTRIES: u8 = 0x81;
const RESP_STATUS: u8 = 0x82;
const RESP_KEYS: u8 = 0x83;
const RESP_SNAPSHOT: u8 = 0x84;
const RESP_SPEC_OF: u8 = 0x85;
const RESP_METRICS: u8 = 0x86;
const RESP_SPANS: u8 = 0x87;
const RESP_DIGEST: u8 = 0x88;
const RESP_MEMBERSHIP: u8 = 0x89;
const RESP_ERROR: u8 = 0xFF;

/// Decode cap on spans per `Spans` response; a recorder holds a few
/// thousand records, so anything beyond this is garbage.
const MAX_SPANS: usize = 65_536;
/// Decode cap on key/value fields per span.
const MAX_SPAN_FIELDS: usize = 64;
/// Decode cap on membership entries — a view beyond this does not fit a
/// gossip frame and is garbage.
const MAX_MEMBERS: usize = 65_536;
/// Decode cap on round-robin positions and tombstones per row.
const MAX_ROW_ITEMS: usize = MAX_FRAME / 8;

// ---- shared codecs ----

/// A presence byte (0 or 1), then the value when there is one.
fn encode_option<T>(w: &mut Writer, value: Option<&T>, encode: impl FnOnce(&mut Writer, &T)) {
    w.u8(u8::from(value.is_some()));
    if let Some(value) = value {
        encode(w, value);
    }
}

fn decode_option<T>(
    r: &mut Reader<'_>,
    what: &'static str,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, ClusterError>,
) -> Result<Option<T>, ClusterError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => decode(r).map(Some),
        _ => Err(ClusterError::Decode(what)),
    }
}

/// A `u32` count, refused above `cap`, then that many items.
pub(crate) fn decode_list<T>(
    r: &mut Reader<'_>,
    what: &'static str,
    cap: usize,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<T, ClusterError>,
) -> Result<Vec<T>, ClusterError> {
    let n = r.u32(what)? as usize;
    if n > cap {
        return Err(ClusterError::Decode(what));
    }
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(item(r)?);
    }
    Ok(items)
}

fn encode_counters(w: &mut Writer, counters: Option<(u64, u64)>) {
    encode_option(w, counters.as_ref(), |w, (head, tail)| {
        w.u64(*head).u64(*tail);
    });
}

fn decode_counters(r: &mut Reader<'_>) -> Result<Option<(u64, u64)>, ClusterError> {
    decode_option(r, "counter flag", |r| Ok((r.u64("head")?, r.u64("tail")?)))
}

/// The one codec of a [`KeySnapshot`] row: a checkpoint holds one per
/// key, and a `Snapshot` answer is a presence byte and one.
pub(crate) fn encode_snapshot(w: &mut Writer, s: &KeySnapshot) {
    w.bytes(&s.key);
    encode_spec(w, &Some(s.spec));
    w.bytes_list(&s.entries).u32(s.positions.len() as u32);
    for (pos, v) in &s.positions {
        w.u64(*pos).bytes(v);
    }
    encode_counters(w, s.counters);
    w.u64(s.version).u32(s.tombstones.len() as u32);
    for (v, t) in &s.tombstones {
        w.bytes(v).u64(t.version).u64(t.born_ms);
    }
}

/// Reads what [`encode_snapshot`] wrote; a row without a strategy is
/// refused.
pub(crate) fn decode_snapshot(r: &mut Reader<'_>) -> Result<KeySnapshot, ClusterError> {
    let key = r.bytes("snapshot key")?;
    let spec = decode_spec(r)?.ok_or(ClusterError::Decode("snapshot spec"))?;
    let entries = r.bytes_list("snapshot entries")?;
    let positions = decode_list(r, "position count", MAX_ROW_ITEMS, |r| {
        Ok((r.u64("position")?, r.bytes("position entry")?))
    })?;
    let counters = decode_counters(r)?;
    let version = r.u64("snapshot version")?;
    let tombstones = decode_list(r, "tombstone count", MAX_ROW_ITEMS, |r| {
        let v = r.bytes("tombstone entry")?;
        let (version, born_ms) = (r.u64("tombstone version")?, r.u64("tombstone born")?);
        Ok((v, Tombstone { version, born_ms }))
    })?;
    Ok(KeySnapshot { key, spec, entries, positions, counters, version, tombstones })
}

fn encode_digest(w: &mut Writer, d: &Digest) {
    encode_spec(w, &Some(d.spec));
    w.u64(d.count).u64(d.entry_hash).u64(d.positions_hash).u64(d.version);
    encode_counters(w, d.counters);
}

/// Reads what [`encode_digest`] wrote; a digest without a strategy is
/// refused.
fn decode_digest(r: &mut Reader<'_>) -> Result<Digest, ClusterError> {
    let spec = decode_spec(r)?.ok_or(ClusterError::Decode("digest spec"))?;
    let (count, entry_hash) = (r.u64("digest count")?, r.u64("digest entry hash")?);
    let (positions_hash, version) = (r.u64("digest positions hash")?, r.u64("digest version")?);
    Ok(Digest { spec, count, entry_hash, positions_hash, version, counters: decode_counters(r)? })
}

/// A view as its epoch and its `(id, dial address)` members, in id order.
fn encode_membership(w: &mut Writer, view: &Membership) {
    w.u64(view.epoch()).u32(view.len() as u32);
    for m in view.members() {
        w.u64(m.id).bytes(m.addr.as_bytes());
    }
}

/// Reads what [`encode_membership`] wrote, through
/// [`Membership::from_parts`]. A nonzero epoch with no member is refused:
/// installed, it would leave its holder nobody to gossip with or repair
/// from, and only a higher epoch could replace it. Epoch 0 with none is
/// [`Membership::empty`], the fetch.
fn decode_membership(r: &mut Reader<'_>) -> Result<Membership, ClusterError> {
    let epoch = r.u64("membership epoch")?;
    let members = decode_list(r, "member count", MAX_MEMBERS, |r| {
        let id = r.u64("member id")?;
        Ok((id, String::from_utf8_lossy(&r.bytes("member addr")?).into_owned()))
    })?;
    if epoch > 0 && members.is_empty() {
        return Err(ClusterError::Decode("empty membership"));
    }
    Ok(Membership::from_parts(epoch, members))
}

// ---- engine message opcodes ----
const MSG_PLACE_REQ: u8 = 0x10;
const MSG_ADD_REQ: u8 = 0x11;
const MSG_DELETE_REQ: u8 = 0x12;
const MSG_RESET: u8 = 0x13;
const MSG_STORE_SET: u8 = 0x14;
const MSG_CHOOSE_SUBSET: u8 = 0x15;
const MSG_STORE: u8 = 0x16;
const MSG_REMOVE: u8 = 0x17;
const MSG_SAMPLED_STORE: u8 = 0x18;
const MSG_COUNTED_REMOVE: u8 = 0x19;
const MSG_RR_INIT: u8 = 0x1A;
const MSG_RR_STORE: u8 = 0x1B;
const MSG_RR_REMOVE: u8 = 0x1C;
const MSG_MIGRATE_REQ: u8 = 0x1D;
const MSG_MIGRATE_REP: u8 = 0x1E;
const MSG_RR_REMOVE_AT: u8 = 0x1F;
const MSG_RR_SET_COUNTERS: u8 = 0x20;
const MSG_VERSIONED: u8 = 0x21;

// Strategy spec wire tags.
const SPEC_NONE: u8 = 0;
const SPEC_FULL: u8 = 1;
const SPEC_FIXED: u8 = 2;
const SPEC_RANDOM: u8 = 3;
const SPEC_ROUND: u8 = 4;
const SPEC_HASH: u8 = 5;

pub(crate) fn encode_spec(w: &mut Writer, spec: &Option<StrategySpec>) {
    match spec {
        None => {
            w.u8(SPEC_NONE);
        }
        Some(StrategySpec::FullReplication) => {
            w.u8(SPEC_FULL);
        }
        Some(StrategySpec::Fixed { x }) => {
            w.u8(SPEC_FIXED).u32(*x as u32);
        }
        Some(StrategySpec::RandomServer { x }) => {
            w.u8(SPEC_RANDOM).u32(*x as u32);
        }
        Some(StrategySpec::RoundRobin { y }) => {
            w.u8(SPEC_ROUND).u32(*y as u32);
        }
        Some(StrategySpec::Hash { y }) => {
            w.u8(SPEC_HASH).u32(*y as u32);
        }
    }
}

pub(crate) fn decode_spec(r: &mut Reader<'_>) -> Result<Option<StrategySpec>, ClusterError> {
    let tag = r.u8("spec tag")?;
    Ok(match tag {
        SPEC_NONE => None,
        SPEC_FULL => Some(StrategySpec::FullReplication),
        SPEC_FIXED => Some(StrategySpec::Fixed { x: r.u32("spec x")? as usize }),
        SPEC_RANDOM => Some(StrategySpec::RandomServer { x: r.u32("spec x")? as usize }),
        SPEC_ROUND => Some(StrategySpec::RoundRobin { y: r.u32("spec y")? as usize }),
        SPEC_HASH => Some(StrategySpec::Hash { y: r.u32("spec y")? as usize }),
        _ => return Err(ClusterError::Decode("spec tag")),
    })
}

pub(crate) fn encode_msg(w: &mut Writer, msg: &Message<Entry>) {
    match msg {
        Message::PlaceReq { entries } => {
            w.u8(MSG_PLACE_REQ).bytes_list(entries);
        }
        Message::AddReq { v } => {
            w.u8(MSG_ADD_REQ).bytes(v);
        }
        Message::DeleteReq { v } => {
            w.u8(MSG_DELETE_REQ).bytes(v);
        }
        Message::Reset => {
            w.u8(MSG_RESET);
        }
        Message::StoreSet { entries } => {
            w.u8(MSG_STORE_SET).bytes_list(entries);
        }
        Message::ChooseSubset { entries, x } => {
            w.u8(MSG_CHOOSE_SUBSET).u32(*x as u32).bytes_list(entries);
        }
        Message::Store { v } => {
            w.u8(MSG_STORE).bytes(v);
        }
        Message::Remove { v } => {
            w.u8(MSG_REMOVE).bytes(v);
        }
        Message::SampledStore { v, x } => {
            w.u8(MSG_SAMPLED_STORE).u32(*x as u32).bytes(v);
        }
        Message::CountedRemove { v } => {
            w.u8(MSG_COUNTED_REMOVE).bytes(v);
        }
        Message::RrInit { h } => {
            w.u8(MSG_RR_INIT).u64(*h);
        }
        Message::RrStore { v, pos } => {
            w.u8(MSG_RR_STORE).u64(*pos).bytes(v);
        }
        Message::RrRemove { v, head_pos } => {
            w.u8(MSG_RR_REMOVE).u64(*head_pos).bytes(v);
        }
        Message::MigrateReq { v, dest_pos } => {
            w.u8(MSG_MIGRATE_REQ).u64(*dest_pos).bytes(v);
        }
        Message::MigrateRep { v, dest_pos, replacement } => {
            w.u8(MSG_MIGRATE_REP).u64(*dest_pos).bytes(v);
            encode_option(w, replacement.as_ref(), |w, u| {
                w.bytes(u);
            });
        }
        Message::RrRemoveAt { pos } => {
            w.u8(MSG_RR_REMOVE_AT).u64(*pos);
        }
        Message::RrSetCounters { head, tail } => {
            w.u8(MSG_RR_SET_COUNTERS).u64(*head).u64(*tail);
        }
        Message::Versioned { version, stamp_ms, msg } => {
            w.u8(MSG_VERSIONED).u64(*version).u64(*stamp_ms);
            encode_msg(w, msg);
        }
    }
}

pub(crate) fn decode_msg(r: &mut Reader<'_>) -> Result<Message<Entry>, ClusterError> {
    let op = r.u8("msg opcode")?;
    let msg = match op {
        MSG_PLACE_REQ => Message::PlaceReq { entries: r.bytes_list("place entries")? },
        MSG_ADD_REQ => Message::AddReq { v: r.bytes("add entry")? },
        MSG_DELETE_REQ => Message::DeleteReq { v: r.bytes("delete entry")? },
        MSG_RESET => Message::Reset,
        MSG_STORE_SET => Message::StoreSet { entries: r.bytes_list("store set")? },
        MSG_CHOOSE_SUBSET => {
            let x = r.u32("choose x")? as usize;
            Message::ChooseSubset { entries: r.bytes_list("choose entries")?, x }
        }
        MSG_STORE => Message::Store { v: r.bytes("store entry")? },
        MSG_REMOVE => Message::Remove { v: r.bytes("remove entry")? },
        MSG_SAMPLED_STORE => {
            let x = r.u32("sampled x")? as usize;
            Message::SampledStore { v: r.bytes("sampled entry")?, x }
        }
        MSG_COUNTED_REMOVE => Message::CountedRemove { v: r.bytes("counted entry")? },
        MSG_RR_INIT => Message::RrInit { h: r.u64("rr h")? },
        MSG_RR_STORE => {
            let pos = r.u64("rr pos")?;
            Message::RrStore { v: r.bytes("rr entry")?, pos }
        }
        MSG_RR_REMOVE => {
            let head_pos = r.u64("rr head")?;
            Message::RrRemove { v: r.bytes("rr entry")?, head_pos }
        }
        MSG_MIGRATE_REQ => {
            let dest_pos = r.u64("migrate pos")?;
            Message::MigrateReq { v: r.bytes("migrate entry")?, dest_pos }
        }
        MSG_MIGRATE_REP => {
            let dest_pos = r.u64("migrate pos")?;
            let v = r.bytes("migrate entry")?;
            let replacement = decode_option(r, "replacement flag", |r| r.bytes("replacement"))?;
            Message::MigrateRep { v, dest_pos, replacement }
        }
        MSG_RR_REMOVE_AT => Message::RrRemoveAt { pos: r.u64("rr pos")? },
        MSG_RR_SET_COUNTERS => {
            Message::RrSetCounters { head: r.u64("rr head")?, tail: r.u64("rr tail")? }
        }
        MSG_VERSIONED => {
            let version = r.u64("versioned version")?;
            let stamp_ms = r.u64("versioned stamp")?;
            let inner = decode_msg(r)?;
            if matches!(inner, Message::Versioned { .. }) {
                // One level only: the engine never nests envelopes, so a
                // nested one is garbage (and unbounded recursion bait).
                return Err(ClusterError::Decode("nested versioned"));
            }
            Message::Versioned { version, stamp_ms, msg: Box::new(inner) }
        }
        _ => return Err(ClusterError::Decode("msg opcode")),
    };
    Ok(msg)
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Place { key, entries, spec } => {
                w.u8(REQ_PLACE).bytes(key).bytes_list(entries);
                encode_spec(&mut w, spec);
            }
            Request::Add { key, entry } => {
                w.u8(REQ_ADD).bytes(key).bytes(entry);
            }
            Request::Delete { key, entry } => {
                w.u8(REQ_DELETE).bytes(key).bytes(entry);
            }
            Request::Probe { key, t } => {
                w.u8(REQ_PROBE).bytes(key).u32(*t);
            }
            Request::Internal { from, key, spec, msg } => {
                w.u8(REQ_INTERNAL).u32(*from).bytes(key);
                encode_spec(&mut w, spec);
                encode_msg(&mut w, msg);
            }
            Request::Status => {
                w.u8(REQ_STATUS);
            }
            Request::Keys => {
                w.u8(REQ_KEYS);
            }
            Request::Snapshot { key } => {
                w.u8(REQ_SNAPSHOT).bytes(key);
            }
            Request::SpecOf { key } => {
                w.u8(REQ_SPEC_OF).bytes(key);
            }
            Request::Metrics { reset } => {
                w.u8(REQ_METRICS).u8(u8::from(*reset));
            }
            Request::Trace { req } => {
                w.u8(REQ_TRACE).u64(*req);
            }
            Request::Digest { key } => {
                w.u8(REQ_DIGEST).bytes(key);
            }
            Request::Membership(view) => {
                w.u8(REQ_MEMBERSHIP);
                encode_membership(&mut w, view);
            }
            Request::JoinLeave { join, leave } => {
                w.u8(REQ_JOIN_LEAVE);
                encode_option(&mut w, join.as_ref(), |w, addr| {
                    w.bytes(addr.as_bytes());
                });
                encode_option(&mut w, leave.as_ref(), |w, id| {
                    w.u64(*id);
                });
            }
        }
        w.into_payload()
    }

    /// Decodes a request from a frame payload.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Decode`] on malformed input, an unknown opcode
    /// included.
    pub fn decode(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let op = r.u8("request opcode")?;
        let req = match op {
            REQ_PLACE => {
                let key = r.bytes("key")?;
                let entries = r.bytes_list("entries")?;
                let spec = decode_spec(&mut r)?;
                Request::Place { key, entries, spec }
            }
            REQ_ADD => Request::Add { key: r.bytes("key")?, entry: r.bytes("entry")? },
            REQ_DELETE => Request::Delete { key: r.bytes("key")?, entry: r.bytes("entry")? },
            REQ_PROBE => Request::Probe { key: r.bytes("key")?, t: r.u32("t")? },
            REQ_INTERNAL => {
                let from = r.u32("from")?;
                let key = r.bytes("key")?;
                let spec = decode_spec(&mut r)?;
                let msg = decode_msg(&mut r)?;
                Request::Internal { from, key, spec, msg }
            }
            REQ_STATUS => Request::Status,
            REQ_KEYS => Request::Keys,
            REQ_SNAPSHOT => Request::Snapshot { key: r.bytes("key")? },
            REQ_SPEC_OF => Request::SpecOf { key: r.bytes("key")? },
            REQ_METRICS => match r.u8("reset flag")? {
                0 => Request::Metrics { reset: false },
                1 => Request::Metrics { reset: true },
                _ => return Err(ClusterError::Decode("reset flag")),
            },
            REQ_TRACE => Request::Trace { req: r.u64("trace req")? },
            REQ_DIGEST => Request::Digest { key: r.bytes("key")? },
            REQ_MEMBERSHIP => Request::Membership(decode_membership(&mut r)?),
            REQ_JOIN_LEAVE => {
                let join = decode_option(&mut r, "join flag", |r| {
                    Ok(String::from_utf8_lossy(&r.bytes("join addr")?).into_owned())
                })?;
                let leave = decode_option(&mut r, "leave flag", |r| r.u64("leave id"))?;
                Request::JoinLeave { join, leave }
            }
            _ => return Err(ClusterError::Decode("request opcode")),
        };
        r.finish("request")?;
        Ok(req)
    }

    /// The originating server as an endpoint, for `Internal` requests.
    pub fn internal_sender(from: u32) -> pls_net::Endpoint {
        pls_net::Endpoint::Server(ServerId::new(from))
    }

    /// The request's operation label, for per-variant counters.
    pub fn op(&self) -> ReqOp {
        match self {
            Request::Place { .. } => ReqOp::Place,
            Request::Add { .. } => ReqOp::Add,
            Request::Delete { .. } => ReqOp::Delete,
            Request::Probe { .. } => ReqOp::Probe,
            Request::Internal { .. } => ReqOp::Internal,
            Request::Status => ReqOp::Status,
            Request::Keys => ReqOp::Keys,
            Request::Snapshot { .. } => ReqOp::Snapshot,
            Request::SpecOf { .. } => ReqOp::SpecOf,
            Request::Metrics { .. } => ReqOp::Metrics,
            Request::Trace { .. } => ReqOp::Trace,
            Request::Digest { .. } => ReqOp::Digest,
            Request::Membership(_) => ReqOp::Membership,
            Request::JoinLeave { .. } => ReqOp::JoinLeave,
        }
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Ok => {
                w.u8(RESP_OK);
            }
            Response::Entries(entries) => {
                w.u8(RESP_ENTRIES).bytes_list(entries);
            }
            Response::Status { keys, entries } => {
                w.u8(RESP_STATUS).u64(*keys).u64(*entries);
            }
            Response::Error(msg) => {
                w.u8(RESP_ERROR).bytes(msg.as_bytes());
            }
            Response::Keys(keys) => {
                w.u8(RESP_KEYS).bytes_list(keys);
            }
            Response::Snapshot(snap) => {
                w.u8(RESP_SNAPSHOT);
                encode_option(&mut w, snap.as_ref(), encode_snapshot);
            }
            Response::SpecOf(spec) => {
                w.u8(RESP_SPEC_OF);
                encode_spec(&mut w, spec);
            }
            Response::Metrics(snap) => {
                w.u8(RESP_METRICS);
                w.u32(snap.counters.len() as u32);
                for (name, value) in &snap.counters {
                    w.bytes(name.as_bytes()).u64(*value);
                }
                // Gauges travel as their IEEE-754 bit patterns.
                w.u32(snap.gauges.len() as u32);
                for (name, value) in &snap.gauges {
                    w.bytes(name.as_bytes()).u64(value.to_bits());
                }
                w.u32(snap.histograms.len() as u32);
                for (name, h) in &snap.histograms {
                    w.bytes(name.as_bytes()).u64(h.count).u64(h.sum);
                    w.u32(BUCKETS as u32);
                    for b in &h.buckets {
                        w.u64(*b);
                    }
                }
            }
            Response::Digest(digest) => {
                w.u8(RESP_DIGEST);
                encode_option(&mut w, digest.as_ref(), encode_digest);
            }
            Response::Membership(view) => {
                w.u8(RESP_MEMBERSHIP);
                encode_membership(&mut w, view);
            }
            Response::Spans(spans) => {
                w.u8(RESP_SPANS).u32(spans.len() as u32);
                for s in spans {
                    encode_option(&mut w, s.req_id.as_ref(), |w, id| {
                        w.u64(*id);
                    });
                    w.bytes(s.name.as_bytes()).bytes(s.target.as_bytes());
                    w.u64(s.start_us).u64(s.elapsed_us);
                    w.u32(s.fields.len() as u32);
                    for (k, v) in &s.fields {
                        w.bytes(k.as_bytes()).bytes(v.as_bytes());
                    }
                }
            }
        }
        w.into_payload()
    }

    /// Decodes a response from a frame payload.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Decode`] on malformed input.
    pub fn decode(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let op = r.u8("response opcode")?;
        let resp = match op {
            RESP_OK => Response::Ok,
            RESP_ENTRIES => Response::Entries(r.bytes_list("entries")?),
            RESP_STATUS => Response::Status { keys: r.u64("keys")?, entries: r.u64("entries")? },
            RESP_ERROR => {
                let raw = r.bytes("error message")?;
                Response::Error(String::from_utf8_lossy(&raw).into_owned())
            }
            RESP_KEYS => Response::Keys(r.bytes_list("keys")?),
            RESP_SNAPSHOT => {
                Response::Snapshot(decode_option(&mut r, "snapshot flag", decode_snapshot)?)
            }
            RESP_SPEC_OF => Response::SpecOf(decode_spec(&mut r)?),
            RESP_METRICS => {
                let n_counters = r.u32("counter count")? as usize;
                if n_counters > MAX_FRAME / 12 {
                    return Err(ClusterError::Decode("counter count"));
                }
                let mut counters = Vec::with_capacity(n_counters.min(1024));
                for _ in 0..n_counters {
                    let name = r.bytes("counter name")?;
                    let value = r.u64("counter value")?;
                    counters.push((String::from_utf8_lossy(&name).into_owned(), value));
                }
                let mut snap = MetricsSnapshot::new();
                snap.push_counters(counters);
                let n_gauges = r.u32("gauge count")? as usize;
                if n_gauges > MAX_FRAME / 12 {
                    return Err(ClusterError::Decode("gauge count"));
                }
                for _ in 0..n_gauges {
                    let name = r.bytes("gauge name")?;
                    let bits = r.u64("gauge value")?;
                    snap.push_gauge(
                        String::from_utf8_lossy(&name).into_owned(),
                        f64::from_bits(bits),
                    );
                }
                let n_hists = r.u32("histogram count")? as usize;
                if n_hists > 4096 {
                    return Err(ClusterError::Decode("histogram count"));
                }
                for _ in 0..n_hists {
                    let name = r.bytes("histogram name")?;
                    let count = r.u64("histogram obs count")?;
                    let sum = r.u64("histogram sum")?;
                    let n_buckets = r.u32("bucket count")? as usize;
                    if n_buckets > 1024 {
                        return Err(ClusterError::Decode("bucket count"));
                    }
                    // Fold any extra buckets from a newer peer into the
                    // overflow bucket; missing trailing buckets are zero.
                    let mut buckets = [0u64; BUCKETS];
                    for i in 0..n_buckets {
                        buckets[i.min(BUCKETS - 1)] += r.u64("bucket")?;
                    }
                    snap.push_histogram(
                        String::from_utf8_lossy(&name).into_owned(),
                        HistogramSnapshot { count, sum, buckets },
                    );
                }
                Response::Metrics(snap)
            }
            RESP_DIGEST => Response::Digest(decode_option(&mut r, "digest flag", decode_digest)?),
            RESP_MEMBERSHIP => Response::Membership(decode_membership(&mut r)?),
            RESP_SPANS => Response::Spans(decode_list(&mut r, "span count", MAX_SPANS, |r| {
                let req_id = decode_option(r, "span req flag", |r| r.u64("span req id"))?;
                let name = r.bytes("span name")?;
                let target = r.bytes("span target")?;
                let start_us = r.u64("span start")?;
                let elapsed_us = r.u64("span elapsed")?;
                let fields = decode_list(r, "span field count", MAX_SPAN_FIELDS, |r| {
                    let k = r.bytes("span field key")?;
                    let v = r.bytes("span field value")?;
                    Ok((
                        String::from_utf8_lossy(&k).into_owned(),
                        String::from_utf8_lossy(&v).into_owned(),
                    ))
                })?;
                Ok(SpanRecord {
                    req_id,
                    name: String::from_utf8_lossy(&name).into_owned(),
                    target: String::from_utf8_lossy(&target).into_owned(),
                    start_us,
                    elapsed_us,
                    fields,
                })
            })?),
            _ => return Err(ClusterError::Decode("response opcode")),
        };
        r.finish("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_net::DetRng;

    fn roundtrip_req(req: Request) {
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    fn roundtrip_resp(resp: Response) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Place {
            key: b"song".to_vec(),
            entries: vec![b"a".to_vec(), b"bb".to_vec()],
            spec: None,
        });
        for spec in [
            StrategySpec::full_replication(),
            StrategySpec::fixed(20),
            StrategySpec::random_server(7),
            StrategySpec::round_robin(2),
            StrategySpec::hash(3),
        ] {
            roundtrip_req(Request::Place {
                key: b"song".to_vec(),
                entries: vec![],
                spec: Some(spec),
            });
        }
        roundtrip_req(Request::Add { key: b"k".to_vec(), entry: b"e".to_vec() });
        roundtrip_req(Request::Delete { key: vec![], entry: vec![0, 1, 255] });
        roundtrip_req(Request::Probe { key: b"k".to_vec(), t: 42 });
        roundtrip_req(Request::Status);
        roundtrip_req(Request::Metrics { reset: false });
        roundtrip_req(Request::Metrics { reset: true });
        roundtrip_req(Request::Trace { req: 0xDEAD_BEEF });
        roundtrip_req(Request::Digest { key: b"song".to_vec() });
        roundtrip_req(Request::Digest { key: vec![] });
    }

    fn view(epoch: u64, members: &[(u64, &str)]) -> Membership {
        Membership::from_parts(epoch, members.iter().map(|&(id, a)| (id, a.into())).collect())
    }

    #[test]
    fn membership_frames_roundtrip() {
        roundtrip_req(Request::Membership(Membership::empty()));
        roundtrip_req(Request::Membership(view(7, &[(0, "10.0.0.1:7000"), (3, "10.0.0.4:7000")])));
        roundtrip_req(Request::JoinLeave { join: None, leave: None });
        roundtrip_req(Request::JoinLeave { join: Some("10.0.0.9:7000".into()), leave: None });
        roundtrip_req(Request::JoinLeave { join: None, leave: Some(2) });
        roundtrip_req(Request::JoinLeave { join: Some("a:1".into()), leave: Some(u64::MAX) });
        roundtrip_resp(Response::Membership(Membership::empty()));
        roundtrip_resp(Response::Membership(view(42, &[(1, "x:1"), (9, "y:2")])));
        // A member count beyond the cap is rejected outright.
        let mut w = Writer::new();
        w.u8(REQ_MEMBERSHIP).u64(1).u32(u32::MAX);
        assert!(Request::decode(&w.into_payload()).is_err());
        // Bogus join/leave flags are rejected.
        let mut w = Writer::new();
        w.u8(REQ_JOIN_LEAVE).u8(9);
        assert!(Request::decode(&w.into_payload()).is_err());
    }

    /// The bytes of a `Membership` frame, written out by hand: the
    /// opcode, the epoch, the member count, then each id and
    /// length-prefixed address.
    #[test]
    fn membership_frames_keep_their_bytes() {
        let mut body = vec![0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 2];
        body.extend([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13]);
        body.extend(b"10.0.0.1:7000");
        body.extend([0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 13]);
        body.extend(b"10.0.0.4:7000");
        let v = view(7, &[(3, "10.0.0.4:7000"), (0, "10.0.0.1:7000")]);
        assert_eq!(Request::Membership(v.clone()).encode(), [&[0x0D][..], &body].concat());
        assert_eq!(Response::Membership(v).encode(), [&[0x89][..], &body].concat());
    }

    /// A nonzero epoch with no member is no view: what one such gossip
    /// frame would install, every member's gossip would then spread.
    #[test]
    fn an_empty_view_at_a_nonzero_epoch_is_refused() {
        let frame = [0x0D, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0];
        assert_eq!(Request::decode(&frame), Err(ClusterError::Decode("empty membership")));
        let mut reply = frame;
        reply[0] = RESP_MEMBERSHIP;
        assert_eq!(Response::decode(&reply), Err(ClusterError::Decode("empty membership")));
        // Epoch 0 with no member is the fetch.
        reply[8] = 0;
        assert_eq!(Response::decode(&reply), Ok(Response::Membership(Membership::empty())));
    }

    #[test]
    fn unknown_request_opcode_is_a_decode_error() {
        for op in [0x0Fu8, 0x42, 0x77] {
            assert_eq!(
                Request::decode(&[op, 1, 2, 3]),
                Err(ClusterError::Decode("request opcode"))
            );
        }
        // So is a known opcode with a malformed body.
        assert!(matches!(Request::decode(&[REQ_PROBE]), Err(ClusterError::Decode(_))));
    }

    #[test]
    fn digest_response_roundtrips() {
        roundtrip_resp(Response::Digest(None));
        roundtrip_resp(Response::Digest(Some(Digest {
            spec: StrategySpec::round_robin(2),
            count: 17,
            entry_hash: 0xDEAD_BEEF_DEAD_BEEF,
            positions_hash: u64::MAX,
            version: 42,
            counters: Some((4, 21)),
        })));
        // A bogus presence flag is rejected, and so is a digest without
        // a strategy.
        let mut w = Writer::new();
        w.u8(RESP_DIGEST).u8(9);
        assert!(Response::decode(&w.into_payload()).is_err());
        let mut w = Writer::new();
        w.u8(RESP_DIGEST).u8(1).u8(SPEC_NONE).u64(0).u64(0).u64(0).u64(0).u8(0);
        assert_eq!(Response::decode(&w.into_payload()), Err(ClusterError::Decode("digest spec")));
    }

    #[test]
    fn spans_response_roundtrips() {
        roundtrip_resp(Response::Spans(Vec::new()));
        roundtrip_resp(Response::Spans(vec![
            SpanRecord {
                req_id: Some(42),
                name: "partial_lookup".into(),
                target: "pls_cluster::client".into(),
                start_us: 1_700_000_000_000_000,
                elapsed_us: 1234,
                fields: vec![("server".into(), "2".into()), ("service_us".into(), "87".into())],
            },
            SpanRecord {
                req_id: None,
                name: "resync_from_peers".into(),
                target: "pls_cluster::server".into(),
                start_us: 0,
                elapsed_us: u64::MAX,
                fields: Vec::new(),
            },
        ]));
    }

    #[test]
    fn spans_decode_caps_are_enforced() {
        // A span count beyond the cap is rejected outright.
        let mut w = Writer::new();
        w.u8(RESP_SPANS).u32(u32::MAX);
        assert!(Response::decode(&w.into_payload()).is_err());
        // A bogus req-id flag is rejected.
        let mut w = Writer::new();
        w.u8(RESP_SPANS).u32(1).u8(9);
        assert!(Response::decode(&w.into_payload()).is_err());
    }

    #[test]
    fn internal_message_roundtrips() {
        let msgs: Vec<Message<Entry>> = vec![
            Message::PlaceReq { entries: vec![b"x".to_vec()] },
            Message::AddReq { v: b"v".to_vec() },
            Message::DeleteReq { v: b"v".to_vec() },
            Message::Reset,
            Message::StoreSet { entries: vec![] },
            Message::ChooseSubset { entries: vec![b"a".to_vec()], x: 3 },
            Message::Store { v: b"v".to_vec() },
            Message::Remove { v: b"v".to_vec() },
            Message::SampledStore { v: b"v".to_vec(), x: 20 },
            Message::CountedRemove { v: b"v".to_vec() },
            Message::RrInit { h: 100 },
            Message::RrStore { v: b"v".to_vec(), pos: 7 },
            Message::RrRemove { v: b"v".to_vec(), head_pos: 3 },
            Message::MigrateReq { v: b"v".to_vec(), dest_pos: 9 },
            Message::MigrateRep { v: b"v".to_vec(), dest_pos: 9, replacement: None },
            Message::MigrateRep { v: b"v".to_vec(), dest_pos: 9, replacement: Some(b"u".to_vec()) },
            Message::RrRemoveAt { pos: 11 },
            Message::RrSetCounters { head: 4, tail: 19 },
        ];
        for msg in msgs {
            roundtrip_req(Request::Internal { from: 2, key: b"k".to_vec(), spec: None, msg });
        }
        roundtrip_req(Request::Internal {
            from: 0,
            key: b"k".to_vec(),
            spec: Some(StrategySpec::round_robin(2)),
            msg: Message::Reset,
        });
    }

    #[test]
    fn versioned_messages_roundtrip() {
        for inner in [
            Message::AddReq { v: b"v".to_vec() },
            Message::RrRemove { v: b"v".to_vec(), head_pos: 3 },
            Message::StoreSet { entries: vec![b"a".to_vec(), b"b".to_vec()] },
        ] {
            roundtrip_req(Request::Internal {
                from: 1,
                key: b"k".to_vec(),
                spec: None,
                msg: Message::Versioned {
                    version: 99,
                    stamp_ms: 1_700_000_000_000,
                    msg: Box::new(inner),
                },
            });
        }
    }

    #[test]
    fn nested_versioned_envelopes_are_rejected() {
        let msg: Message<Entry> = Message::Versioned {
            version: 2,
            stamp_ms: 10,
            msg: Box::new(Message::Versioned {
                version: 1,
                stamp_ms: 5,
                msg: Box::new(Message::Reset),
            }),
        };
        let req = Request::Internal { from: 0, key: b"k".to_vec(), spec: None, msg };
        assert!(Request::decode(&req.encode()).is_err());
    }

    #[test]
    fn snapshot_response_roundtrips() {
        roundtrip_resp(Response::Snapshot(None));
        roundtrip_resp(Response::Snapshot(Some(KeySnapshot {
            key: b"song".to_vec(),
            spec: StrategySpec::round_robin(2),
            entries: vec![b"a".to_vec(), b"bb".to_vec()],
            positions: vec![(3, b"a".to_vec())],
            counters: Some((1, 9)),
            version: 17,
            tombstones: vec![
                (b"gone".to_vec(), Tombstone { version: 12, born_ms: 1_700_000_000_000 }),
                (b"older".to_vec(), Tombstone { version: 4, born_ms: 0 }),
            ],
        })));
        // A row without a strategy is refused.
        let mut w = Writer::new();
        w.u8(RESP_SNAPSHOT).u8(1).bytes(b"song").u8(SPEC_NONE);
        assert_eq!(Response::decode(&w.into_payload()), Err(ClusterError::Decode("snapshot spec")));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Entries(vec![b"x".to_vec(), vec![]]));
        roundtrip_resp(Response::Status { keys: 3, entries: 999 });
        roundtrip_resp(Response::Error("kaput".into()));
    }

    #[test]
    fn metrics_response_roundtrips() {
        roundtrip_resp(Response::Metrics(MetricsSnapshot::new()));
        let hist = {
            let h = pls_telemetry::Histogram::new();
            h.observe(1);
            h.observe(3);
            h.observe(1 << 20);
            h.snapshot()
        };
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("pls_requests_total{op=\"probe\"}", 42);
        snap.push_counter("pls_keys", 3);
        snap.push_gauge("pls_live_unfairness", 0.375);
        snap.push_gauge("pls_live_coverage", 1.0);
        snap.push_histogram("pls_client_probes_per_lookup", hist);
        roundtrip_resp(Response::Metrics(snap));
    }

    #[test]
    fn metrics_gauges_roundtrip_exact_bits() {
        // Gauges travel as raw IEEE-754 bits, so even awkward values
        // (subnormals, negative zero) survive the wire untouched.
        let mut snap = MetricsSnapshot::new();
        snap.push_gauge("g_tiny", f64::MIN_POSITIVE / 2.0);
        snap.push_gauge("g_negzero", -0.0);
        snap.push_gauge("g_third", 1.0 / 3.0);
        let decoded = match Response::decode(&Response::Metrics(snap.clone()).encode()).unwrap() {
            Response::Metrics(s) => s,
            other => panic!("unexpected response {other:?}"),
        };
        for (name, value) in &snap.gauges {
            assert_eq!(
                decoded.gauge(name).unwrap().to_bits(),
                value.to_bits(),
                "gauge {name} changed on the wire"
            );
        }
    }

    #[test]
    fn metrics_reset_flag_is_validated() {
        let mut w = Writer::new();
        w.u8(REQ_METRICS).u8(7);
        assert!(Request::decode(&w.into_payload()).is_err());
    }

    #[test]
    fn junk_is_rejected_not_panicking() {
        assert!(Request::decode(&[0x77]).is_err());
        assert!(Response::decode(&[]).is_err());
        // Truncated internal message.
        let mut w = Writer::new();
        w.u8(REQ_INTERNAL).u32(1).bytes(b"k").u8(SPEC_NONE).u8(MSG_RR_STORE).u64(3);
        assert!(Request::decode(&w.into_payload()).is_err());
    }

    /// Fewer than `below` random bytes.
    fn random_bytes(rng: &mut DetRng, below: usize) -> Vec<u8> {
        (0..rng.below(below)).map(|_| rng.next_u64() as u8).collect()
    }

    /// Arbitrary byte payloads never panic the decoder.
    #[test]
    fn decoder_is_total() {
        for case in 0..256u64 {
            let data = random_bytes(&mut DetRng::seed_from(0xDEC0_DE00 ^ case), 256);
            let decoded = std::panic::catch_unwind(|| {
                let _ = Request::decode(&data);
                let _ = Response::decode(&data);
            });
            assert!(decoded.is_ok(), "case {case}: a decoder panicked on {data:?}");
        }
    }

    /// Arbitrary probe/add requests roundtrip.
    #[test]
    fn fuzz_roundtrip() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from(0x0F02_2000 ^ case);
            let key = random_bytes(&mut rng, 32);
            let entry = random_bytes(&mut rng, 32);
            let t = rng.next_u64() as u32;
            for req in [Request::Probe { key: key.clone(), t }, Request::Add { key, entry }] {
                let decoded = Request::decode(&req.encode());
                assert_eq!(decoded.as_ref().ok(), Some(&req), "case {case}: {decoded:?}");
            }
        }
    }
}
