//! The wire protocol of the distributed backend: length-prefixed,
//! checksummed frames carrying one `put` message, one `if‥at‥`
//! broadcast, or one acknowledgement between two ranks.
//!
//! This is the layer every transport speaks (see [`crate::transport`])
//! and the layer the reliable-delivery protocol reasons about. A frame
//! is a `u32` length prefix, a header, a payload and the FNV-1a trailer
//! of [`bsml_eval::bytes::seal`]; DESIGN.md §10 has the byte layout.
//! The decoder rejects — with a [`CodecError`], never a panic — every
//! malformed frame, and the reliable layer treats each rejection as a
//! lost frame, so corruption degrades into retransmission.
//!
//! The [`PortableValue`] codec here is also the one checkpoint frames
//! embed ([`crate::checkpoint`]) — one serialized form on the wire and
//! at rest.
//!
//! ```
//! use bsml_bsp::wire::{Frame, FramePayload};
//! use bsml_eval::PortableValue;
//!
//! let f = Frame {
//!     from: 2,
//!     superstep: 7,
//!     seq: 42,
//!     lamport: 19,
//!     payload: FramePayload::Put(PortableValue::Int(-3)),
//! };
//! assert_eq!(Frame::decode(&f.encode()), Ok(f));
//! ```

use std::io::{self, Read, Write};
use std::time::Duration;

use bsml_eval::bytes::{
    put_bytes, put_str, put_u32, put_u64, seal, unseal, ByteReader, CodecError,
};
use bsml_eval::{EvalError, PortableValue};
use bsml_obs::TimedFlightEvent;

use crate::faults::{Fault, FaultKind};

/// Serializes one [`PortableValue`] (the message codec of both wire
/// frames and checkpoint frames).
pub fn encode_value(out: &mut Vec<u8>, v: &PortableValue) {
    match v {
        PortableValue::Int(n) => {
            out.push(0);
            out.extend_from_slice(&n.to_le_bytes());
        }
        PortableValue::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        PortableValue::Unit => out.push(2),
        PortableValue::NoComm => out.push(3),
        PortableValue::Pair(a, b) => {
            out.push(4);
            encode_value(out, a);
            encode_value(out, b);
        }
        PortableValue::Inl(inner) => {
            out.push(5);
            encode_value(out, inner);
        }
        PortableValue::Inr(inner) => {
            out.push(6);
            encode_value(out, inner);
        }
        PortableValue::Nil => out.push(7),
        PortableValue::Cons(h, t) => {
            out.push(8);
            encode_value(out, h);
            encode_value(out, t);
        }
        PortableValue::Vector(vs) => {
            out.push(9);
            put_u64(out, vs.len() as u64);
            for c in vs {
                encode_value(out, c);
            }
        }
    }
}

/// Deserializes one [`PortableValue`].
///
/// # Errors
///
/// Any [`CodecError`] on truncated or malformed input — never a panic.
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<PortableValue, CodecError> {
    match r.u8()? {
        0 => Ok(PortableValue::Int(r.i64()?)),
        1 => Ok(PortableValue::Bool(r.u8()? != 0)),
        2 => Ok(PortableValue::Unit),
        3 => Ok(PortableValue::NoComm),
        4 => Ok(PortableValue::Pair(
            Box::new(decode_value(r)?),
            Box::new(decode_value(r)?),
        )),
        5 => Ok(PortableValue::Inl(Box::new(decode_value(r)?))),
        6 => Ok(PortableValue::Inr(Box::new(decode_value(r)?))),
        7 => Ok(PortableValue::Nil),
        8 => Ok(PortableValue::Cons(
            Box::new(decode_value(r)?),
            Box::new(decode_value(r)?),
        )),
        9 => {
            let n = r.count()?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode_value(r)?);
            }
            Ok(PortableValue::Vector(vs))
        }
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

/// What a frame carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramePayload {
    /// One `put` message (already serialized by the sender's local
    /// phase).
    Put(PortableValue),
    /// The broadcast boolean of an `if‥at‥`.
    IfAt(bool),
    /// An acknowledgement of the data frame with the same `seq` on the
    /// reverse link; `from` is the *acknowledging* rank.
    Ack,
}

const KIND_PUT: u8 = 0;
const KIND_IFAT: u8 = 1;
const KIND_ACK: u8 = 2;

/// The shortest well-formed data-plane frame: prefix, kind, from,
/// superstep, seq, lamport and trailer.
const FRAME_MIN_LEN: usize = 4 + 1 + 4 + 8 + 8 + 8 + 8;

/// Starts a `[u32 len][body][fnv]` frame — the layout data-plane
/// frames and control messages share. The prefix is patched by
/// [`seal_frame`].
fn begin_frame(capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    put_u32(&mut out, 0);
    out
}

/// Patches the length prefix (every byte after it, trailer included)
/// and seals the frame.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let len = u32::try_from(out.len() - 4 + 8).expect("frames fit in u32");
    out[..4].copy_from_slice(&len.to_le_bytes());
    seal(&mut out);
    out
}

/// Checks a frame's length prefix against the bytes present and its
/// trailer against its contents, and returns a reader over the body
/// between them.
fn open_frame(bytes: &[u8], min_len: usize) -> Result<ByteReader<'_>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let claimed = u64::from(r.u32()?);
    let actual = r.remaining() as u64;
    if claimed != actual {
        return Err(CodecError::LengthMismatch { claimed, actual });
    }
    if bytes.len() < min_len {
        return Err(CodecError::Truncated);
    }
    Ok(ByteReader::new(&unseal(bytes)?[4..]))
}

/// One unit of communication between two ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The sending rank.
    pub from: usize,
    /// The sender's superstep when the frame was built (diagnostic —
    /// delivery and duplicate suppression key on `seq`).
    pub superstep: u64,
    /// Per-(sender → receiver)-link sequence number. Data frames use
    /// the sender's counter for that link; an ack echoes the sequence
    /// number it acknowledges.
    pub seq: u64,
    /// The sender's Lamport clock when the frame was *stamped* (built).
    /// A retransmission reuses the original bytes — same stamp, same
    /// logical message — so cross-rank causality (every receive
    /// happens-after its send) is reconstructable from a trace of
    /// stamps alone (DESIGN.md §12).
    pub lamport: u64,
    /// The payload.
    pub payload: FramePayload,
}

impl Frame {
    /// Serializes the frame (layout: DESIGN.md §10).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = begin_frame(48);
        match &self.payload {
            FramePayload::Put(_) => out.push(KIND_PUT),
            FramePayload::IfAt(_) => out.push(KIND_IFAT),
            FramePayload::Ack => out.push(KIND_ACK),
        }
        put_u32(&mut out, u32::try_from(self.from).unwrap_or(u32::MAX));
        put_u64(&mut out, self.superstep);
        put_u64(&mut out, self.seq);
        put_u64(&mut out, self.lamport);
        match &self.payload {
            FramePayload::Put(v) => encode_value(&mut out, v),
            FramePayload::IfAt(b) => out.push(u8::from(*b)),
            FramePayload::Ack => {}
        }
        seal_frame(out)
    }

    /// Parses and verifies one frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; the caller treats the frame as lost (the
    /// sender's retransmission repairs it).
    pub fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
        let mut r = open_frame(bytes, FRAME_MIN_LEN)?;
        let kind = r.u8()?;
        let from = r.u32()? as usize;
        let superstep = r.u64()?;
        let seq = r.u64()?;
        let lamport = r.u64()?;
        let payload = match kind {
            KIND_PUT => FramePayload::Put(decode_value(&mut r)?),
            KIND_IFAT => FramePayload::IfAt(r.u8()? != 0),
            KIND_ACK => FramePayload::Ack,
            tag => {
                return Err(CodecError::BadTag {
                    what: "frame kind",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(Frame {
            from,
            superstep,
            seq,
            lamport,
            payload,
        })
    }
}

// ---------------------------------------------------------------------------
// Control-plane messages of the multi-process backend (DESIGN.md §13).
// ---------------------------------------------------------------------------

/// Magic prefix of a control-stream [`CtlMsg::Hello`] (`"BSMLCTL1"`).
/// A connection that does not open with it is not a BSML rank.
pub const CTL_MAGIC: u64 = u64::from_le_bytes(*b"BSMLCTL1");

/// Version of the control protocol. A `Hello` carrying any other
/// version is rejected during the handshake — never negotiated.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one control frame (64 MiB). A stream reader rejects
/// a larger length prefix *before* allocating, so a corrupt or hostile
/// prefix cannot become a giant allocation.
pub const MAX_CTL_FRAME: usize = 1 << 26;

/// Per-rank communication totals shipped home in a [`CtlMsg::Done`] —
/// the process-mode mirror of the in-process backend's private
/// per-rank stats, so the parent can charge telemetry identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtlStats {
    /// Words this rank sent across all supersteps.
    pub sent_words: u64,
    /// Words this rank received.
    pub received_words: u64,
    /// Supersteps this rank completed.
    pub supersteps: u64,
    /// `put` operations performed.
    pub puts: u64,
    /// `if‥at‥` operations performed.
    pub ifats: u64,
}

/// A snapshot of one rank's fault ledger, shipped home in a
/// [`CtlMsg::Done`] or [`CtlMsg::Fatal`] so process-mode runs report
/// the same reliability counters (`net.frames_sent`, `net.retransmits`,
/// …) as in-process runs. Checkpoint counters are absent: in process
/// mode the *parent* stages and commits cuts, and counts them itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtlLedger {
    /// Plan faults this rank fired.
    pub faults_injected: u64,
    /// Barrier/exchange deadlines this rank hit.
    pub barrier_timeouts: u64,
    /// Frames handed to the transport (data + acks + retransmissions).
    pub frames_sent: u64,
    /// Retransmissions of unacked data frames.
    pub retransmits: u64,
    /// Received frames suppressed by sequence number.
    pub dups_dropped: u64,
    /// Received frames rejected by the wire decoder.
    pub corrupt_frames: u64,
    /// `try_send` refusals that made the sender drain and retry.
    pub backpressure_waits: u64,
    /// Plan-injected in-flight losses swallowed by the reliable layer.
    pub frames_lost: u64,
}

/// One message on a parent⇄child control stream.
///
/// The stream framing reuses the data-plane discipline: a `u32`
/// little-endian length prefix, a tagged body, and an FNV-1a trailer
/// over everything before it ([`write_ctl`] / [`read_ctl`]). Like
/// [`Frame::decode`], [`CtlMsg::decode`] rejects — never panics on —
/// truncation, length mismatches, checksum mismatches, unknown tags
/// and trailing garbage.
///
/// Direction conventions: `Hello`/`Data`/`ExchangeDone`/`BarrierEnter`
/// /`Fatal`/`Done`/`Pong`/`Rejoin` flow child → parent; `Welcome`/
/// `Reject`/`Deliver`/`ExchangeTotal`/`BarrierRelease`/`Ping`/
/// `RejoinOk` flow parent → child; `Poison` flows both ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtlMsg {
    /// First message on a new connection: the child identifies itself.
    /// The parent validates every field against what it expects from
    /// the rank it spawned and answers `Welcome` or `Reject`.
    Hello {
        /// Must be [`CTL_MAGIC`].
        magic: u64,
        /// Must be [`PROTOCOL_VERSION`].
        version: u32,
        /// The program fingerprint the child was told to expect
        /// (`checkpoint::program_fingerprint`).
        fingerprint: u64,
        /// The rank id the child was spawned as.
        rank: usize,
        /// The machine width the child was spawned for.
        p: usize,
    },
    /// The parent accepts the rank and ships it everything it needs to
    /// run: the program text and the full execution configuration.
    Welcome {
        /// The program, pretty-printed; the child re-parses it and
        /// verifies the fingerprint round-trips.
        program: String,
        /// Fuel for this rank's evaluator.
        fuel: u64,
        /// Barrier/exchange deadline in milliseconds; `0` = none.
        barrier_timeout_ms: u64,
        /// Reliable-exchange tuning: per-peer mailbox capacity.
        mailbox_capacity: u64,
        /// Polls before an unacked frame is retransmitted.
        retransmit_after: u64,
        /// Retransmissions allowed per exchange.
        retransmit_budget: u64,
        /// Idle-poll sleep in microseconds.
        poll_sleep_us: u64,
        /// Checkpoint every k supersteps; `0` = checkpointing off.
        checkpoint_interval: u64,
        /// Flight-recorder ring capacity; `0` = recorder off.
        flight_capacity: u64,
        /// Heartbeat (`Ping`) period in milliseconds.
        heartbeat_ms: u64,
        /// Grace window for healing a severed link before the rank is
        /// given up on, milliseconds.
        link_grace_ms: u64,
        /// Which attempt this is (faults arm per attempt).
        attempt: u32,
        /// The fault plan, so seeded chaos reproduces identically in
        /// process mode.
        faults: Vec<Fault>,
        /// This rank's committed `RankFrame` bytes when resuming from
        /// a checkpoint; `None` on a cold start.
        resume_frame: Option<Vec<u8>>,
    },
    /// The parent refuses the connection (bad magic, version skew,
    /// fingerprint mismatch, duplicate or out-of-range rank).
    Reject {
        /// Human-readable refusal, surfaced in the child's error.
        reason: String,
    },
    /// Child → parent: route one data-plane [`Frame`] to `dst`.
    Data {
        /// Destination rank.
        dst: usize,
        /// The encoded frame, shipped opaquely.
        frame: Vec<u8>,
    },
    /// Parent → child: a routed data-plane frame for this rank.
    Deliver {
        /// The encoded frame.
        frame: Vec<u8>,
    },
    /// Child → parent: this rank finished draining an exchange (the
    /// socket-mode carrier of the in-process `exchanges_done` counter).
    ExchangeDone,
    /// Parent → child: the global count of finished exchange phases.
    ExchangeTotal {
        /// Total `ExchangeDone`s the parent has seen.
        total: u64,
    },
    /// Child → parent: this rank reached the superstep exit barrier.
    BarrierEnter {
        /// The superstep being exited.
        superstep: u64,
        /// The `RankFrame` bytes this rank staged at this barrier, if
        /// checkpointing is on and the interval divides the count.
        staged: Option<Vec<u8>>,
    },
    /// Parent → child: all `p` ranks entered; proceed.
    BarrierRelease {
        /// The superstep being released.
        superstep: u64,
    },
    /// Either direction: the run is dead; stop waiting and unwind.
    Poison,
    /// Child → parent: this rank failed. Carries the structured error
    /// plus the ledger and flight-recorder tail so postmortems survive
    /// the process boundary.
    Fatal {
        /// The rank's structured error.
        error: EvalError,
        /// Final reliability counters.
        ledger: CtlLedger,
        /// Events the bounded recorder discarded.
        flight_dropped: u64,
        /// The recorded tail, oldest first.
        flight: Vec<TimedFlightEvent>,
    },
    /// Child → parent: this rank finished.
    Done {
        /// The rank's local result (already portable).
        value: PortableValue,
        /// Communication totals for telemetry.
        stats: CtlStats,
        /// Fuel consumed.
        work: u64,
        /// Final reliability counters.
        ledger: CtlLedger,
        /// Events the bounded recorder discarded.
        flight_dropped: u64,
        /// The recorded tail, oldest first.
        flight: Vec<TimedFlightEvent>,
    },
    /// Parent → child: an application-level heartbeat. The child
    /// answers `Pong` even while its driver is parked at a barrier,
    /// so a live-but-idle rank is distinguishable from a partitioned
    /// one in bounded time.
    Ping {
        /// The parent's Lamport clock at the send.
        lamport: u64,
    },
    /// Child → parent: the heartbeat answer.
    Pong {
        /// The child's Lamport clock at the send.
        lamport: u64,
    },
    /// Child → parent, first message on a *re*-connection: the rank
    /// lost its control stream but its process (and in-memory state)
    /// survived, and it wants the link healed rather than the fleet
    /// respawned. The parent validates the identity fields against the
    /// original handshake and answers `RejoinOk` or `Reject`.
    Rejoin {
        /// The rank id reconnecting.
        rank: usize,
        /// The program fingerprint it was welcomed under.
        fingerprint: u64,
        /// Supersteps this rank has completed (barrier releases seen).
        completed_superstep: u64,
        /// Count of session frames this rank had *received* on the old
        /// stream — the parent replays its egress buffer from here.
        resume_token: u64,
    },
    /// Parent → child: the rejoin is accepted. Frames the child sent
    /// but the parent never received follow `resume_token` in the
    /// other direction: the child replays its own egress buffer from
    /// the parent's count.
    RejoinOk {
        /// Count of session frames the parent had received from this
        /// rank on the old stream.
        resume_token: u64,
    },
}

const CTL_HELLO: u8 = 0;
const CTL_WELCOME: u8 = 1;
const CTL_REJECT: u8 = 2;
const CTL_DATA: u8 = 3;
const CTL_DELIVER: u8 = 4;
const CTL_EXCHANGE_DONE: u8 = 5;
const CTL_EXCHANGE_TOTAL: u8 = 6;
const CTL_BARRIER_ENTER: u8 = 7;
const CTL_BARRIER_RELEASE: u8 = 8;
const CTL_POISON: u8 = 9;
const CTL_FATAL: u8 = 10;
const CTL_DONE: u8 = 11;
const CTL_PING: u8 = 12;
const CTL_PONG: u8 = 13;
const CTL_REJOIN: u8 = 14;
const CTL_REJOIN_OK: u8 = 15;

/// The shortest well-formed control message: prefix, tag and trailer.
const CTL_MIN_LEN: usize = 4 + 1 + 8;

// Errors cross the process boundary structurally: every variant the
// distributed runtime can actually produce has a precise tag, so the
// parent's supervisor sees the *same* error it would have seen from an
// in-process rank (its recovery ladder keys on variants like
// `CheckpointDiverged`). Program-level errors that embed unserializable
// structure fall back to their rendered form — sound, because the
// supervisor's oracle pre-filters deterministic program errors before
// any distributed attempt.
const ERR_PEER_FAILURE: u8 = 0;
const ERR_OUT_OF_FUEL: u8 = 1;
const ERR_BARRIER_TIMEOUT: u8 = 2;
const ERR_INJECTED_FAULT: u8 = 3;
const ERR_TRANSPORT_FAILURE: u8 = 4;
const ERR_CHECKPOINT_DIVERGED: u8 = 5;
const ERR_NOT_SERIALIZABLE: u8 = 6;
const ERR_DIVISION_BY_ZERO: u8 = 7;
const ERR_RECURSION_LIMIT: u8 = 8;
const ERR_NESTED_PARALLELISM: u8 = 9;
const ERR_RENDERED: u8 = 10;

fn encode_error(out: &mut Vec<u8>, err: &EvalError) {
    match err {
        EvalError::PeerFailure => out.push(ERR_PEER_FAILURE),
        EvalError::OutOfFuel => out.push(ERR_OUT_OF_FUEL),
        EvalError::BarrierTimeout { superstep, waiting } => {
            out.push(ERR_BARRIER_TIMEOUT);
            put_u64(out, *superstep);
            put_u64(out, *waiting as u64);
        }
        EvalError::InjectedFault { rank, superstep } => {
            out.push(ERR_INJECTED_FAULT);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
        }
        EvalError::TransportFailure {
            rank,
            superstep,
            detail,
        } => {
            out.push(ERR_TRANSPORT_FAILURE);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_str(out, detail);
        }
        EvalError::CheckpointDiverged {
            rank,
            superstep,
            detail,
        } => {
            out.push(ERR_CHECKPOINT_DIVERGED);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_str(out, detail);
        }
        EvalError::NotSerializable(what) => {
            out.push(ERR_NOT_SERIALIZABLE);
            put_str(out, what);
        }
        EvalError::DivisionByZero => out.push(ERR_DIVISION_BY_ZERO),
        EvalError::RecursionLimit => out.push(ERR_RECURSION_LIMIT),
        EvalError::NestedParallelism => out.push(ERR_NESTED_PARALLELISM),
        other => {
            out.push(ERR_RENDERED);
            put_str(out, &other.to_string());
        }
    }
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<EvalError, CodecError> {
    match r.u8()? {
        ERR_PEER_FAILURE => Ok(EvalError::PeerFailure),
        ERR_OUT_OF_FUEL => Ok(EvalError::OutOfFuel),
        ERR_BARRIER_TIMEOUT => Ok(EvalError::BarrierTimeout {
            superstep: r.u64()?,
            waiting: r.u64()? as usize,
        }),
        ERR_INJECTED_FAULT => Ok(EvalError::InjectedFault {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        }),
        ERR_TRANSPORT_FAILURE => Ok(EvalError::TransportFailure {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            detail: r.str()?,
        }),
        ERR_CHECKPOINT_DIVERGED => Ok(EvalError::CheckpointDiverged {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            detail: r.str()?,
        }),
        ERR_NOT_SERIALIZABLE => Ok(EvalError::NotSerializable(r.str()?)),
        ERR_DIVISION_BY_ZERO => Ok(EvalError::DivisionByZero),
        ERR_RECURSION_LIMIT => Ok(EvalError::RecursionLimit),
        ERR_NESTED_PARALLELISM => Ok(EvalError::NestedParallelism),
        ERR_RENDERED => Ok(EvalError::ScrutineeMismatch("remote rank", r.str()?)),
        tag => Err(CodecError::BadTag { what: "error", tag }),
    }
}

fn encode_fault(out: &mut Vec<u8>, f: &Fault) {
    out.push(f.kind.code() as u8);
    match &f.kind {
        FaultKind::Crash { rank, superstep } | FaultKind::Panic { rank, superstep } => {
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
        }
        FaultKind::DropMessage {
            from,
            to,
            superstep,
        } => {
            put_u64(out, *from as u64);
            put_u64(out, *to as u64);
            put_u64(out, *superstep);
        }
        FaultKind::Stall {
            rank,
            superstep,
            delay,
        } => {
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_u64(out, u64::try_from(delay.as_millis()).unwrap_or(u64::MAX));
        }
    }
    put_u32(out, f.attempt);
}

fn decode_fault(r: &mut ByteReader<'_>) -> Result<Fault, CodecError> {
    let kind = match r.u8()? {
        0 => FaultKind::Crash {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        },
        1 => FaultKind::Panic {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        },
        2 => FaultKind::DropMessage {
            from: r.u64()? as usize,
            to: r.u64()? as usize,
            superstep: r.u64()?,
        },
        3 => FaultKind::Stall {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            delay: Duration::from_millis(r.u64()?),
        },
        tag => return Err(CodecError::BadTag { what: "fault", tag }),
    };
    Ok(Fault {
        kind,
        attempt: r.u32()?,
    })
}

fn encode_ledger(out: &mut Vec<u8>, l: &CtlLedger) {
    for v in [
        l.faults_injected,
        l.barrier_timeouts,
        l.frames_sent,
        l.retransmits,
        l.dups_dropped,
        l.corrupt_frames,
        l.backpressure_waits,
        l.frames_lost,
    ] {
        put_u64(out, v);
    }
}

fn decode_ledger(r: &mut ByteReader<'_>) -> Result<CtlLedger, CodecError> {
    Ok(CtlLedger {
        faults_injected: r.u64()?,
        barrier_timeouts: r.u64()?,
        frames_sent: r.u64()?,
        retransmits: r.u64()?,
        dups_dropped: r.u64()?,
        corrupt_frames: r.u64()?,
        backpressure_waits: r.u64()?,
        frames_lost: r.u64()?,
    })
}

fn encode_flight(out: &mut Vec<u8>, events: &[TimedFlightEvent]) {
    put_u64(out, events.len() as u64);
    for ev in events {
        crate::postmortem::encode_event(out, ev);
    }
}

fn decode_flight(r: &mut ByteReader<'_>) -> Result<Vec<TimedFlightEvent>, CodecError> {
    let n = r.count()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(crate::postmortem::decode_event(r)?);
    }
    Ok(events)
}

impl CtlMsg {
    /// A well-formed `Hello` for `rank` of `p` under `fingerprint`.
    #[must_use]
    pub fn hello(fingerprint: u64, rank: usize, p: usize) -> CtlMsg {
        CtlMsg::Hello {
            magic: CTL_MAGIC,
            version: PROTOCOL_VERSION,
            fingerprint,
            rank,
            p,
        }
    }

    /// Serializes the message: `u32` length prefix, tagged body,
    /// FNV-1a trailer over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = begin_frame(64);
        match self {
            CtlMsg::Hello {
                magic,
                version,
                fingerprint,
                rank,
                p,
            } => {
                out.push(CTL_HELLO);
                put_u64(&mut out, *magic);
                put_u32(&mut out, *version);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *rank as u64);
                put_u64(&mut out, *p as u64);
            }
            CtlMsg::Welcome {
                program,
                fuel,
                barrier_timeout_ms,
                mailbox_capacity,
                retransmit_after,
                retransmit_budget,
                poll_sleep_us,
                checkpoint_interval,
                flight_capacity,
                heartbeat_ms,
                link_grace_ms,
                attempt,
                faults,
                resume_frame,
            } => {
                out.push(CTL_WELCOME);
                put_str(&mut out, program);
                for v in [
                    *fuel,
                    *barrier_timeout_ms,
                    *mailbox_capacity,
                    *retransmit_after,
                    *retransmit_budget,
                    *poll_sleep_us,
                    *checkpoint_interval,
                    *flight_capacity,
                    *heartbeat_ms,
                    *link_grace_ms,
                ] {
                    put_u64(&mut out, v);
                }
                put_u32(&mut out, *attempt);
                put_u64(&mut out, faults.len() as u64);
                for f in faults {
                    encode_fault(&mut out, f);
                }
                match resume_frame {
                    None => out.push(0),
                    Some(bytes) => {
                        out.push(1);
                        put_bytes(&mut out, bytes);
                    }
                }
            }
            CtlMsg::Reject { reason } => {
                out.push(CTL_REJECT);
                put_str(&mut out, reason);
            }
            CtlMsg::Data { dst, frame } => {
                out.push(CTL_DATA);
                put_u64(&mut out, *dst as u64);
                put_bytes(&mut out, frame);
            }
            CtlMsg::Deliver { frame } => {
                out.push(CTL_DELIVER);
                put_bytes(&mut out, frame);
            }
            CtlMsg::ExchangeDone => out.push(CTL_EXCHANGE_DONE),
            CtlMsg::ExchangeTotal { total } => {
                out.push(CTL_EXCHANGE_TOTAL);
                put_u64(&mut out, *total);
            }
            CtlMsg::BarrierEnter { superstep, staged } => {
                out.push(CTL_BARRIER_ENTER);
                put_u64(&mut out, *superstep);
                match staged {
                    None => out.push(0),
                    Some(bytes) => {
                        out.push(1);
                        put_bytes(&mut out, bytes);
                    }
                }
            }
            CtlMsg::BarrierRelease { superstep } => {
                out.push(CTL_BARRIER_RELEASE);
                put_u64(&mut out, *superstep);
            }
            CtlMsg::Poison => out.push(CTL_POISON),
            CtlMsg::Fatal {
                error,
                ledger,
                flight_dropped,
                flight,
            } => {
                out.push(CTL_FATAL);
                encode_error(&mut out, error);
                encode_ledger(&mut out, ledger);
                put_u64(&mut out, *flight_dropped);
                encode_flight(&mut out, flight);
            }
            CtlMsg::Done {
                value,
                stats,
                work,
                ledger,
                flight_dropped,
                flight,
            } => {
                out.push(CTL_DONE);
                encode_value(&mut out, value);
                for v in [
                    stats.sent_words,
                    stats.received_words,
                    stats.supersteps,
                    stats.puts,
                    stats.ifats,
                ] {
                    put_u64(&mut out, v);
                }
                put_u64(&mut out, *work);
                encode_ledger(&mut out, ledger);
                put_u64(&mut out, *flight_dropped);
                encode_flight(&mut out, flight);
            }
            CtlMsg::Ping { lamport } => {
                out.push(CTL_PING);
                put_u64(&mut out, *lamport);
            }
            CtlMsg::Pong { lamport } => {
                out.push(CTL_PONG);
                put_u64(&mut out, *lamport);
            }
            CtlMsg::Rejoin {
                rank,
                fingerprint,
                completed_superstep,
                resume_token,
            } => {
                out.push(CTL_REJOIN);
                put_u64(&mut out, *rank as u64);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *completed_superstep);
                put_u64(&mut out, *resume_token);
            }
            CtlMsg::RejoinOk { resume_token } => {
                out.push(CTL_REJOIN_OK);
                put_u64(&mut out, *resume_token);
            }
        }
        seal_frame(out)
    }

    /// Parses and verifies one control message.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] — truncation, length-prefix or checksum
    /// mismatch, unknown tags, non-UTF-8 strings, trailing garbage.
    /// Never panics.
    pub fn decode(bytes: &[u8]) -> Result<CtlMsg, CodecError> {
        let mut r = open_frame(bytes, CTL_MIN_LEN)?;
        let msg = match r.u8()? {
            CTL_HELLO => CtlMsg::Hello {
                magic: r.u64()?,
                version: r.u32()?,
                fingerprint: r.u64()?,
                rank: r.u64()? as usize,
                p: r.u64()? as usize,
            },
            CTL_WELCOME => {
                let program = r.str()?;
                let fuel = r.u64()?;
                let barrier_timeout_ms = r.u64()?;
                let mailbox_capacity = r.u64()?;
                let retransmit_after = r.u64()?;
                let retransmit_budget = r.u64()?;
                let poll_sleep_us = r.u64()?;
                let checkpoint_interval = r.u64()?;
                let flight_capacity = r.u64()?;
                let heartbeat_ms = r.u64()?;
                let link_grace_ms = r.u64()?;
                let attempt = r.u32()?;
                let n = r.count()?;
                let mut faults = Vec::with_capacity(n);
                for _ in 0..n {
                    faults.push(decode_fault(&mut r)?);
                }
                let resume_frame = match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?.to_vec()),
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "option",
                            tag,
                        })
                    }
                };
                CtlMsg::Welcome {
                    program,
                    fuel,
                    barrier_timeout_ms,
                    mailbox_capacity,
                    retransmit_after,
                    retransmit_budget,
                    poll_sleep_us,
                    checkpoint_interval,
                    flight_capacity,
                    heartbeat_ms,
                    link_grace_ms,
                    attempt,
                    faults,
                    resume_frame,
                }
            }
            CTL_REJECT => CtlMsg::Reject { reason: r.str()? },
            CTL_DATA => CtlMsg::Data {
                dst: r.u64()? as usize,
                frame: r.bytes()?.to_vec(),
            },
            CTL_DELIVER => CtlMsg::Deliver {
                frame: r.bytes()?.to_vec(),
            },
            CTL_EXCHANGE_DONE => CtlMsg::ExchangeDone,
            CTL_EXCHANGE_TOTAL => CtlMsg::ExchangeTotal { total: r.u64()? },
            CTL_BARRIER_ENTER => CtlMsg::BarrierEnter {
                superstep: r.u64()?,
                staged: match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?.to_vec()),
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "option",
                            tag,
                        })
                    }
                },
            },
            CTL_BARRIER_RELEASE => CtlMsg::BarrierRelease {
                superstep: r.u64()?,
            },
            CTL_POISON => CtlMsg::Poison,
            CTL_FATAL => CtlMsg::Fatal {
                error: decode_error(&mut r)?,
                ledger: decode_ledger(&mut r)?,
                flight_dropped: r.u64()?,
                flight: decode_flight(&mut r)?,
            },
            CTL_DONE => CtlMsg::Done {
                value: decode_value(&mut r)?,
                stats: CtlStats {
                    sent_words: r.u64()?,
                    received_words: r.u64()?,
                    supersteps: r.u64()?,
                    puts: r.u64()?,
                    ifats: r.u64()?,
                },
                work: r.u64()?,
                ledger: decode_ledger(&mut r)?,
                flight_dropped: r.u64()?,
                flight: decode_flight(&mut r)?,
            },
            CTL_PING => CtlMsg::Ping { lamport: r.u64()? },
            CTL_PONG => CtlMsg::Pong { lamport: r.u64()? },
            CTL_REJOIN => CtlMsg::Rejoin {
                rank: r.u64()? as usize,
                fingerprint: r.u64()?,
                completed_superstep: r.u64()?,
                resume_token: r.u64()?,
            },
            CTL_REJOIN_OK => CtlMsg::RejoinOk {
                resume_token: r.u64()?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "control message",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes one control message to a stream (partial writes are retried
/// by `write_all`).
///
/// # Errors
///
/// Propagates the underlying I/O error — `EPIPE` included; the caller
/// maps stream failures to `TransportFailure`.
pub fn write_ctl<W: Write>(w: &mut W, msg: &CtlMsg) -> io::Result<()> {
    w.write_all(&msg.encode())
}

/// Reads one control message from a stream. Partial reads are
/// absorbed by `read_exact` loops; frames split at arbitrary byte
/// boundaries across `read` calls reassemble exactly.
///
/// # Errors
///
/// `UnexpectedEof` when the stream ends mid-frame (a clean EOF before
/// any prefix byte also surfaces as `UnexpectedEof`), `InvalidData`
/// when the frame is oversized or fails [`CtlMsg::decode`], and any
/// underlying I/O error otherwise.
pub fn read_ctl<R: Read>(r: &mut R) -> io::Result<CtlMsg> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_CTL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} byte(s) exceeds the {MAX_CTL_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut bytes = Vec::with_capacity(4 + len);
    bytes.extend_from_slice(&prefix);
    bytes.extend_from_slice(&body);
    CtlMsg::decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            from: 3,
            superstep: 11,
            seq: 207,
            lamport: 1009,
            payload: FramePayload::Put(PortableValue::Pair(
                Box::new(PortableValue::Int(-42)),
                Box::new(PortableValue::Cons(
                    Box::new(PortableValue::NoComm),
                    Box::new(PortableValue::Nil),
                )),
            )),
        }
    }

    #[test]
    fn frames_roundtrip() {
        for f in [
            sample(),
            Frame {
                from: 0,
                superstep: 0,
                seq: 0,
                lamport: 0,
                payload: FramePayload::IfAt(true),
            },
            Frame {
                from: 15,
                superstep: u64::MAX,
                seq: u64::MAX,
                lamport: u64::MAX,
                payload: FramePayload::Ack,
            },
        ] {
            assert_eq!(Frame::decode(&f.encode()), Ok(f));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let f = sample();
        let bytes = f.encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Frame::decode(&corrupt).is_err(),
                    "flip of bit {bit} at byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        // The length prefix no longer matches.
        assert!(matches!(
            Frame::decode(&bytes),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn count_overflow_does_not_allocate() {
        // A Vector claiming u64::MAX components must be rejected by
        // the count guard, not by the allocator.
        let f = Frame {
            from: 1,
            superstep: 0,
            seq: 0,
            lamport: 0,
            payload: FramePayload::Put(PortableValue::Vector(vec![PortableValue::Unit])),
        };
        let mut bytes = f.encode();
        // The vector count sits after prefix(4) + kind(1) + from(4) +
        // superstep(8) + seq(8) + lamport(8) + value tag(1).
        let at = 4 + 1 + 4 + 8 + 8 + 8 + 1;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // Re-seal the checksum so the corruption reaches the decoder.
        bytes.truncate(bytes.len() - 8);
        seal(&mut bytes);
        assert_eq!(Frame::decode(&bytes), Err(CodecError::BadCount));
    }

    fn sample_ctl_msgs() -> Vec<CtlMsg> {
        use bsml_obs::FlightEvent;
        vec![
            CtlMsg::hello(0xdead_beef, 3, 8),
            CtlMsg::Welcome {
                program: "put (mkpar (fun i -> fun d -> i))".to_string(),
                fuel: 1_000_000,
                barrier_timeout_ms: 30_000,
                mailbox_capacity: 256,
                retransmit_after: 25,
                retransmit_budget: 600,
                poll_sleep_us: 100,
                checkpoint_interval: 2,
                flight_capacity: 4096,
                heartbeat_ms: 500,
                link_grace_ms: 5000,
                attempt: 1,
                faults: vec![
                    Fault {
                        kind: FaultKind::Crash {
                            rank: 1,
                            superstep: 3,
                        },
                        attempt: 0,
                    },
                    Fault {
                        kind: FaultKind::Stall {
                            rank: 0,
                            superstep: 2,
                            delay: Duration::from_millis(7),
                        },
                        attempt: 2,
                    },
                    Fault {
                        kind: FaultKind::DropMessage {
                            from: 2,
                            to: 0,
                            superstep: 1,
                        },
                        attempt: 0,
                    },
                ],
                resume_frame: Some(vec![1, 2, 3, 4]),
            },
            CtlMsg::Reject {
                reason: "program fingerprint mismatch".to_string(),
            },
            CtlMsg::Data {
                dst: 5,
                frame: sample().encode(),
            },
            CtlMsg::Deliver {
                frame: sample().encode(),
            },
            CtlMsg::ExchangeDone,
            CtlMsg::ExchangeTotal { total: 42 },
            CtlMsg::BarrierEnter {
                superstep: 9,
                staged: Some(vec![9, 9, 9]),
            },
            CtlMsg::BarrierRelease { superstep: 9 },
            CtlMsg::Poison,
            CtlMsg::Fatal {
                error: EvalError::TransportFailure {
                    rank: 2,
                    superstep: 4,
                    detail: "socket closed".to_string(),
                },
                ledger: CtlLedger {
                    faults_injected: 1,
                    frames_sent: 12,
                    ..CtlLedger::default()
                },
                flight_dropped: 3,
                flight: vec![TimedFlightEvent {
                    lamport: 17,
                    event: FlightEvent::BarrierEnter { superstep: 4 },
                }],
            },
            CtlMsg::Done {
                value: PortableValue::Pair(
                    Box::new(PortableValue::Int(-7)),
                    Box::new(PortableValue::Bool(true)),
                ),
                stats: CtlStats {
                    sent_words: 10,
                    received_words: 10,
                    supersteps: 5,
                    puts: 5,
                    ifats: 0,
                },
                work: 12_345,
                ledger: CtlLedger::default(),
                flight_dropped: 0,
                flight: vec![],
            },
            CtlMsg::Ping { lamport: 99 },
            CtlMsg::Pong { lamport: 100 },
            CtlMsg::Rejoin {
                rank: 3,
                fingerprint: 0xdead_beef,
                completed_superstep: 7,
                resume_token: 31,
            },
            CtlMsg::RejoinOk { resume_token: 28 },
        ]
    }

    #[test]
    fn ctl_messages_roundtrip() {
        for msg in sample_ctl_msgs() {
            assert_eq!(CtlMsg::decode(&msg.encode()), Ok(msg));
        }
    }

    #[test]
    fn every_ctl_truncation_is_rejected() {
        for msg in sample_ctl_msgs() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    CtlMsg::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn every_ctl_bit_flip_is_rejected() {
        // One representative per direction keeps the quadratic scan
        // affordable; the checksum argument is the same for all tags.
        for msg in [CtlMsg::hello(7, 0, 4), CtlMsg::ExchangeTotal { total: 9 }] {
            let bytes = msg.encode();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= 1 << bit;
                    assert!(
                        CtlMsg::decode(&corrupt).is_err(),
                        "flip of bit {bit} at byte {i} went unnoticed"
                    );
                }
            }
        }
    }

    #[test]
    fn non_utf8_ctl_string_is_a_typed_error() {
        // A correctly sealed Reject whose reason is not UTF-8 must be
        // refused, not decoded lossily.
        let mut bytes = CtlMsg::Reject {
            reason: "ok".to_string(),
        }
        .encode();
        // prefix(4) + tag(1) + string length(8), then the two bytes.
        bytes[13..15].copy_from_slice(&[0xff, 0xfe]);
        bytes.truncate(bytes.len() - 8);
        seal(&mut bytes);
        assert_eq!(CtlMsg::decode(&bytes), Err(CodecError::BadUtf8));
    }

    #[test]
    fn remote_errors_roundtrip_structurally() {
        let precise = [
            EvalError::PeerFailure,
            EvalError::OutOfFuel,
            EvalError::BarrierTimeout {
                superstep: 3,
                waiting: 2,
            },
            EvalError::InjectedFault {
                rank: 1,
                superstep: 2,
            },
            EvalError::TransportFailure {
                rank: 0,
                superstep: 5,
                detail: "EOF".to_string(),
            },
            EvalError::CheckpointDiverged {
                rank: 2,
                superstep: 4,
                detail: "value mismatch".to_string(),
            },
            EvalError::NotSerializable("<fun>".to_string()),
            EvalError::DivisionByZero,
            EvalError::RecursionLimit,
            EvalError::NestedParallelism,
        ];
        for err in precise {
            let mut out = Vec::new();
            encode_error(&mut out, &err);
            assert_eq!(decode_error(&mut ByteReader::new(&out)), Ok(err));
        }
        // Everything else degrades to its rendered form, never panics.
        let odd = EvalError::Unbound(bsml_ast::Ident::new("x"));
        let mut out = Vec::new();
        encode_error(&mut out, &odd);
        assert_eq!(
            decode_error(&mut ByteReader::new(&out)),
            Ok(EvalError::ScrutineeMismatch("remote rank", odd.to_string()))
        );
    }

    #[test]
    fn ctl_stream_reassembles_across_arbitrary_splits() {
        // A reader that returns ONE byte per `read` call: the worst
        // possible fragmentation a socket can produce. `read_ctl` must
        // reassemble the frame exactly.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.split_first() {
                    Some((b, rest)) => {
                        buf[0] = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        for msg in sample_ctl_msgs() {
            let bytes = msg.encode();
            let mut stream = OneByte(&bytes);
            assert_eq!(read_ctl(&mut stream).unwrap(), msg);
        }
        // A stream that dies mid-frame surfaces as UnexpectedEof.
        let bytes = CtlMsg::Poison.encode();
        let mut short = OneByte(&bytes[..bytes.len() - 1]);
        let err = read_ctl(&mut short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_ctl_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        let err = read_ctl(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
