//! The message-passing substrate of the distributed backend: per-rank
//! mailboxes behind a small [`Transport`] trait, with two
//! implementations.
//!
//! * [`SharedMem`] — the fast path: bounded in-process queues that
//!   never lose, reorder, duplicate, or corrupt a frame. The default.
//! * [`LossyNet`] — a simulated unreliable network that drops,
//!   reorders, duplicates, delays, and bit-corrupts frames under a
//!   seeded SplitMix64 schedule, for chaos-testing the reliable
//!   delivery protocol that [`crate::distributed`] builds on top
//!   (acks, retransmission, duplicate suppression — DESIGN.md §10).
//!
//! A transport moves opaque *bytes*; framing, checksums, and
//! sequencing belong to [`crate::wire`] and the exchange loop. This
//! split is what a later real-network backend (sockets, multi-process
//! ranks) plugs into: implement these three methods and the whole
//! reliable-delivery layer comes for free.
//!
//! Every mailbox is bounded ([`NetTuning::mailbox_capacity`]):
//! [`Transport::try_send`] refuses rather than queues unboundedly, and
//! the caller is expected to drain its *own* mailbox while retrying —
//! the backpressure discipline that keeps a fast sender from overrunning
//! a stalled peer without ever deadlocking.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::faults::SplitMix64;

/// Locks a mutex, recovering from a peer's panic (the protected data
/// are plain queues/counters, valid regardless).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A point-to-point byte-frame carrier between `p` ranks.
///
/// Implementations may drop, reorder, duplicate, delay, or corrupt
/// frames — the reliable layer above repairs all of that — but must
/// never *invent* bytes that pass a [`crate::wire::Frame`] checksum,
/// and must be safe to call concurrently from all ranks.
pub trait Transport: fmt::Debug + Send + Sync {
    /// Offers one frame to `dst`'s mailbox. Returns `false` when the
    /// mailbox is full (backpressure): the caller should drain its own
    /// mailbox and retry. A `true` from an unreliable transport means
    /// "accepted", not "delivered".
    fn try_send(&self, src: usize, dst: usize, bytes: &[u8]) -> bool;

    /// Pops the next frame from `rank`'s mailbox, if any.
    fn recv(&self, rank: usize) -> Option<Vec<u8>>;

    /// Whether the substrate can never lose, corrupt, or duplicate an
    /// accepted frame. On lossless transports the reliable layer
    /// disables its retransmission timer: an unacked frame there means
    /// a peer that has not arrived yet, never a lost one.
    fn is_lossless(&self) -> bool;

    /// Frames the substrate deliberately discarded so far (lossy
    /// transports only).
    fn injected_drops(&self) -> u64 {
        0
    }

    /// Frames the substrate deliberately bit-flipped so far.
    fn injected_corruptions(&self) -> u64 {
        0
    }

    /// Extra copies the substrate deliberately enqueued so far.
    fn injected_duplicates(&self) -> u64 {
        0
    }
}

/// Tuning knobs of the reliable exchange loop (DESIGN.md §10). The
/// defaults suit in-process testing; they are deliberately orthogonal
/// to [`TransportConfig`] so the same tuning applies to any substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetTuning {
    /// Frames one mailbox holds before `try_send` refuses
    /// (backpressure).
    pub mailbox_capacity: usize,
    /// Idle polls (loop iterations that received nothing) before an
    /// unacked frame is retransmitted. Only consulted on lossy
    /// transports.
    pub retransmit_after: u32,
    /// Retransmissions of one frame before the exchange gives up with
    /// [`bsml_eval::EvalError::TransportFailure`]. The tolerated
    /// unacked silence is roughly `retransmit_after ·
    /// retransmit_budget · poll_sleep`, so keep the product well above
    /// the expected compute skew between ranks.
    pub retransmit_budget: u32,
    /// How long an idle poll sleeps (through the machine's injectable
    /// [`crate::supervisor::Sleeper`], so tests can virtualize it).
    pub poll_sleep: Duration,
}

impl Default for NetTuning {
    fn default() -> NetTuning {
        NetTuning {
            mailbox_capacity: 256,
            retransmit_after: 25,
            retransmit_budget: 600,
            poll_sleep: Duration::from_micros(100),
        }
    }
}

/// Which substrate a [`crate::DistMachine`] exchanges frames over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TransportConfig {
    /// Reliable in-process queues (the default).
    #[default]
    SharedMem,
    /// The seeded unreliable network simulator.
    Lossy(LossyConfig),
}

/// The perturbation schedule of a [`LossyNet`], in permille (so 200 =
/// 20%, the ceiling the chaos suites sweep to). All rates default to
/// zero; a `LossyConfig` with all-zero rates behaves like
/// [`SharedMem`] but still exercises the ack machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LossyConfig {
    /// Seed of the per-link SplitMix64 schedules.
    pub seed: u64,
    /// Probability (‰) that an offered frame is silently discarded.
    pub drop_permille: u16,
    /// Probability (‰) that a frame is inserted at a random queue
    /// position instead of the back.
    pub reorder_permille: u16,
    /// Probability (‰) that a frame is enqueued twice.
    pub duplicate_permille: u16,
    /// Probability (‰) that one random bit of the frame is flipped.
    pub corrupt_permille: u16,
    /// Probability (‰) that a frame is held back for a few of the
    /// receiver's polls before becoming visible.
    pub delay_permille: u16,
    /// Chaos is active only for attempts `< armed_attempts`; later
    /// (supervised retry) attempts run on [`SharedMem`]. The default,
    /// `u32::MAX`, keeps every attempt lossy — reliable delivery is
    /// expected to cope without burning retries.
    pub armed_attempts: u32,
}

impl LossyConfig {
    /// A schedule with the given seed and all rates zero.
    #[must_use]
    pub fn new(seed: u64) -> LossyConfig {
        LossyConfig {
            seed,
            drop_permille: 0,
            reorder_permille: 0,
            duplicate_permille: 0,
            corrupt_permille: 0,
            delay_permille: 0,
            armed_attempts: u32::MAX,
        }
    }

    fn permille(rate: u16) -> u16 {
        assert!(rate <= 1000, "a permille rate cannot exceed 1000");
        rate
    }

    /// Sets the drop rate (‰).
    #[must_use]
    pub fn drop(mut self, permille: u16) -> LossyConfig {
        self.drop_permille = LossyConfig::permille(permille);
        self
    }

    /// Sets the reorder rate (‰).
    #[must_use]
    pub fn reorder(mut self, permille: u16) -> LossyConfig {
        self.reorder_permille = LossyConfig::permille(permille);
        self
    }

    /// Sets the duplication rate (‰).
    #[must_use]
    pub fn duplicate(mut self, permille: u16) -> LossyConfig {
        self.duplicate_permille = LossyConfig::permille(permille);
        self
    }

    /// Sets the bit-corruption rate (‰).
    #[must_use]
    pub fn corrupt(mut self, permille: u16) -> LossyConfig {
        self.corrupt_permille = LossyConfig::permille(permille);
        self
    }

    /// Sets the delay rate (‰).
    #[must_use]
    pub fn delay(mut self, permille: u16) -> LossyConfig {
        self.delay_permille = LossyConfig::permille(permille);
        self
    }

    /// Limits chaos to the first `n` attempts (see
    /// [`LossyConfig::armed_attempts`]).
    #[must_use]
    pub fn armed_attempts(mut self, n: u32) -> LossyConfig {
        self.armed_attempts = n;
        self
    }

    /// The same schedule reseeded for one retry attempt, so each
    /// attempt perturbs differently but deterministically.
    #[must_use]
    pub(crate) fn for_attempt(&self, attempt: u32) -> LossyConfig {
        LossyConfig {
            seed: self
                .seed
                .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..*self
        }
    }
}

// ---------------------------------------------------------------------------
// SharedMem
// ---------------------------------------------------------------------------

/// The reliable in-process transport: one bounded FIFO per rank.
#[derive(Debug)]
pub struct SharedMem {
    boxes: Vec<Mutex<VecDeque<Vec<u8>>>>,
    capacity: usize,
}

impl SharedMem {
    /// Mailboxes for `p` ranks, each holding at most `capacity`
    /// frames.
    #[must_use]
    pub fn new(p: usize, capacity: usize) -> SharedMem {
        SharedMem {
            boxes: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity: capacity.max(1),
        }
    }
}

impl Transport for SharedMem {
    fn try_send(&self, _src: usize, dst: usize, bytes: &[u8]) -> bool {
        let mut q = lock(&self.boxes[dst]);
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(bytes.to_vec());
        true
    }

    fn recv(&self, rank: usize) -> Option<Vec<u8>> {
        lock(&self.boxes[rank]).pop_front()
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// LossyNet
// ---------------------------------------------------------------------------

/// One rank's mailbox on the lossy network: the visible queue plus
/// frames held back by an injected delay (released after a few of the
/// receiver's polls).
#[derive(Debug, Default)]
struct LossyBox {
    queue: VecDeque<Vec<u8>>,
    delayed: Vec<(u32, Vec<u8>)>,
}

/// The seeded unreliable network: every `(src, dst)` link carries its
/// own SplitMix64 schedule, so the perturbations a link applies are a
/// pure function of the seed and that link's send sequence — chaos
/// tests iterate seeds, not reruns.
#[derive(Debug)]
pub struct LossyNet {
    p: usize,
    cfg: LossyConfig,
    capacity: usize,
    boxes: Vec<Mutex<LossyBox>>,
    links: Vec<Mutex<SplitMix64>>,
    drops: AtomicU64,
    corruptions: AtomicU64,
    duplicates: AtomicU64,
}

impl LossyNet {
    /// A lossy network over `p` ranks with `capacity`-bounded
    /// mailboxes.
    #[must_use]
    pub fn new(p: usize, cfg: LossyConfig, capacity: usize) -> LossyNet {
        LossyNet {
            p,
            cfg,
            capacity: capacity.max(1),
            boxes: (0..p).map(|_| Mutex::new(LossyBox::default())).collect(),
            links: (0..p * p)
                .map(|link| {
                    // A distinct, seed-derived stream per directed link.
                    Mutex::new(SplitMix64::new(
                        cfg.seed ^ (link as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                    ))
                })
                .collect(),
            drops: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }
}

fn roll(rng: &mut SplitMix64, permille: u16) -> bool {
    permille > 0 && rng.next() % 1000 < u64::from(permille)
}

impl Transport for LossyNet {
    fn try_send(&self, src: usize, dst: usize, bytes: &[u8]) -> bool {
        let mut rng = lock(&self.links[src * self.p + dst]);
        if roll(&mut rng, self.cfg.drop_permille) {
            // Dropped frames bypass capacity: the network "accepted"
            // them, they just never arrive.
            self.drops.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let mut frame = bytes.to_vec();
        if roll(&mut rng, self.cfg.corrupt_permille) && !frame.is_empty() {
            let bit = rng.next() as usize % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            self.corruptions.fetch_add(1, Ordering::Relaxed);
        }
        let copies = if roll(&mut rng, self.cfg.duplicate_permille) {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            1
        };
        let delayed = roll(&mut rng, self.cfg.delay_permille);
        let hold = if delayed {
            1 + (rng.next() % 3) as u32
        } else {
            0
        };
        let reordered = roll(&mut rng, self.cfg.reorder_permille);
        let position_roll = rng.next();
        drop(rng);

        let mut b = lock(&self.boxes[dst]);
        if b.queue.len() >= self.capacity {
            return false;
        }
        for copy in 0..copies {
            if copy > 0 && b.queue.len() >= self.capacity {
                // The duplicate is best-effort; losing it is just the
                // network failing to misbehave.
                break;
            }
            if delayed {
                b.delayed.push((hold, frame.clone()));
            } else if reordered && !b.queue.is_empty() {
                let at = position_roll as usize % (b.queue.len() + 1);
                b.queue.insert(at, frame.clone());
            } else {
                b.queue.push_back(frame.clone());
            }
        }
        true
    }

    fn recv(&self, rank: usize) -> Option<Vec<u8>> {
        let mut b = lock(&self.boxes[rank]);
        // Each poll ages the delayed frames; due ones become visible.
        if !b.delayed.is_empty() {
            let mut due = Vec::new();
            b.delayed.retain_mut(|(hold, frame)| {
                *hold = hold.saturating_sub(1);
                if *hold == 0 {
                    due.push(std::mem::take(frame));
                    false
                } else {
                    true
                }
            });
            for frame in due {
                b.queue.push_back(frame);
            }
        }
        b.queue.pop_front()
    }

    fn is_lossless(&self) -> bool {
        false
    }

    fn injected_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    fn injected_corruptions(&self) -> u64 {
        self.corruptions.load(Ordering::Relaxed)
    }

    fn injected_duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }
}

/// A rank *process*'s view of the machine: every frame rides the
/// control stream to the parent, which routes it to the destination
/// rank's stream ([`crate::process`]). Sockets are stream-oriented and
/// lossless, so the reliable layer runs with retransmission disabled —
/// exactly like [`SharedMem`]. Mailbox depth is bounded by the kernel
/// socket buffers rather than [`NetTuning::mailbox_capacity`], so
/// `try_send` never reports backpressure.
#[derive(Debug)]
pub(crate) struct SocketTransport {
    hub: std::sync::Arc<crate::process::RemoteHub>,
}

impl SocketTransport {
    pub(crate) fn new(hub: std::sync::Arc<crate::process::RemoteHub>) -> SocketTransport {
        SocketTransport { hub }
    }
}

impl Transport for SocketTransport {
    fn try_send(&self, _src: usize, dst: usize, bytes: &[u8]) -> bool {
        self.hub.send_data(dst, bytes);
        true
    }

    fn recv(&self, _rank: usize) -> Option<Vec<u8>> {
        self.hub.recv_data()
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// The coordinator's listener seam: Unix-domain or TCP (DESIGN.md §16).
// ---------------------------------------------------------------------------

/// Where the multi-process coordinator listens for its ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bind {
    /// A Unix-domain socket at this path (the default; the launcher
    /// picks a fresh path under the socket directory).
    Unix(std::path::PathBuf),
    /// A TCP address like `"127.0.0.1:0"` (port 0 = kernel-assigned).
    /// This is what lets rank processes live on other hosts.
    Tcp(String),
}

/// One accepted (or dialed) rank⇄coordinator control stream,
/// abstracting over the two socket families. TCP streams run with
/// `TCP_NODELAY`: control frames are small and latency-critical
/// (barrier releases, heartbeats), so Nagle batching only hurts.
#[derive(Debug)]
pub enum RankStream {
    /// A Unix-domain stream.
    Unix(std::os::unix::net::UnixStream),
    /// A TCP stream.
    Tcp(std::net::TcpStream),
}

/// Dispatches one `&self` method over both stream families.
macro_rules! on_stream {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            RankStream::Unix($s) => $body,
            RankStream::Tcp($s) => $body,
        }
    };
}

impl RankStream {
    /// Connects to a coordinator endpoint string as published in
    /// `BSML_RANK_SOCKET`: `tcp://host:port` dials TCP, anything else
    /// is a Unix socket path.
    pub fn connect(endpoint: &str) -> std::io::Result<RankStream> {
        if let Some(addr) = endpoint.strip_prefix("tcp://") {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(RankStream::Tcp(stream))
        } else {
            Ok(RankStream::Unix(std::os::unix::net::UnixStream::connect(
                endpoint,
            )?))
        }
    }

    /// An independently-owned handle to the same stream.
    pub fn try_clone(&self) -> std::io::Result<RankStream> {
        match self {
            RankStream::Unix(s) => s.try_clone().map(RankStream::Unix),
            RankStream::Tcp(s) => s.try_clone().map(RankStream::Tcp),
        }
    }

    /// Read-timeout passthrough (`None` = block forever).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        on_stream!(self, s => s.set_read_timeout(dur))
    }

    /// Nonblocking-mode passthrough.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        on_stream!(self, s => s.set_nonblocking(nonblocking))
    }

    /// Shutdown passthrough — how link faults sever a live wire.
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        on_stream!(self, s => s.shutdown(how))
    }
}

impl std::io::Read for RankStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.read(buf))
    }
}

impl std::io::Write for RankStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_stream!(self, s => s.flush())
    }
}

/// The coordinator's accept side, behind a seam so the launcher and
/// the rejoin acceptor are family-agnostic.
pub trait Listener: fmt::Debug + Send + Sync {
    /// Accepts one rank connection.
    ///
    /// # Errors
    ///
    /// The underlying `accept` error — `WouldBlock` included, when the
    /// listener is nonblocking.
    fn accept(&self) -> std::io::Result<RankStream>;

    /// Switches the listener between blocking and polling mode.
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// The endpoint string rank processes should connect to — a Unix
    /// path verbatim, or `tcp://host:port`.
    fn endpoint(&self) -> String;
}

/// [`Listener`] over a Unix-domain socket.
#[derive(Debug)]
pub struct UnixSeam {
    listener: std::os::unix::net::UnixListener,
    path: std::path::PathBuf,
}

impl Drop for UnixSeam {
    fn drop(&mut self) {
        // The seam bound this path, so the file is ours to reclaim —
        // a later coordinator then finds a clean address instead of a
        // stale socket it has to probe.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Listener for UnixSeam {
    fn accept(&self) -> std::io::Result<RankStream> {
        self.listener.accept().map(|(s, _)| RankStream::Unix(s))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    fn endpoint(&self) -> String {
        self.path.display().to_string()
    }
}

/// [`Listener`] over TCP.
#[derive(Debug)]
pub struct TcpSeam {
    listener: std::net::TcpListener,
}

impl Listener for TcpSeam {
    fn accept(&self) -> std::io::Result<RankStream> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(RankStream::Tcp(stream))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    fn endpoint(&self) -> String {
        match self.listener.local_addr() {
            Ok(addr) => format!("tcp://{addr}"),
            Err(_) => "tcp://<unknown>".to_string(),
        }
    }
}

impl Bind {
    /// Binds the coordinator listener.
    ///
    /// For a Unix bind, a leftover socket file from a killed
    /// coordinator is handled by *probing*: the path is connected to
    /// first, and only a **refused** probe (nobody listening) licenses
    /// unlinking it. A live listener on the path is a real conflict
    /// and comes back as a typed `AddrInUse` error — never a silent
    /// unlink of someone else's socket, never a hang.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when the address has a live listener; otherwise the
    /// underlying bind error.
    pub fn listen(&self) -> std::io::Result<Box<dyn Listener>> {
        match self {
            Bind::Unix(path) => {
                if path.exists() {
                    match std::os::unix::net::UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::AddrInUse,
                                format!(
                                    "coordinator socket {} is in use by a live listener",
                                    path.display()
                                ),
                            ));
                        }
                        Err(_) => {
                            // Stale: a dead coordinator's leftover.
                            std::fs::remove_file(path)?;
                        }
                    }
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                Ok(Box::new(UnixSeam {
                    listener,
                    path: path.clone(),
                }))
            }
            Bind::Tcp(addr) => {
                let listener = std::net::TcpListener::bind(addr)?;
                Ok(Box::new(TcpSeam { listener }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mem_is_fifo_and_bounded() {
        let t = SharedMem::new(2, 2);
        assert!(t.try_send(0, 1, b"a"));
        assert!(t.try_send(0, 1, b"b"));
        // Mailbox full: backpressure, not queue growth.
        assert!(!t.try_send(0, 1, b"c"));
        assert_eq!(t.recv(1).as_deref(), Some(b"a".as_slice()));
        assert!(t.try_send(0, 1, b"c"));
        assert_eq!(t.recv(1).as_deref(), Some(b"b".as_slice()));
        assert_eq!(t.recv(1).as_deref(), Some(b"c".as_slice()));
        assert_eq!(t.recv(1), None);
        // The other mailbox is untouched.
        assert_eq!(t.recv(0), None);
        assert!(t.is_lossless());
        assert_eq!(t.injected_drops(), 0);
    }

    #[test]
    fn zero_rate_lossy_net_delivers_everything_in_order() {
        let t = LossyNet::new(2, LossyConfig::new(7), 64);
        for i in 0..10u8 {
            assert!(t.try_send(0, 1, &[i]));
        }
        for i in 0..10u8 {
            assert_eq!(t.recv(1).as_deref(), Some([i].as_slice()));
        }
        assert_eq!(t.recv(1), None);
        assert_eq!(t.injected_drops(), 0);
        assert_eq!(t.injected_corruptions(), 0);
        assert_eq!(t.injected_duplicates(), 0);
        assert!(!t.is_lossless());
    }

    #[test]
    fn full_loss_drops_every_frame_but_accepts_them() {
        let t = LossyNet::new(2, LossyConfig::new(1).drop(1000), 4);
        for _ in 0..50 {
            // Dropped frames never fill the mailbox.
            assert!(t.try_send(0, 1, b"x"));
        }
        assert_eq!(t.recv(1), None);
        assert_eq!(t.injected_drops(), 50);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let t = LossyNet::new(2, LossyConfig::new(3).corrupt(1000), 64);
        let original = [0u8; 16];
        assert!(t.try_send(0, 1, &original));
        let got = t.recv(1).unwrap();
        let flipped: u32 = got
            .iter()
            .zip(original.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must differ");
        assert_eq!(t.injected_corruptions(), 1);
    }

    #[test]
    fn duplication_enqueues_two_copies() {
        let t = LossyNet::new(2, LossyConfig::new(5).duplicate(1000), 64);
        assert!(t.try_send(0, 1, b"dup"));
        assert_eq!(t.recv(1).as_deref(), Some(b"dup".as_slice()));
        assert_eq!(t.recv(1).as_deref(), Some(b"dup".as_slice()));
        assert_eq!(t.recv(1), None);
        assert_eq!(t.injected_duplicates(), 1);
    }

    #[test]
    fn delayed_frames_surface_after_a_few_polls() {
        let t = LossyNet::new(2, LossyConfig::new(11).delay(1000), 64);
        assert!(t.try_send(0, 1, b"late"));
        // The frame is held back, but only for a bounded number of
        // polls (at most 3 by construction).
        let mut polls = 0;
        let got = loop {
            match t.recv(1) {
                Some(f) => break f,
                None => {
                    polls += 1;
                    assert!(polls <= 3, "delay must be bounded");
                }
            }
        };
        assert_eq!(got, b"late");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let t = LossyNet::new(2, LossyConfig::new(seed).drop(300).duplicate(300), 256);
            for i in 0..100u8 {
                assert!(t.try_send(0, 1, &[i]));
            }
            let mut got = Vec::new();
            while let Some(f) = t.recv(1) {
                got.push(f[0]);
            }
            (got, t.injected_drops(), t.injected_duplicates())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should differ");
    }

    #[test]
    fn for_attempt_reseeds_deterministically() {
        let cfg = LossyConfig::new(9).drop(100);
        assert_eq!(cfg.for_attempt(0).seed, cfg.seed);
        assert_ne!(cfg.for_attempt(1).seed, cfg.seed);
        assert_eq!(cfg.for_attempt(2), cfg.for_attempt(2));
        assert_eq!(cfg.for_attempt(1).drop_permille, 100);
    }

    #[test]
    #[should_panic(expected = "cannot exceed 1000")]
    fn permille_over_1000_rejected() {
        let _ = LossyConfig::new(0).drop(1001);
    }

    #[test]
    fn default_config_is_shared_mem() {
        assert_eq!(TransportConfig::default(), TransportConfig::SharedMem);
    }

    fn scratch_socket(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bsml-seam-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("coord.sock")
    }

    #[test]
    fn stale_unix_socket_is_probed_and_rebound() {
        let path = scratch_socket("stale");
        // A SIGKILLed coordinator's leftover: a bound socket whose
        // owner never unlinked it. A raw std listener does not unlink
        // on drop (a `UnixSeam` does), so the file stays behind.
        drop(std::os::unix::net::UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "the socket file must be left behind");
        // A naive re-bind would fail with AddrInUse forever; the probe
        // sees the refused connect and unlinks the corpse.
        let seam = Bind::Unix(path.clone())
            .listen()
            .expect("rebind over stale");
        assert_eq!(seam.endpoint(), path.display().to_string());
    }

    #[test]
    fn live_unix_listener_is_a_typed_conflict_not_a_hang() {
        let path = scratch_socket("live");
        let _holder = Bind::Unix(path.clone()).listen().expect("first bind");
        let err = Bind::Unix(path)
            .listen()
            .expect_err("second bind must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("in use"), "got: {err}");
    }

    #[test]
    fn tcp_seam_binds_accepts_and_round_trips() {
        use std::io::{Read, Write};
        let seam = Bind::Tcp("127.0.0.1:0".to_string())
            .listen()
            .expect("tcp bind");
        let endpoint = seam.endpoint();
        assert!(endpoint.starts_with("tcp://127.0.0.1:"), "got {endpoint}");
        let dialer = std::thread::spawn(move || {
            let mut s = RankStream::connect(&endpoint).expect("dial");
            s.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            buf
        });
        let mut accepted = seam.accept().expect("accept");
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        accepted.write_all(b"pong").unwrap();
        assert_eq!(&dialer.join().unwrap(), b"pong");
    }

    #[test]
    fn unix_endpoint_strings_dial_as_paths() {
        let path = scratch_socket("dial");
        let seam = Bind::Unix(path.clone()).listen().expect("bind");
        let endpoint = seam.endpoint();
        let dialer = std::thread::spawn(move || RankStream::connect(&endpoint).is_ok());
        let _accepted = seam.accept().expect("accept");
        assert!(dialer.join().unwrap());
    }
}
