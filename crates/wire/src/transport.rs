//! Moving frames: the [`Transport`] trait and its two implementations.
//!
//! * [`ChannelTransport`] — an in-memory duplex link over crossbeam
//!   channels. Used by tests and the discrete-event scenarios: frames
//!   are real encoded bytes (so byte counters are exact and renders stay
//!   byte-identical per seed) but delivery is a queue, not a socket.
//! * [`TcpTransport`] — the same frames over a real `TcpStream`, used by
//!   `examples/live_server.rs`.
//!
//! Both count traffic in a shared [`WireStats`] snapshot, which is what
//! makes FIG9's bandwidth numbers *measured*: every byte the protocol
//! claims to move has been through `encode` and across one of these.
//!
//! The server side replies to a device through a [`WireSink`] — a
//! cloneable, send-only handle that can ride inside an actor mailbox
//! message and outlive the request that carried it.
//!
//! **Spare frame buffers.** A frame of 16 KiB or more is written or read
//! into a spare buffer from one small process-wide pool, and whoever
//! holds the frame last hands the buffer back with [`recycle`]: the shard
//! that folded a report, the Coordinator for a report it refused. A TCP
//! receive reads such a frame into a spare; a channel send
//! ([`Transport::send`], [`Transport::send_frame_bytes`],
//! [`WireSink::send`]) encodes or copies it into one. Before the pool,
//! `round_plain_tcp` was fault-bound rather than byte-bound: a gateway
//! zero-filled a fresh 1 MB buffer for every report, a shard thread freed
//! it, glibc gave the pages back, and the next round faulted them in
//! again — ~4 000 minor faults a round, more sys time than user time. A
//! pooled buffer saves the allocation and the page faults: a 10 s run
//! took ~32 k faults instead of ~252 k, and `rounds_per_s` read 1.26x
//! (`BENCH_e2e.json` entry 25). It saves the zero-fill too (user time
//! 1.03 -> 0.97 s a run, 8 of 10 pairs; entry 30). A spare keeps its
//! length and the bytes of the frame it last carried. A receive copies
//! the header over their start, reads the body over the rest, and
//! zero-extends only a spare shorter than the frame; a send clears the
//! spare and writes the whole frame. No stale byte can leave, and no
//! `unsafe` is needed: a receive hands a frame out only once every byte
//! of it has come off the socket (a read that times out mid-frame keeps
//! its place, and the next one resumes it), and
//! [`TcpTransport::recv_frame_timeout`] truncates the buffer to the
//! frame's length.
//!
//! **One shared frame.** The one frame a sender sends to many links, a
//! round's Configuration, is not pooled and not copied on a channel link:
//! [`WireSink::send_configuration`] takes it behind an `Arc`, and the link
//! queues a reference to it. No link writes to it and it never enters the
//! pool (a raw receive, [`ChannelTransport::recv_frame_timeout`], hands
//! out a copy); once every link has let go, the sender may write it again.
//!
//! **A plan goes down a TCP connection once** (protocol v6). A TCP link
//! writes bytes, so a frame sent again costs its length every time, and a
//! Configuration is mostly plan (Appendix A: the plan "is comparable with
//! the global model"), the same every round. Each half of a
//! [`TcpTransport`] keeps one slot: the write half the digest of the last
//! plan it wrote whole, the read half that plan ([`PlanSlot`]). When the
//! digests agree, [`WireSink::send_configuration`] writes the slim frame
//! ([`tag::PLAN_DIGEST_AND_CHECKPOINT`]: the checkpoint, with the plan
//! named by its digest), and [`Transport::recv_timeout`] decodes it into
//! the same [`WireMessage::PlanAndCheckpoint`]. The sender's view is exact
//! because TCP is ordered and lossless and every frame on a connection
//! passes one write lock; a tag-4 frame sent any other way makes the write
//! half forget its plan. A link that alternates two plans is sent each
//! whole every time. A channel link always queues the full frame: it
//! queues a reference, so a plan costs it nothing, and its links are the
//! per-device ones whose bytes FIG9 counts. On `round_plain_tcp` (two
//! connections of ten devices) this halves the bytes sent down a round,
//! 41 956 180 to 20 978 660 (twenty 1 048 894-byte Configurations and
//! their acks).
//!
//! The bounds are constants, chosen by measurement, with no knob:
//! * The floor, 16 KiB, pools `round_secagg`'s 33 KB reports; every
//!   `checkin_storm` frame is under 1 KB and never takes the pool's lock.
//!   At 128 KiB (glibc's default mmap threshold) every 33 KB frame was a
//!   fresh allocation freed on another thread, 128 a round (a
//!   Configuration copy and a report per device): a 10 s `round_secagg`
//!   run took 218 000-294 000 minor faults, ~500 a round. With the 16 KiB
//!   floor and the shared Configuration it takes 4 200-9 900, process CPU
//!   fell from 5.5 to 4.4 s a run, and `rounds_per_s` read +32 % (medians
//!   of ten pairs, entry 36). The floor alone did not
//!   hold peak RSS. Lowered while channel links still allocated per
//!   frame, it filled the pool with report buffers that no in-memory send
//!   drew again: 13.1-14.5 MB against 11.0-12.8 at 128 KiB. Lowered with
//!   channel sends drawing spares but the
//!   Configuration still copied per device, it read 13.7-14.0 MB: the
//!   Coordinator queues all 64 copies at once, 2.1 MB of frames live
//!   together, which devices drop rather than hand back. One shared
//!   Configuration removes those 2.1 MB, and peak RSS read 11.1-11.9 MB
//!   on the same seeds.
//! * At most 32 spares and at most one [`MAX_BODY_LEN`] of them in all, so
//!   a peer's 64 MiB length claim cannot pin more than that. Six
//!   alternating 10 s runs of `round_plain_tcp` per cap did not resolve
//!   16, 32 or 64 apart on `rounds_per_s` (medians 41.6, 39.6, 40.3, the
//!   parent 33.8), but 16 read 61.1 MB peak RSS against 57.9 at 32 and
//!   58.4 at 64: it drops buffers a round still needs.
//! * A draw takes the smallest spare that fits, so a 33 KB frame does not
//!   take a megabyte buffer a TCP receive will want next. Where every
//!   pooled frame is one report size this reads the same as drawing any
//!   fit (41.0 rounds/s, 57.9 MB on `round_plain_tcp`).

use crate::frame::{
    decode, encode_into, encoded_len, parse_header, WireError, HEADER_LEN, MAX_BODY_LEN,
    TRAILER_LEN,
};
use crate::message::{tag, PlanSlot, WireMessage};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use fl_race::Site;
use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// Lock site for the read half of a TCP link (DESIGN.md §7.1); a
/// receive takes only [`SPARES_SITE`] under it.
const TCP_READ_SITE: Site = Site::new("wire/transport.tcp_read", 70);
/// Lock site for the write half of a TCP link (leaf; DESIGN.md §7.1).
const TCP_WRITE_SITE: Site = Site::new("wire/transport.tcp_write", 72);
/// Lock site of the spare frame buffers (leaf; DESIGN.md §7.1). Above
/// both TCP halves and the fault script: a receive draws a spare under
/// its read half's lock, and a faulty transport's channel send under its
/// script's.
const SPARES_SITE: Site = Site::new("wire/transport.spares", 74);

// --- spare frame buffers ---------------------------------------------------

/// The smallest frame put in a spare (see the module doc for why 16 KiB).
const SPARE_FLOOR: usize = 16 * 1024;
/// At most this many spares are kept...
const SPARE_COUNT: usize = 32;
/// ...holding at most this many bytes between them, so a peer's 64 MiB
/// length claim cannot pin more than one such frame's worth.
const SPARE_BYTES: usize = MAX_BODY_LEN;

/// The kept spares and their total capacity.
#[derive(Debug, Default)]
struct Spares {
    bufs: Vec<Vec<u8>>,
    bytes: usize,
}

static SPARES: LazyLock<fl_race::Mutex<Spares>> =
    LazyLock::new(|| fl_race::Mutex::new(SPARES_SITE, Spares::default()));

/// A buffer with room for a `len`-byte frame: the smallest kept spare
/// that fits when `len` is at or above [`SPARE_FLOOR`], still holding the
/// bytes of the frame it last carried, else a fresh empty allocation.
fn spare(len: usize) -> Vec<u8> {
    if len >= SPARE_FLOOR {
        let mut spares = SPARES.lock();
        let fits = spares
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= len)
            .min_by_key(|(_, buf)| buf.capacity())
            .map(|(i, _)| i);
        if let Some(i) = fits {
            let buf = spares.bufs.swap_remove(i);
            spares.bytes -= buf.capacity();
            return buf;
        }
    }
    Vec::with_capacity(len)
}

/// `msg` encoded into a [`spare`].
fn encode_spare(msg: &WireMessage) -> Result<Vec<u8>, WireError> {
    let mut buf = spare(encoded_len(msg));
    encode_into(msg, &mut buf)?;
    Ok(buf)
}

/// `frame` copied into a [`spare`].
fn copy_spare(frame: &[u8]) -> Vec<u8> {
    let mut buf = spare(frame.len());
    buf.clear();
    buf.extend_from_slice(frame);
    buf
}

/// Hands a frame's buffer back for the next large frame a TCP receive
/// reads or a channel send writes, so such a frame costs no allocation,
/// page fault or zero-fill once the first few have been made. The buffer
/// keeps its length and its bytes: a receive overwrites them from the
/// socket, and hands a frame out only once all of it has been read (see
/// the module doc); a send clears the buffer and writes the frame. The frame's last owner calls this when it is done with the
/// bytes; a buffer below `SPARE_FLOOR` (16 KiB) or one the count or byte bound
/// has no room for is dropped instead.
pub fn recycle(frame: Vec<u8>) {
    let size = frame.capacity();
    if size < SPARE_FLOOR {
        return;
    }
    let mut spares = SPARES.lock();
    if spares.bufs.len() < SPARE_COUNT && spares.bytes + size <= SPARE_BYTES {
        spares.bytes += size;
        spares.bufs.push(frame);
    }
}

/// Monotonic per-endpoint traffic totals.
#[derive(Debug, Default)]
struct WireCounters {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    frames_corrupt: AtomicU64,
}

impl WireCounters {
    fn note_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_corrupt(&self) {
        self.frames_corrupt.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_corrupt: self.frames_corrupt.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one endpoint's traffic: the measured bytes-on-wire
/// FIG9 reports (sends through a [`WireSink`] count against the
/// endpoint the sink came from).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames this endpoint sent.
    pub frames_sent: u64,
    /// Total frame bytes this endpoint sent (headers included).
    pub bytes_sent: u64,
    /// Frames this endpoint received.
    pub frames_received: u64,
    /// Total frame bytes this endpoint received.
    pub bytes_received: u64,
    /// Received frames (or headers) the codec rejected: bad magic,
    /// version skew, truncated or over-length bodies. Counted once per
    /// rejection; the typed [`WireError`] still reaches the caller.
    pub frames_corrupt: u64,
}

impl std::ops::Add for WireStats {
    type Output = WireStats;
    fn add(self, rhs: WireStats) -> WireStats {
        WireStats {
            frames_sent: self.frames_sent + rhs.frames_sent,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            frames_received: self.frames_received + rhs.frames_received,
            bytes_received: self.bytes_received + rhs.bytes_received,
            frames_corrupt: self.frames_corrupt + rhs.frames_corrupt,
        }
    }
}

/// A duplex endpoint speaking framed [`WireMessage`]s.
pub trait Transport: fmt::Debug + Send {
    /// Encodes and transmits one message; returns the frame size in
    /// bytes (the wire cost of the send).
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] if the peer is gone; [`WireError::Io`] on
    /// socket failure.
    fn send(&self, msg: &WireMessage) -> Result<usize, WireError>;

    /// Transmits one already-encoded (or deliberately mangled) frame
    /// verbatim; returns the byte count. This is the raw injection
    /// primitive [`crate::FaultyTransport`] uses to put corrupted or
    /// truncated bytes on the wire — the sender's codec never sees them.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    fn send_frame_bytes(&self, frame: &[u8]) -> Result<usize, WireError>;

    /// Receives and decodes one message, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] if nothing arrived, [`WireError::Closed`]
    /// if the peer is gone, or any codec error for a malformed frame.
    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, WireError>;

    /// A receive that waits at most briefly: `Ok(None)` when no frame
    /// came. A channel link does not wait at all; a TCP link is
    /// [`Transport::recv_timeout`] with a 1 ms timeout.
    ///
    /// # Errors
    ///
    /// As [`Transport::recv_timeout`], minus timeout.
    fn try_recv(&self) -> Result<Option<WireMessage>, WireError>;

    /// A cloneable send-only handle to this endpoint's peer, for
    /// replying from inside an actor.
    fn sink(&self) -> WireSink;

    /// This endpoint's traffic totals.
    fn stats(&self) -> WireStats;
}

// --- in-memory -----------------------------------------------------------

/// One frame queued on a channel link: a buffer of its own, or the one
/// buffer of a frame sent to many links ([`WireSink::send_configuration`]).
#[derive(Debug)]
enum Queued {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Queued {
    fn bytes(&self) -> &[u8] {
        match self {
            Queued::Owned(frame) => frame,
            Queued::Shared(frame) => frame,
        }
    }

    /// The frame in a buffer the caller owns. A shared frame is copied:
    /// its buffer stays the sender's, read-only, and never reaches the
    /// pool.
    fn into_owned(self) -> Vec<u8> {
        match self {
            Queued::Owned(frame) => frame,
            Queued::Shared(frame) => frame.to_vec(),
        }
    }
}

/// In-memory transport endpoint: frames over unbounded channels.
/// [`ChannelTransport::pair`] builds a connected duplex link.
pub struct ChannelTransport {
    tx: Sender<Queued>,
    rx: Receiver<Queued>,
    counters: Arc<WireCounters>,
}

impl fmt::Debug for ChannelTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl ChannelTransport {
    /// Builds a connected pair of endpoints; each side counts its own
    /// traffic. Convention in this workspace: `.0` is the device end,
    /// `.1` the server/gateway end.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (tx_a, rx_a) = crossbeam::channel::unbounded();
        let (tx_b, rx_b) = crossbeam::channel::unbounded();
        (
            ChannelTransport {
                tx: tx_a,
                rx: rx_b,
                counters: Arc::new(WireCounters::default()),
            },
            ChannelTransport {
                tx: tx_b,
                rx: rx_a,
                counters: Arc::new(WireCounters::default()),
            },
        )
    }

    /// Receives one raw frame without decoding the body — the gateway
    /// primitive: relay the bytes into an actor mailbox and let the
    /// owning actor decode. Counts the frame as received here. A frame
    /// sent with [`WireSink::send_configuration`] arrives as a copy.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] / [`WireError::Closed`].
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Vec<u8>, WireError> {
        self.recv_queued(timeout).map(Queued::into_owned)
    }

    /// Non-blocking [`ChannelTransport::recv_frame_timeout`].
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] if the peer is gone.
    pub fn try_recv_frame(&self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.try_recv_queued()?.map(Queued::into_owned))
    }

    fn recv_queued(&self, timeout: Duration) -> Result<Queued, WireError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                self.counters.note_received(frame.bytes().len());
                Ok(frame)
            }
            Err(RecvTimeoutError::Timeout) => Err(WireError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WireError::Closed),
        }
    }

    fn try_recv_queued(&self) -> Result<Option<Queued>, WireError> {
        match self.rx.try_recv() {
            Ok(frame) => {
                self.counters.note_received(frame.bytes().len());
                Ok(Some(frame))
            }
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WireError::Closed),
        }
    }

    /// Decodes a received frame, counting one the codec rejects.
    fn decode_queued(&self, frame: &Queued) -> Result<WireMessage, WireError> {
        decode(frame.bytes()).inspect_err(|_| self.counters.note_corrupt())
    }
}

/// Queues one frame on a channel link and counts it.
fn channel_send(
    tx: &Sender<Queued>,
    counters: &WireCounters,
    frame: Queued,
) -> Result<usize, WireError> {
    let n = frame.bytes().len();
    tx.send(frame).map_err(|_| WireError::Closed)?;
    counters.note_sent(n);
    Ok(n)
}

impl Transport for ChannelTransport {
    fn send(&self, msg: &WireMessage) -> Result<usize, WireError> {
        channel_send(&self.tx, &self.counters, Queued::Owned(encode_spare(msg)?))
    }

    fn send_frame_bytes(&self, frame: &[u8]) -> Result<usize, WireError> {
        channel_send(&self.tx, &self.counters, Queued::Owned(copy_spare(frame)))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        self.decode_queued(&self.recv_queued(timeout)?)
    }

    fn try_recv(&self) -> Result<Option<WireMessage>, WireError> {
        self.try_recv_queued()?
            .map(|frame| self.decode_queued(&frame))
            .transpose()
    }

    fn sink(&self) -> WireSink {
        WireSink {
            inner: SinkInner::Channel {
                tx: self.tx.clone(),
                counters: Arc::clone(&self.counters),
            },
        }
    }

    fn stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

// --- TCP -----------------------------------------------------------------

/// Framed-TCP transport endpoint over a `std::net::TcpStream`.
///
/// Reads and writes each take a site-tagged lock so concurrent callers
/// keep frame atomicity, and each half keeps its buffer: a send encodes
/// into the write half's buffer under the write lock, a receive decodes
/// out of the read half's, so a connection allocates per message only
/// what the message itself owns. Partial-frame reads are *resumable*: a
/// receive timeout that fires mid-frame leaves the bytes read so far in
/// the read half's buffer and the next call picks up exactly where the stream
/// left off, so short timeouts are safe as polling intervals. A frame
/// whose header fails validation poisons the stream position and is
/// surfaced as the typed envelope error after dropping the buffered
/// bytes — the caller should treat that as a connection reset.
pub struct TcpTransport {
    read: fl_race::Mutex<ReadHalf>,
    write: Arc<fl_race::Mutex<WriteHalf>>,
    counters: Arc<WireCounters>,
}

/// The locked read side: the stream plus the in-flight frame.
/// `buf[..filled]` is what has been pulled off the socket so far; the
/// rest of `buf` is room for the frame's remainder, zeroes or a spare's
/// stale bytes, which the socket overwrites before the frame is handed
/// out. `plan` is the last plan a decoded Configuration brought, which a
/// slim one names (a raw receive neither fills nor reads it).
struct ReadHalf {
    stream: TcpStream,
    buf: Vec<u8>,
    filled: usize,
    plan: PlanSlot,
}

/// The locked write side: the stream plus the encode buffer every
/// [`Transport::send`] and [`WireSink::send`] on this connection reuses,
/// and the digest of the plan the peer holds, if this half knows it: set
/// by a full Configuration [`WireSink::send_configuration`] wrote, and
/// forgotten when a tag-4 frame goes out any other way.
struct WriteHalf {
    stream: TcpStream,
    buf: Vec<u8>,
    plan: Option<u64>,
}

/// Writes one whole frame to `stream` and counts it.
fn write_frame(
    mut stream: &TcpStream,
    frame: &[u8],
    counters: &WireCounters,
) -> Result<usize, WireError> {
    stream.write_all(frame).map_err(io_err)?;
    counters.note_sent(frame.len());
    Ok(frame.len())
}

impl WriteHalf {
    fn send(&mut self, msg: &WireMessage, counters: &WireCounters) -> Result<usize, WireError> {
        self.forget_plan_for(Some(msg.tag()));
        encode_into(msg, &mut self.buf)?;
        write_frame(&self.stream, &self.buf, counters)
    }

    /// A frame of `tag` goes out other than through
    /// [`WireSink::send_configuration`]; if it is a full Configuration, the
    /// peer's plan is one this half did not record.
    fn forget_plan_for(&mut self, tag: Option<u8>) {
        if tag == Some(tag::PLAN_AND_CHECKPOINT) {
            self.plan = None;
        }
    }
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

fn io_err(e: std::io::Error) -> WireError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => WireError::Closed,
        _ => WireError::Io(e.to_string()),
    }
}

impl TcpTransport {
    /// Wraps a connected stream. The stream is cloned internally so the
    /// read and write halves lock independently.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the stream cannot be cloned.
    pub fn new(stream: TcpStream) -> Result<TcpTransport, WireError> {
        let write_half = WriteHalf {
            stream: stream.try_clone().map_err(io_err)?,
            buf: Vec::new(),
            plan: None,
        };
        Ok(TcpTransport {
            read: fl_race::Mutex::new(
                TCP_READ_SITE,
                ReadHalf {
                    stream,
                    buf: Vec::new(),
                    filled: 0,
                    plan: PlanSlot::default(),
                },
            ),
            write: Arc::new(fl_race::Mutex::new(TCP_WRITE_SITE, write_half)),
            counters: Arc::new(WireCounters::default()),
        })
    }

    /// Receives one raw validated frame (header checked, body opaque) —
    /// the gateway primitive for routing by [`crate::peek_tag`]. The
    /// frame leaves with its buffer, so the gateway can move it into a
    /// mailbox without a copy. A frame of `SPARE_FLOOR` (16 KiB) or more
    /// was read into a spare buffer; whoever holds it last (the shard
    /// that folded it, or the Coordinator that refused it) gives it back
    /// with [`recycle`], and the next large frame is read into it.
    ///
    /// A timeout mid-frame keeps the bytes read so far; the next call
    /// resumes the same frame (no stream desync). A header that fails
    /// validation drops the buffer and returns the envelope error — the
    /// stream position is unrecoverable at that point, so the caller
    /// should close the connection.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] / [`WireError::Closed`] / envelope errors.
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Vec<u8>, WireError> {
        let mut half = self.read.lock();
        let total = self.fill_frame(&mut half, timeout)?;
        half.buf.truncate(total);
        Ok(std::mem::take(&mut half.buf))
    }

    /// Reads until `half.buf[..total]` holds one whole frame whose header
    /// validates, counts it as received, and returns `total`. The frame
    /// is the caller's to consume under the same lock: the next read
    /// starts a new one.
    fn fill_frame(&self, half: &mut ReadHalf, timeout: Duration) -> Result<usize, WireError> {
        // `None`: a "never" timeout, past the clock's range, blocks.
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if half.filled < HEADER_LEN {
                half.read_up_to(HEADER_LEN, deadline)?;
                continue;
            }
            let total = match parse_header(&half.buf[..HEADER_LEN]) {
                Ok((_, body_len)) => HEADER_LEN + body_len + TRAILER_LEN,
                Err(e) => {
                    // Past a bad header the frame boundary is lost for
                    // good: discard and force the caller to reset the
                    // connection.
                    half.filled = 0;
                    self.counters.note_corrupt();
                    return Err(e);
                }
            };
            if total >= SPARE_FLOOR && half.buf.capacity() < total {
                // Read a large body straight into a spare, not into room
                // freshly allocated (and faulted in) for it; the header
                // read so far goes over the start of its stale bytes.
                let mut buf = spare(total);
                buf.truncate(total);
                let kept = half.filled.min(buf.len());
                buf[..kept].copy_from_slice(&half.buf[..kept]);
                buf.extend_from_slice(&half.buf[kept..half.filled]);
                recycle(std::mem::replace(&mut half.buf, buf));
            }
            if half.filled >= total {
                half.filled = 0;
                self.counters.note_received(total);
                return Ok(total);
            }
            half.read_up_to(total, deadline)?;
        }
    }
}

impl ReadHalf {
    /// Pulls at most `target - filled` bytes off the socket, honouring
    /// `deadline`. A buffer shorter than `target` is zero-extended to it
    /// once, not per read; a longer one (a spare) is read into as it is.
    /// Timeout leaves the bytes read so far for a later resume; EOF
    /// mid-frame forgets them and reports a closed peer.
    fn read_up_to(&mut self, target: usize, deadline: Option<Instant>) -> Result<(), WireError> {
        let remaining = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        if remaining == Some(Duration::ZERO) {
            return Err(WireError::Timeout);
        }
        self.stream
            .set_read_timeout(remaining.map(|left| left.max(Duration::from_millis(1))))
            .map_err(io_err)?;
        if self.buf.len() < target {
            self.buf.resize(target, 0);
        }
        match (&self.stream).read(&mut self.buf[self.filled..target]) {
            Ok(0) => {
                self.filled = 0;
                Err(WireError::Closed)
            }
            Ok(n) => {
                self.filled += n;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(io_err(e)),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: &WireMessage) -> Result<usize, WireError> {
        self.write.lock().send(msg, &self.counters)
    }

    fn send_frame_bytes(&self, frame: &[u8]) -> Result<usize, WireError> {
        let mut half = self.write.lock();
        half.forget_plan_for(frame.get(3).copied());
        write_frame(&half.stream, frame, &self.counters)
    }

    /// Decodes through the connection's [`PlanSlot`], so a slim
    /// Configuration decodes against the plan a full one brought.
    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        let mut guard = self.read.lock();
        let total = self.fill_frame(&mut guard, timeout)?;
        let half = &mut *guard;
        half.plan
            .decode(&half.buf[..total])
            .inspect_err(|_| self.counters.note_corrupt())
    }

    /// Not non-blocking: [`Transport::recv_timeout`] with a 1 ms timeout,
    /// so a call with nothing arriving takes about a millisecond.
    fn try_recv(&self) -> Result<Option<WireMessage>, WireError> {
        match self.recv_timeout(Duration::from_millis(1)) {
            Ok(msg) => Ok(Some(msg)),
            Err(WireError::Timeout) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn sink(&self) -> WireSink {
        WireSink {
            inner: SinkInner::Tcp {
                write: Arc::clone(&self.write),
                counters: Arc::clone(&self.counters),
            },
        }
    }

    fn stats(&self) -> WireStats {
        self.counters.snapshot()
    }
}

// --- sink ----------------------------------------------------------------

/// Cloneable send-only handle to a connection, carried inside actor
/// messages so the Selector/Coordinator can answer a device long after
/// the request frame was enqueued. Sends count against the endpoint the
/// sink was taken from.
#[derive(Clone)]
pub struct WireSink {
    inner: SinkInner,
}

#[derive(Clone)]
enum SinkInner {
    /// Discards everything (placeholder for tests and lost peers).
    Null,
    Channel {
        tx: Sender<Queued>,
        counters: Arc<WireCounters>,
    },
    Tcp {
        write: Arc<fl_race::Mutex<WriteHalf>>,
        counters: Arc<WireCounters>,
    },
}

impl fmt::Debug for WireSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.inner {
            SinkInner::Null => "null",
            SinkInner::Channel { .. } => "channel",
            SinkInner::Tcp { .. } => "tcp",
        };
        write!(f, "WireSink({kind})")
    }
}

impl WireSink {
    /// A sink that drops every frame — for tests and as a stand-in when
    /// the peer is already known to be gone.
    pub fn null() -> WireSink {
        WireSink {
            inner: SinkInner::Null,
        }
    }

    /// The connection this sink writes to, as a value to compare: every
    /// sink taken from one endpoint has the same one, and sinks of two
    /// live endpoints differ. Devices a gateway multiplexes on one
    /// connection share it.
    pub fn link(&self) -> usize {
        match &self.inner {
            SinkInner::Null => 0,
            SinkInner::Channel { counters, .. } | SinkInner::Tcp { counters, .. } => {
                Arc::as_ptr(counters) as usize
            }
        }
    }

    /// Encodes and transmits one message; returns the frame size.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the peer is gone, [`WireError::Io`] on
    /// socket failure. Server code typically ignores the error: a dead
    /// device simply misses its reply (Sec. 2.3's best-effort pacing).
    pub fn send(&self, msg: &WireMessage) -> Result<usize, WireError> {
        match &self.inner {
            SinkInner::Null => Ok(0),
            SinkInner::Channel { tx, counters } => {
                channel_send(tx, counters, Queued::Owned(encode_spare(msg)?))
            }
            SinkInner::Tcp { write, counters } => write.lock().send(msg, counters),
        }
    }

    /// Sends a round's Configuration; returns the bytes sent. `digest` is
    /// the round plan's [`crate::plan_digest`]; `slim` and `full` hand out
    /// the round's [`tag::PLAN_DIGEST_AND_CHECKPOINT`] and
    /// [`WireMessage::PlanAndCheckpoint`] frames, each behind an `Arc`, and
    /// the link asks only for the one it sends, so a sender that sends one
    /// round's frames to many links encodes each on first use, and only if
    /// some link needs it.
    ///
    /// A TCP link writes the slim frame when the last plan it wrote whole
    /// has this digest, and otherwise the full frame, recording the digest
    /// once the write succeeds. Both ends keep one slot, TCP is ordered
    /// and lossless, and every frame on the connection passes this half's
    /// write lock, so the peer's [`PlanSlot`] holds that plan when the slim
    /// frame arrives. A channel link always queues a reference to the full
    /// frame, not a copy: it costs nothing to send again, and the frame is
    /// never written to while a link holds it (it is behind an `Arc`).
    ///
    /// # Errors
    ///
    /// As [`WireSink::send`], and whatever `slim` or `full` returns.
    pub fn send_configuration(
        &self,
        digest: u64,
        slim: impl FnOnce() -> Result<Arc<Vec<u8>>, WireError>,
        full: impl FnOnce() -> Result<Arc<Vec<u8>>, WireError>,
    ) -> Result<usize, WireError> {
        match &self.inner {
            SinkInner::Null => Ok(0),
            SinkInner::Channel { tx, counters } => {
                channel_send(tx, counters, Queued::Shared(full()?))
            }
            SinkInner::Tcp { write, counters } => {
                let mut half = write.lock();
                if half.plan == Some(digest) {
                    return write_frame(&half.stream, &slim()?, counters);
                }
                half.plan = None;
                let sent = write_frame(&half.stream, &full()?, counters)?;
                half.plan = Some(digest);
                Ok(sent)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode;
    use fl_core::{DeviceId, PopulationName, RoundId};
    use std::net::TcpListener;

    /// The pool is process-wide and tests run in parallel threads, so the
    /// tests that look into it take turns (on a private lock graph: this
    /// lock is held while the pool's own is taken).
    static POOL_TESTS: LazyLock<fl_race::Mutex<()>> = LazyLock::new(|| {
        let site = Site::new("test/wire.pool_tests", 100);
        fl_race::Mutex::new_in(site, &fl_race::LockGraph::new(), ())
    });

    /// Empties the pool; only for a test holding [`POOL_TESTS`].
    fn drain() {
        *SPARES.lock() = Spares::default();
    }

    fn pool() -> (usize, usize) {
        let spares = SPARES.lock();
        assert_eq!(
            spares.bytes,
            spares.bufs.iter().map(Vec::capacity).sum::<usize>()
        );
        (spares.bufs.len(), spares.bytes)
    }

    #[test]
    fn recycling_ten_times_the_cap_keeps_the_count_and_byte_bounds() {
        let _turn = POOL_TESTS.lock();
        drain();
        for _ in 0..10 * SPARE_COUNT {
            recycle(Vec::with_capacity(SPARE_FLOOR));
        }
        assert_eq!(pool(), (SPARE_COUNT, SPARE_COUNT * SPARE_FLOOR));
        drain();
        for _ in 0..10 * SPARE_COUNT {
            recycle(Vec::with_capacity(SPARE_BYTES / 3));
        }
        assert_eq!(pool(), (3, 3 * (SPARE_BYTES / 3)));
    }

    #[test]
    fn buffers_below_the_floor_or_over_the_byte_cap_are_dropped() {
        let _turn = POOL_TESTS.lock();
        drain();
        recycle(Vec::with_capacity(SPARE_FLOOR - 1));
        recycle(Vec::with_capacity(SPARE_BYTES + 1));
        assert_eq!(pool(), (0, 0));
        recycle(Vec::with_capacity(SPARE_FLOOR));
        assert_eq!(pool(), (1, SPARE_FLOOR));
        // A frame under the floor is not served from the pool either.
        assert_eq!(spare(SPARE_FLOOR - 1).capacity(), SPARE_FLOOR - 1);
        assert_eq!(spare(SPARE_FLOOR).capacity(), SPARE_FLOOR);
        assert_eq!(pool(), (0, 0));
    }

    /// A report frame large enough to be read into a spare.
    fn large_frame() -> Vec<u8> {
        encode(&WireMessage::UpdateReport {
            device: DeviceId(5),
            round: RoundId(2),
            attempt: 1,
            update_bytes: vec![0x5A; SPARE_FLOOR + 1_000],
            weight: 1,
            loss: 0.5,
            accuracy: 0.5,
            population: PopulationName::new("spares/pop"),
        })
        .unwrap()
    }

    /// Empties the pool but for `stale`, then sends `frame` over a fresh
    /// TCP pair cut at `cuts`: each piece after the first is written only
    /// once a receive has timed out on the frame so far. The frame must
    /// arrive byte-exact, in `stale`'s own buffer.
    fn reads_back_through_a_stale_spare(stale: Vec<u8>, frame: &[u8], cuts: &[usize]) {
        let _turn = POOL_TESTS.lock();
        drain();
        let at = stale.as_ptr();
        recycle(stale);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = TcpTransport::new(listener.accept().unwrap().0).unwrap();
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(frame.len());
        let pieces: Vec<Vec<u8>> = bounds
            .windows(2)
            .map(|w| frame[w[0]..w[1]].to_vec())
            .collect();
        let (next, turn) = crossbeam::channel::unbounded::<()>();
        let writer = std::thread::spawn(move || {
            for piece in pieces {
                turn.recv().unwrap();
                client.write_all(&piece).unwrap();
            }
        });
        for _ in cuts {
            next.send(()).unwrap();
            assert_eq!(
                server.recv_frame_timeout(Duration::from_millis(50)),
                Err(WireError::Timeout)
            );
        }
        next.send(()).unwrap();
        let got = server.recv_frame_timeout(Duration::from_secs(5)).unwrap();
        writer.join().unwrap();
        assert_eq!(
            got.as_ptr(),
            at,
            "the receive read into the recycled buffer"
        );
        assert_eq!(got.len(), frame.len());
        assert!(got == frame, "a stale byte of the recycled buffer leaked");
    }

    #[test]
    fn a_recycled_buffer_of_the_frames_length_reads_back_byte_exact() {
        let frame = large_frame();
        reads_back_through_a_stale_spare(vec![0xAA; frame.len()], &frame, &[]);
    }

    #[test]
    fn a_recycled_buffer_leaks_no_stale_tail_into_a_shorter_frame() {
        let frame = large_frame();
        reads_back_through_a_stale_spare(vec![0xAA; 2 * frame.len()], &frame, &[]);
    }

    #[test]
    fn a_recycled_buffer_shorter_than_the_frame_reads_back_byte_exact() {
        let frame = large_frame();
        // Shorter than the frame, and shorter than its header.
        for len in [frame.len() / 2, 3] {
            let mut stale = Vec::with_capacity(frame.len());
            stale.resize(len, 0xAA);
            reads_back_through_a_stale_spare(stale, &frame, &[]);
        }
    }

    #[test]
    fn a_frame_resumed_across_two_timeouts_reads_back_byte_exact() {
        let frame = large_frame();
        let cuts = [HEADER_LEN + 1_000, frame.len() / 2];
        reads_back_through_a_stale_spare(vec![0xAA; 2 * frame.len()], &frame, &cuts);
    }

    #[test]
    fn a_draw_takes_the_smallest_spare_that_fits() {
        let _turn = POOL_TESTS.lock();
        drain();
        // The larger spare is the later one, which a draw of the latest
        // fit would take.
        recycle(Vec::with_capacity(33_000));
        recycle(Vec::with_capacity(1 << 20));
        assert_eq!(spare(33_000).capacity(), 33_000);
        assert_eq!(pool(), (1, 1 << 20));
        drain();
    }

    /// The report `large_frame` encodes, as a message to send.
    fn large_report() -> WireMessage {
        decode(&large_frame()).unwrap()
    }

    #[test]
    fn every_channel_send_writes_into_a_recycled_buffer() {
        let _turn = POOL_TESTS.lock();
        let msg = large_report();
        let frame = large_frame();
        let (device, server) = ChannelTransport::pair();
        let sink = server.sink();
        let sends: [&dyn Fn() -> Result<usize, WireError>; 3] = [
            &|| device.send(&msg),
            &|| device.send_frame_bytes(&frame),
            &|| sink.send(&msg),
        ];
        for (i, send) in sends.iter().enumerate() {
            drain();
            // Stale bytes past the frame's length, too.
            let stale = vec![0xAA; 2 * frame.len()];
            let at = stale.as_ptr();
            recycle(stale);
            assert_eq!(send().unwrap(), frame.len());
            let got = if i < 2 {
                server.recv_frame_timeout(Duration::ZERO).unwrap()
            } else {
                device.recv_frame_timeout(Duration::ZERO).unwrap()
            };
            assert_eq!(got.as_ptr(), at, "send {i} wrote into the recycled buffer");
            assert!(
                got == frame,
                "send {i} leaked a stale byte of the recycled buffer"
            );
            assert_eq!(pool(), (0, 0));
        }
    }

    #[test]
    fn a_shared_frame_never_enters_the_pool_and_is_never_written_to() {
        let _turn = POOL_TESTS.lock();
        drain();
        let bytes = large_frame();
        let mut shared = Arc::new(bytes.clone());
        let at = shared.as_ptr();
        let (device, server) = ChannelTransport::pair();
        for _ in 0..2 {
            let full = || Ok(Arc::clone(&shared));
            server
                .sink()
                .send_configuration(0, || Ok(Arc::default()), full)
                .unwrap();
        }
        assert_eq!(
            Arc::strong_count(&shared),
            3,
            "the links hold the frame, not a copy"
        );
        // A receiver that takes the frame's bytes gets a copy of its own,
        // and that copy is what its last owner recycles.
        let copy = device.recv_frame_timeout(Duration::ZERO).unwrap();
        assert_ne!(copy.as_ptr(), at);
        assert!(copy == bytes);
        recycle(copy);
        assert_eq!(device.recv_timeout(Duration::ZERO).unwrap(), large_report());
        // Sends draw the pool dry and write each spare they draw.
        for _ in 0..3 {
            device.send(&large_report()).unwrap();
            recycle(server.recv_frame_timeout(Duration::ZERO).unwrap());
        }
        assert!(SPARES.lock().bufs.iter().all(|buf| buf.as_ptr() != at));
        assert!(*shared == bytes, "a byte of the shared frame changed");
        // Every link has let go, so the sender may write it again.
        assert!(Arc::get_mut(&mut shared).is_some());
        drain();
    }

    #[test]
    fn one_shared_configuration_reaches_64_channel_devices() {
        let model = fl_core::plan::ModelSpec::Logistic {
            dim: 256,
            classes: 16,
            seed: 0,
        };
        let msg = WireMessage::PlanAndCheckpoint {
            plan: Box::new(fl_core::plan::FlPlan::standard_training(
                model,
                1,
                16,
                0.1,
                fl_core::plan::CodecSpec::Identity,
            )),
            checkpoint: Box::new(fl_core::FlCheckpoint::new(
                "train",
                RoundId(4),
                vec![0.5; model.num_params()],
            )),
            population: PopulationName::new("spares/config"),
        };
        let frame = Arc::new(encode(&msg).unwrap());
        assert!(frame.len() > 32 * 1024, "{} bytes", frame.len());
        let links: Vec<_> = (0..64).map(|_| ChannelTransport::pair()).collect();
        for (_, server) in &links {
            let full = || Ok(Arc::clone(&frame));
            let sent = server
                .sink()
                .send_configuration(0, || Ok(Arc::default()), full);
            assert_eq!(sent.unwrap(), frame.len());
        }
        let mut sent = WireStats::default();
        for (device, server) in &links {
            assert_eq!(device.recv_timeout(Duration::ZERO).unwrap(), msg);
            sent = sent + server.stats();
        }
        assert_eq!(sent.frames_sent, 64);
        assert_eq!(sent.bytes_sent, 64 * frame.len() as u64);
        assert_eq!(Arc::strong_count(&frame), 1);
    }
}
