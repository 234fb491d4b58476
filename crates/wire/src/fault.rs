//! Deterministic network-fault injection at the frame boundary.
//!
//! [`FaultyTransport`] wraps any [`Transport`] (the in-memory channel
//! pair or a real TCP link) and mangles frames on the *send* path
//! according to a [`FaultScript`]: drop, duplicate, delay/reorder,
//! byte-flip corruption, truncate-mid-frame, or a hard disconnect.
//! Like `ScriptedFaults` in `fl-actors`, every decision is a pure
//! function of `(script, frame index)` — replaying the same script over
//! the same traffic mangles exactly the same bytes, which is what lets
//! `tests/wire_chaos.rs` assert byte-identical reports per seed.
//!
//! Faults are injected *after* the sender's codec has produced a valid
//! frame, so what the peer sees is what a lossy or bit-flipping network
//! would deliver: the receiving endpoint must survive it with a typed
//! [`WireError`], never a panic (the Sec. 2.2 contract — devices "may
//! drop out at any time", and so may their packets).

use crate::frame::{encode, WireError};
use crate::message::WireMessage;
use crate::transport::{Transport, WireSink, WireStats};
use fl_race::Site;
use std::fmt;
use std::time::Duration;

/// Lock site for a fault script's mutable state (below the TCP halves
/// so a fault decision may nest into a real socket send; DESIGN.md
/// §7.1).
const FAULT_SITE: Site = Site::new("wire/fault.script", 68);

/// `splitmix64` — the same mixer the chaos harness uses for schedule
/// derivation, so fault positions are seed-stable across platforms.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What happens to one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Pass the frame through untouched.
    Deliver,
    /// Swallow the frame. The send still reports success — the loss
    /// happened "on the network", after the sender's stack accepted it.
    Drop,
    /// Deliver the frame twice back-to-back (a retransmit the original
    /// of which was not actually lost).
    Duplicate,
    /// Hold the frame and release it after the *next* send — a reorder
    /// window of one frame.
    Delay,
    /// XOR one script-chosen byte before delivery (bit rot; may land in
    /// the header or the body).
    Corrupt,
    /// Deliver only a script-chosen proper prefix of the frame.
    Truncate,
    /// Fail this and every later send with [`WireError::Closed`].
    Disconnect,
}

/// A deterministic per-frame fault plan: frame `i` gets `scripted[i]`,
/// and frames past the script's end are delivered clean. Corruption and
/// truncation positions are derived from `(seed, frame index)`, so a
/// plan needs a seed only if it mangles bytes.
#[derive(Debug, Clone)]
pub struct FaultScript {
    seed: u64,
    scripted: Vec<FrameFault>,
}

impl FaultScript {
    /// A script that never injects anything — the overhead-measurement
    /// baseline for `bench_wire`.
    pub fn clean() -> FaultScript {
        FaultScript {
            seed: 0,
            scripted: Vec::new(),
        }
    }

    /// An explicit per-frame script; frames past the end are delivered
    /// clean. `seed` feeds corruption/truncation positions.
    pub fn scripted(seed: u64, faults: Vec<FrameFault>) -> FaultScript {
        FaultScript {
            seed,
            scripted: faults,
        }
    }

    /// The fault assigned to frame `index` (0-based send order).
    pub fn fault_for(&self, index: u64) -> FrameFault {
        self.scripted
            .get(index as usize)
            .copied()
            .unwrap_or(FrameFault::Deliver)
    }

    /// Flips one byte of `frame` at a `(seed, index)`-derived position
    /// with a derived non-zero mask.
    fn corrupt(&self, index: u64, frame: &[u8]) -> Vec<u8> {
        let mut out = frame.to_vec();
        if !out.is_empty() {
            let mix = splitmix64(self.seed ^ !index);
            let pos = (mix % out.len() as u64) as usize;
            let mask = ((mix >> 16) % 255) as u8 + 1;
            out[pos] ^= mask;
        }
        out
    }

    /// Keeps a `(seed, index)`-derived proper prefix of `frame`.
    fn truncate(&self, index: u64, frame: &[u8]) -> Vec<u8> {
        if frame.len() <= 1 {
            return Vec::new();
        }
        let mix = splitmix64(self.seed.rotate_left(17) ^ index);
        let keep = 1 + (mix % (frame.len() as u64 - 1)) as usize;
        frame[..keep].to_vec()
    }
}

/// Counts of injected faults, by kind — the injector-side ledger a
/// chaos run checks its endpoint-side telemetry against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames passed through untouched.
    pub delivered: u64,
    /// Frames swallowed.
    pub dropped: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames held for one-frame reordering.
    pub delayed: u64,
    /// Frames with one byte flipped.
    pub corrupted: u64,
    /// Frames cut to a prefix.
    pub truncated: u64,
    /// Sends refused after a scripted [`FrameFault::Disconnect`].
    pub disconnects: u64,
}

/// Mutable injector state, guarded by one `fl_race` site.
#[derive(Debug)]
struct FaultState {
    script: FaultScript,
    frame_index: u64,
    /// A [`FrameFault::Delay`]ed frame awaiting the next send.
    held: Option<Vec<u8>>,
    disconnected: bool,
    stats: FaultStats,
}

/// A [`Transport`] decorator that mangles outbound frames per a
/// [`FaultScript`]. Receives pass straight through — to fault both
/// directions of a link, wrap both endpoints.
pub struct FaultyTransport<T> {
    inner: T,
    state: fl_race::Mutex<FaultState>,
}

impl<T: fmt::Debug> fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("inner", &self.inner)
            .field("faults", &self.fault_stats())
            .finish()
    }
}

impl<T> FaultyTransport<T> {
    /// Wraps `inner`; every future send consults `script` in order.
    pub fn new(inner: T, script: FaultScript) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            state: fl_race::Mutex::new(
                FAULT_SITE,
                FaultState {
                    script,
                    frame_index: 0,
                    held: None,
                    disconnected: false,
                    stats: FaultStats::default(),
                },
            ),
        }
    }

    /// The injector-side fault ledger so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().stats
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Force-sends a frame still held by a [`FrameFault::Delay`] (a
    /// stream that ends on a delayed frame would otherwise never emit
    /// it).
    ///
    /// # Errors
    ///
    /// As [`Transport::send`].
    // fl-lint: allow(test-only-pub): tests/transport.rs flushes a held frame with it
    pub fn flush_delayed(&self) -> Result<(), WireError> {
        let mut st = self.state.lock();
        if st.disconnected {
            return Ok(());
        }
        if let Some(frame) = st.held.take() {
            self.inner.send_frame_bytes(&frame)?;
        }
        Ok(())
    }

    fn apply_send(&self, frame: &[u8]) -> Result<usize, WireError> {
        let mut st = self.state.lock();
        if st.disconnected {
            st.stats.disconnects += 1;
            return Err(WireError::Closed);
        }
        let index = st.frame_index;
        st.frame_index += 1;
        let fault = st.script.fault_for(index);
        let n = frame.len();
        match fault {
            FrameFault::Deliver => {
                st.stats.delivered += 1;
                self.inner.send_frame_bytes(frame)?;
            }
            FrameFault::Drop => {
                st.stats.dropped += 1;
            }
            FrameFault::Duplicate => {
                st.stats.duplicated += 1;
                self.inner.send_frame_bytes(frame)?;
                self.inner.send_frame_bytes(frame)?;
            }
            FrameFault::Delay => {
                st.stats.delayed += 1;
                let previous = st.held.replace(frame.to_vec());
                if let Some(prev) = previous {
                    self.inner.send_frame_bytes(&prev)?;
                }
                // The held frame flushes after the next send; a Drop of
                // the current frame still flushes (the network reordered
                // around a loss).
                return Ok(n);
            }
            FrameFault::Corrupt => {
                st.stats.corrupted += 1;
                let mangled = st.script.corrupt(index, frame);
                self.inner.send_frame_bytes(&mangled)?;
            }
            FrameFault::Truncate => {
                st.stats.truncated += 1;
                let cut = st.script.truncate(index, frame);
                if !cut.is_empty() {
                    self.inner.send_frame_bytes(&cut)?;
                }
            }
            FrameFault::Disconnect => {
                st.disconnected = true;
                st.held = None;
                st.stats.disconnects += 1;
                return Err(WireError::Closed);
            }
        }
        if let Some(held) = st.held.take() {
            self.inner.send_frame_bytes(&held)?;
        }
        Ok(n)
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, msg: &WireMessage) -> Result<usize, WireError> {
        let frame = encode(msg)?;
        self.apply_send(&frame)
    }

    fn send_frame_bytes(&self, frame: &[u8]) -> Result<usize, WireError> {
        self.apply_send(frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, WireError> {
        self.inner.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Result<Option<WireMessage>, WireError> {
        self.inner.try_recv()
    }

    fn sink(&self) -> WireSink {
        self.inner.sink()
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }
}
