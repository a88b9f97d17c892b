//! The `reads-net` wire protocol.
//!
//! Every message on a gateway connection is one *wire frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0x52445331 ("RDS1"), big-endian
//!      4     1  version    PROTOCOL_VERSION (1)
//!      5     1  kind       message kind tag
//!      6     2  flags      reserved, must be zero
//!      8     4  len        payload length in bytes, big-endian
//!     12   len  payload    kind-specific body
//! 12+len     4  crc32      CRC-32 (IEEE 802.3) over header + payload
//! ```
//!
//! The payload of a [`Msg::HubData`] frame embeds the existing
//! [`HubPacket`] codec (length-prefixed, Fletcher-16-checked), so the hub
//! packet bytes on TCP are byte-identical to what the simulated Ethernet
//! fault plane corrupts — one codec, two transports. Verdicts carry f64
//! *bit patterns*, so a verdict that crosses the wire is bit-identical to
//! the in-process [`DeblendVerdict`].
//!
//! Both checksums run at memory speed without changing a byte: [`crc32`]
//! folds 16 bytes per step through compile-time slicing tables, and the
//! hub packets' Fletcher-16 reduces modulo 255 once per block instead of
//! once per byte. The byte fixtures in this module's tests pin every
//! message kind to the bytes the bytewise codec produced. Encoding writes
//! the header, the payload in place and the CRC into one caller-owned
//! buffer ([`encode_msg_into`], [`encode_hub_data_into`]), so a client's
//! tick burst or a gateway's verdict needs no per-message temporaries.
//!
//! Decoding is incremental and panic-free: [`FrameDecoder`] consumes
//! arbitrary byte chunks, yields complete messages, returns typed
//! [`WireError`]s for malformed input, and never allocates more than
//! [`MAX_PAYLOAD`] + one read chunk no matter what the peer sends (a
//! declared length is validated *before* any buffer grows to meet it).

use reads_blm::acnet::DeblendVerdict;
use reads_blm::hubs::{DecodeError, HubPacket};

/// Magic tag leading every wire frame (`"RDS1"`).
pub const WIRE_MAGIC: u32 = 0x5244_5331;

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size (magic + version + kind + flags + len).
pub const HEADER_LEN: usize = 12;

/// CRC trailer size.
pub const TRAILER_LEN: usize = 4;

/// Hard cap on a declared payload length. The largest legitimate message
/// is a 260-monitor verdict (~4.2 KiB); 64 KiB leaves generous headroom
/// while bounding what a malicious length field can make the decoder
/// buffer.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// The role a client declares in its `Hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Pushes hub packets into the gateway.
    Producer,
    /// Receives the verdict stream.
    Subscriber,
}

/// One decoded wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Connection handshake: the client's declared role.
    Hello {
        /// Declared role.
        role: Role,
    },
    /// One hub packet of one chain's 3 ms tick.
    HubData {
        /// Hub-chain (sector) index.
        chain: u32,
        /// The hub packet, carried in its native codec.
        packet: HubPacket,
    },
    /// Gateway → producer: the frame `(chain, sequence)` assembled fully
    /// and was accepted into the inference engine's queues.
    FrameAck {
        /// Hub-chain index.
        chain: u32,
        /// Frame sequence within the chain.
        sequence: u32,
    },
    /// Gateway → subscriber: one de-blending verdict.
    Verdict(VerdictMsg),
    /// Administrative graceful-shutdown request.
    Shutdown,
    /// Client → gateway: reconnect handshake. Replaces `Hello` on a
    /// reconnecting client: names the session to resume, re-declares the
    /// role (the gateway must be able to serve a fresh session when the
    /// old one expired), and carries the client's per-chain delivery
    /// watermarks — for a producer the highest acked sequence per chain,
    /// for a subscriber the highest verdict sequence seen per chain — so
    /// the gateway replays only what the client provably missed.
    Resume {
        /// Session to resume (`0` = none yet; always answered fresh).
        session_id: u64,
        /// Declared role, authoritative when the session cannot resume.
        role: Role,
        /// Per-chain `(chain, highest delivered sequence)` watermarks.
        acked: Vec<(u32, u32)>,
    },
    /// Gateway → client: handshake answer to `Hello` or `Resume`. Carries
    /// the session id to present on the next `Resume`, and whether the
    /// named session actually resumed (`false` = fresh session — any
    /// server-side replay state is gone).
    Welcome {
        /// The session id this connection is bound to.
        session_id: u64,
        /// Whether a `Resume` found its session alive.
        resumed: bool,
    },
    /// Client → gateway: "who owns chain `chain`?" Any fleet member can
    /// answer; a standalone gateway answers with itself. This is how
    /// clients learn the consistent-hash placement lazily instead of
    /// needing fleet topology up front.
    Route {
        /// Hub-chain index being located.
        chain: u32,
    },
    /// Gateway → client: the placement answer — either the reply to an
    /// explicit [`Msg::Route`], or an unsolicited bounce when a producer
    /// sends [`Msg::HubData`] for a chain this gateway does not own
    /// (misroute). Carries enough for the client to retarget: the owning
    /// gateway's fleet id and listen address.
    Redirect {
        /// Hub-chain index the answer is about.
        chain: u32,
        /// Fleet id of the owning gateway.
        gateway_id: u32,
        /// Listen address (`host:port`) of the owning gateway.
        addr: String,
    },
    /// Client → gateway: bind this session to a tenant of the multi-model
    /// registry. Every subsequent `HubData` is routed through the tenant's
    /// live firmware, and a subscriber receives only that tenant's
    /// verdicts. Sessions start on the default tenant (`0`), so clients
    /// that never send this see the single-model protocol unchanged.
    TenantSelect {
        /// Registry tenant id to bind to.
        tenant: u32,
    },
    /// Gateway → client: answer to [`Msg::TenantSelect`] — what the session
    /// is actually bound to. A select for an unknown tenant does **not**
    /// rebind; the reply then describes the tenant the session kept.
    TenantInfo {
        /// Tenant the session is bound to.
        tenant: u32,
        /// Digest of the tenant's live firmware (`0` when none).
        live_digest: u64,
        /// Serving state: `0` = no live variant, `1` = live, `2` = live
        /// with a shadow candidate scoring.
        state: u8,
        /// Human-readable tenant name from the registry.
        name: String,
    },
}

/// A verdict in transit: chain tag plus the in-process verdict. The f64
/// probabilities travel as bit patterns, so transport is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictMsg {
    /// Hub-chain index.
    pub chain: u32,
    /// The verdict (carries its own sequence number).
    pub verdict: DeblendVerdict,
}

/// Message kind tags on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Hello = 1,
    HubData = 2,
    FrameAck = 3,
    Verdict = 4,
    Shutdown = 5,
    Resume = 6,
    Welcome = 7,
    Route = 8,
    Redirect = 9,
    TenantSelect = 10,
    TenantInfo = 11,
}

/// Typed decode failures. None of these panic, and none cause the decoder
/// to allocate for the bad frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Leading bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown message kind tag.
    BadKind(u8),
    /// Reserved flags were non-zero.
    BadFlags(u16),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// CRC-32 mismatch over header + payload.
    BadCrc,
    /// The payload body was malformed for its kind.
    BadPayload,
    /// An embedded hub packet failed its own codec.
    BadHubPacket(DecodeError),
    /// The peer closed the connection in the middle of a wire frame. The
    /// decoder never produces this itself (it just waits for more bytes);
    /// the *reader* raises it when EOF lands with a partial message still
    /// buffered, so reconnect logic can tell a mid-frame cut from a clean
    /// close.
    Truncated,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad wire magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadFlags(x) => write!(f, "reserved flags set: {x:#06x}"),
            WireError::Oversized(n) => write!(f, "declared payload {n} exceeds {MAX_PAYLOAD}"),
            WireError::BadCrc => write!(f, "crc32 mismatch"),
            WireError::BadPayload => write!(f, "malformed payload"),
            WireError::BadHubPacket(e) => write!(f, "embedded hub packet: {e:?}"),
            WireError::Truncated => write!(f, "connection cut mid-message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes one step of [`crc32`] folds in.
const CRC_SLICE: usize = 16;

/// Slicing-by-16 tables for CRC-32 (IEEE 802.3, reflected, polynomial
/// `0xEDB88320`), computed at compile time. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][i]` is the CRC state after byte `i` is
/// followed by `k` zero bytes, so the 16 lookups of one step are
/// independent of each other.
static CRC_TABLES: [[u32; 256]; CRC_SLICE] = {
    let mut t = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
};

/// CRC-32 over a byte stream (IEEE 802.3), 16 bytes per step.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(CRC_SLICE);
    for b in &mut blocks {
        // The state folds into the first four bytes; the other twelve
        // only need their own table lookup.
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut next = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            next ^= t[11 - k][usize::from(byte)];
        }
        c = next;
    }
    for &byte in blocks.remainder() {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn kind_of(msg: &Msg) -> Kind {
    match msg {
        Msg::Hello { .. } => Kind::Hello,
        Msg::HubData { .. } => Kind::HubData,
        Msg::FrameAck { .. } => Kind::FrameAck,
        Msg::Verdict(_) => Kind::Verdict,
        Msg::Shutdown => Kind::Shutdown,
        Msg::Resume { .. } => Kind::Resume,
        Msg::Welcome { .. } => Kind::Welcome,
        Msg::Route { .. } => Kind::Route,
        Msg::Redirect { .. } => Kind::Redirect,
        Msg::TenantSelect { .. } => Kind::TenantSelect,
        Msg::TenantInfo { .. } => Kind::TenantInfo,
    }
}

fn role_byte(role: Role) -> u8 {
    match role {
        Role::Producer => 0,
        Role::Subscriber => 1,
    }
}

/// Appends the header of a `kind` frame with a zero `len`, runs `payload`
/// to append the body in place, then patches `len` and appends the CRC.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`].
fn frame_into(kind: Kind, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&WIRE_MAGIC.to_be_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&[0; 6]); // flags, then `len` patched below
    payload(out);
    let len = out.len() - start - HEADER_LEN;
    assert!(len <= MAX_PAYLOAD, "payload exceeds MAX_PAYLOAD");
    out[start + 8..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

fn put_hub_data(out: &mut Vec<u8>, chain: u32, packet: &HubPacket) {
    out.reserve(4 + packet.encoded_len() + TRAILER_LEN);
    out.extend_from_slice(&chain.to_be_bytes());
    packet.encode_into(out);
}

/// Appends the [`Msg::HubData`] frame for `packet` of `chain` to `out`
/// without cloning the packet: the same bytes as
/// `encode_msg(&Msg::HubData { chain, packet: packet.clone() })`.
pub fn encode_hub_data_into(chain: u32, packet: &HubPacket, out: &mut Vec<u8>) {
    frame_into(Kind::HubData, out, |out| put_hub_data(out, chain, packet));
}

/// Appends each f64's bit pattern, big-endian.
fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    let at = out.len();
    out.resize(at + 8 * xs.len(), 0);
    for (dst, x) in out[at..].chunks_exact_mut(8).zip(xs) {
        dst.copy_from_slice(&x.to_bits().to_be_bytes());
    }
}

/// Appends one message's complete wire frame to `out`: header, payload
/// written in place, then the CRC. Encoding a burst into one reused
/// buffer costs no allocation once the buffer has grown.
///
/// # Panics
/// Panics if the payload would exceed [`MAX_PAYLOAD`] — only possible by
/// constructing a verdict far larger than the 260-monitor ring, which is a
/// caller bug, not a wire condition.
pub fn encode_msg_into(msg: &Msg, out: &mut Vec<u8>) {
    frame_into(kind_of(msg), out, |out| match msg {
        Msg::Hello { role } => out.push(role_byte(*role)),
        Msg::HubData { chain, packet } => put_hub_data(out, *chain, packet),
        Msg::FrameAck { chain, sequence } => {
            out.extend_from_slice(&chain.to_be_bytes());
            out.extend_from_slice(&sequence.to_be_bytes());
        }
        Msg::Verdict(v) => {
            let n = v.verdict.mi.len();
            assert_eq!(n, v.verdict.rr.len(), "verdict halves must match");
            out.reserve(10 + 16 * n + TRAILER_LEN);
            out.extend_from_slice(&v.chain.to_be_bytes());
            out.extend_from_slice(&v.verdict.sequence.to_be_bytes());
            out.extend_from_slice(&(n as u16).to_be_bytes());
            put_f64s(out, &v.verdict.mi);
            put_f64s(out, &v.verdict.rr);
        }
        Msg::Shutdown => {}
        Msg::Resume {
            session_id,
            role,
            acked,
        } => {
            assert!(
                acked.len() <= usize::from(u16::MAX),
                "resume watermark list exceeds u16 count"
            );
            out.reserve(11 + 8 * acked.len() + TRAILER_LEN);
            out.extend_from_slice(&session_id.to_be_bytes());
            out.push(role_byte(*role));
            out.extend_from_slice(&(acked.len() as u16).to_be_bytes());
            for (chain, seq) in acked {
                out.extend_from_slice(&chain.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
            }
        }
        Msg::Welcome {
            session_id,
            resumed,
        } => {
            out.extend_from_slice(&session_id.to_be_bytes());
            out.push(u8::from(*resumed));
        }
        Msg::Route { chain } => out.extend_from_slice(&chain.to_be_bytes()),
        Msg::Redirect {
            chain,
            gateway_id,
            addr,
        } => {
            let bytes = addr.as_bytes();
            assert!(
                bytes.len() <= usize::from(u16::MAX),
                "redirect address exceeds u16 length"
            );
            out.extend_from_slice(&chain.to_be_bytes());
            out.extend_from_slice(&gateway_id.to_be_bytes());
            out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(bytes);
        }
        Msg::TenantSelect { tenant } => out.extend_from_slice(&tenant.to_be_bytes()),
        Msg::TenantInfo {
            tenant,
            live_digest,
            state,
            name,
        } => {
            let bytes = name.as_bytes();
            assert!(
                bytes.len() <= usize::from(u16::MAX),
                "tenant name exceeds u16 length"
            );
            out.extend_from_slice(&tenant.to_be_bytes());
            out.extend_from_slice(&live_digest.to_be_bytes());
            out.push(*state);
            out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
            out.extend_from_slice(bytes);
        }
    });
}

/// Encodes one message into a complete wire frame (see
/// [`encode_msg_into`]).
///
/// # Panics
/// As [`encode_msg_into`].
#[must_use]
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    // Room for every fixed-size message; verdicts, hub data and resume
    // lists reserve their own size before writing.
    let mut out = Vec::with_capacity(HEADER_LEN + 32 + TRAILER_LEN);
    encode_msg_into(msg, &mut out);
    out
}

fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Reads consecutive big-endian f64 bit patterns.
fn be_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| {
            f64::from_bits(u64::from_be_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]))
        })
        .collect()
}

fn decode_payload(kind: u8, p: &[u8]) -> Result<Msg, WireError> {
    match kind {
        k if k == Kind::Hello as u8 => match p {
            [0] => Ok(Msg::Hello {
                role: Role::Producer,
            }),
            [1] => Ok(Msg::Hello {
                role: Role::Subscriber,
            }),
            _ => Err(WireError::BadPayload),
        },
        k if k == Kind::HubData as u8 => {
            if p.len() < 4 {
                return Err(WireError::BadPayload);
            }
            let chain = be_u32(p);
            let packet = HubPacket::decode(&p[4..]).map_err(WireError::BadHubPacket)?;
            Ok(Msg::HubData { chain, packet })
        }
        k if k == Kind::FrameAck as u8 => {
            if p.len() != 8 {
                return Err(WireError::BadPayload);
            }
            Ok(Msg::FrameAck {
                chain: be_u32(p),
                sequence: be_u32(&p[4..]),
            })
        }
        k if k == Kind::Verdict as u8 => {
            if p.len() < 10 {
                return Err(WireError::BadPayload);
            }
            let chain = be_u32(p);
            let sequence = be_u32(&p[4..]);
            let n = usize::from(u16::from_be_bytes([p[8], p[9]]));
            if p.len() != 10 + 16 * n {
                return Err(WireError::BadPayload);
            }
            let (mi, rr) = p[10..].split_at(8 * n);
            let (mi, rr) = (be_f64s(mi), be_f64s(rr));
            Ok(Msg::Verdict(VerdictMsg {
                chain,
                verdict: DeblendVerdict { sequence, mi, rr },
            }))
        }
        k if k == Kind::Shutdown as u8 => {
            if p.is_empty() {
                Ok(Msg::Shutdown)
            } else {
                Err(WireError::BadPayload)
            }
        }
        k if k == Kind::Resume as u8 => {
            if p.len() < 11 {
                return Err(WireError::BadPayload);
            }
            let mut sid = [0u8; 8];
            sid.copy_from_slice(&p[..8]);
            let role = match p[8] {
                0 => Role::Producer,
                1 => Role::Subscriber,
                _ => return Err(WireError::BadPayload),
            };
            let n = usize::from(u16::from_be_bytes([p[9], p[10]]));
            if p.len() != 11 + 8 * n {
                return Err(WireError::BadPayload);
            }
            let acked = (0..n)
                .map(|i| {
                    let o = 11 + 8 * i;
                    (be_u32(&p[o..]), be_u32(&p[o + 4..]))
                })
                .collect();
            Ok(Msg::Resume {
                session_id: u64::from_be_bytes(sid),
                role,
                acked,
            })
        }
        k if k == Kind::Welcome as u8 => {
            if p.len() != 9 || p[8] > 1 {
                return Err(WireError::BadPayload);
            }
            let mut sid = [0u8; 8];
            sid.copy_from_slice(&p[..8]);
            Ok(Msg::Welcome {
                session_id: u64::from_be_bytes(sid),
                resumed: p[8] == 1,
            })
        }
        k if k == Kind::Route as u8 => {
            if p.len() != 4 {
                return Err(WireError::BadPayload);
            }
            Ok(Msg::Route { chain: be_u32(p) })
        }
        k if k == Kind::Redirect as u8 => {
            if p.len() < 10 {
                return Err(WireError::BadPayload);
            }
            let chain = be_u32(p);
            let gateway_id = be_u32(&p[4..]);
            let n = usize::from(u16::from_be_bytes([p[8], p[9]]));
            if p.len() != 10 + n {
                return Err(WireError::BadPayload);
            }
            let addr = std::str::from_utf8(&p[10..])
                .map_err(|_| WireError::BadPayload)?
                .to_string();
            Ok(Msg::Redirect {
                chain,
                gateway_id,
                addr,
            })
        }
        k if k == Kind::TenantSelect as u8 => {
            if p.len() != 4 {
                return Err(WireError::BadPayload);
            }
            Ok(Msg::TenantSelect { tenant: be_u32(p) })
        }
        k if k == Kind::TenantInfo as u8 => {
            if p.len() < 15 || p[12] > 2 {
                return Err(WireError::BadPayload);
            }
            let tenant = be_u32(p);
            let mut dig = [0u8; 8];
            dig.copy_from_slice(&p[4..12]);
            let state = p[12];
            let n = usize::from(u16::from_be_bytes([p[13], p[14]]));
            if p.len() != 15 + n {
                return Err(WireError::BadPayload);
            }
            let name = std::str::from_utf8(&p[15..])
                .map_err(|_| WireError::BadPayload)?
                .to_string();
            Ok(Msg::TenantInfo {
                tenant,
                live_digest: u64::from_be_bytes(dig),
                state,
                name,
            })
        }
        k => Err(WireError::BadKind(k)),
    }
}

/// Incremental, panic-free frame decoder.
///
/// Push bytes with [`FrameDecoder::push`], then drain messages with
/// [`FrameDecoder::next_msg`]. On a malformed frame the decoder returns the
/// typed error once and *resynchronizes* by skipping forward to the next
/// plausible magic, so one corrupted frame costs one error, not the
/// connection (the gateway decides whether the error is fatal).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    head: usize,
}

impl FrameDecoder {
    /// Fresh decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so buffered memory stays bounded by the
        // unconsumed tail plus this chunk.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (bounded-memory assertion hook
    /// for tests).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Skips forward to the next byte that could start a frame (used after
    /// an error to resynchronize on a byte stream).
    fn resync(&mut self) {
        let first = WIRE_MAGIC.to_be_bytes()[0];
        self.head += 1; // always make progress past the bad byte
        while self.head < self.buf.len() && self.buf[self.head] != first {
            self.head += 1;
        }
    }

    /// Tries to decode the next complete message.
    ///
    /// * `Ok(Some(msg))` — one message consumed;
    /// * `Ok(None)` — need more bytes (nothing consumed);
    /// * `Err(e)` — malformed frame; the offending bytes are skipped so a
    ///   later call can resynchronize.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, WireError> {
        let avail = &self.buf[self.head..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = be_u32(avail);
        if magic != WIRE_MAGIC {
            self.resync();
            return Err(WireError::BadMagic);
        }
        let version = avail[4];
        let kind = avail[5];
        let flags = u16::from_be_bytes([avail[6], avail[7]]);
        let len = be_u32(&avail[8..12]);
        // Validate the declared length *before* waiting for (or buffering)
        // that many bytes — an adversarial length never grows the buffer.
        if len as usize > MAX_PAYLOAD {
            self.resync();
            return Err(WireError::Oversized(len));
        }
        if version != PROTOCOL_VERSION {
            self.resync();
            return Err(WireError::BadVersion(version));
        }
        if flags != 0 {
            self.resync();
            return Err(WireError::BadFlags(flags));
        }
        let total = HEADER_LEN + len as usize + TRAILER_LEN;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[..HEADER_LEN + len as usize];
        let want = be_u32(&avail[HEADER_LEN + len as usize..total]);
        if crc32(body) != want {
            self.resync();
            return Err(WireError::BadCrc);
        }
        let result = decode_payload(kind, &body[HEADER_LEN..]);
        match result {
            Ok(msg) => {
                self.head += total;
                Ok(Some(msg))
            }
            Err(e) => {
                // The frame was intact (CRC passed) but semantically bad:
                // consume it whole.
                self.head += total;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise CRC-32 [`crc32`] replaced: one table lookup per byte.
    /// The oracle the sliced version must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One message of each of the 11 `RDS1` kinds with the bytes the
    /// bytewise-CRC codec encoded it to. The sliced codec must reproduce
    /// them exactly.
    fn rds1_fixtures() -> Vec<(Msg, &'static str)> {
        vec![
            (
                Msg::Hello {
                    role: Role::Subscriber,
                },
                "5244533101010000000000010186670f1e",
            ),
            (
                Msg::HubData {
                    chain: 3,
                    packet: sample_packet(),
                },
                "52445331010200000000001d00000003b1a5020000004d004b00030001adb000\
                 01b2070001b65e43259e6f5617",
            ),
            (
                Msg::FrameAck {
                    chain: 9,
                    sequence: 1_000_001,
                },
                "52445331010300000000000800000009000f4241b5acb61b",
            ),
            (
                Msg::Verdict(VerdictMsg {
                    chain: 1,
                    verdict: DeblendVerdict {
                        sequence: 42,
                        mi: vec![0.25, -0.0, f64::MIN_POSITIVE],
                        rr: vec![1.0, 2.5e-308, 0.75],
                    },
                }),
                "52445331010400000000003a000000010000002a00033fd00000000000008000\
                 00000000000000100000000000003ff00000000000000011fa182c40c60d3fe8\
                 00000000000000edd688",
            ),
            (Msg::Shutdown, "52445331010500000000000038ffae72"),
            (
                Msg::Resume {
                    session_id: 0xDEAD_BEEF_0042,
                    role: Role::Producer,
                    acked: vec![(0, 17), (3, 1_000_000)],
                },
                "52445331010600000000001b0000deadbeef0042000002000000000000001100\
                 000003000f4240da4ff82e",
            ),
            (
                Msg::Welcome {
                    session_id: 7,
                    resumed: true,
                },
                "524453310107000000000009000000000000000701be776d4b",
            ),
            (
                Msg::Route { chain: 11 },
                "5244533101080000000000040000000b2174b0c2",
            ),
            (
                Msg::Redirect {
                    chain: 11,
                    gateway_id: 2,
                    addr: "127.0.0.1:7313".to_string(),
                },
                "5244533101090000000000180000000b00000002000e3132372e302e302e313a\
                 373331332cca79d0",
            ),
            (
                Msg::TenantSelect { tenant: 2 },
                "52445331010a0000000000040000000200c4b1a7",
            ),
            (
                Msg::TenantInfo {
                    tenant: 2,
                    live_digest: 0xFEED_FACE_CAFE_0042,
                    state: 2,
                    name: "booster-mlp".to_string(),
                },
                "52445331010b00000000001a00000002feedfacecafe004202000b626f6f7374\
                 65722d6d6c70f1b7e56d",
            ),
        ]
    }

    #[test]
    fn every_kind_encodes_to_its_rds1_fixture() {
        let fixtures = rds1_fixtures();
        let kinds: std::collections::BTreeSet<u8> =
            fixtures.iter().map(|(m, _)| kind_of(m) as u8).collect();
        assert_eq!(kinds.len(), 11, "one fixture per message kind");
        // Appending after unrelated bytes must not shift `len` or the CRC.
        let mut appended = vec![0xAB; 5];
        for (msg, want) in &fixtures {
            let bytes = encode_msg(msg);
            assert_eq!(hex(&bytes), *want, "{msg:?}");
            encode_msg_into(msg, &mut appended);
            let mut dec = FrameDecoder::new();
            dec.push(&bytes);
            assert_eq!(dec.next_msg().unwrap().as_ref(), Some(msg));
        }
        let joined: String = fixtures.iter().map(|(_, h)| *h).collect();
        assert_eq!(hex(&appended), format!("{}{joined}", "ab".repeat(5)));
    }

    #[test]
    fn hub_data_into_matches_the_msg_encoding() {
        let mut out = Vec::new();
        encode_hub_data_into(3, &sample_packet(), &mut out);
        let msg = Msg::HubData {
            chain: 3,
            packet: sample_packet(),
        };
        assert_eq!(out, encode_msg(&msg));
    }

    #[test]
    fn full_size_verdict_keeps_its_length_and_crc() {
        let v = VerdictMsg {
            chain: 0,
            verdict: DeblendVerdict {
                sequence: 7,
                mi: (0..260).map(|j| (j as f64 * 0.7177).sin() * 1e-3).collect(),
                rr: (0..260).map(|j| (j as f64 * 1.3).cos()).collect(),
            },
        };
        let bytes = encode_msg(&Msg::Verdict(v));
        assert_eq!(bytes.len(), 4_186);
        assert_eq!(be_u32(&bytes[bytes.len() - TRAILER_LEN..]), 0xA768_7867);
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_on_long_runs_of_ones() {
        for n in [5_802, 5_803, 11_605] {
            let ones = vec![0xFF; n];
            assert_eq!(crc32(&ones), crc32_bytewise(&ones), "{n} bytes");
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_oracle(
            data in prop::collection::vec(any::<u8>(), 0..=12 * 1024),
            offset in 0usize..32,
        ) {
            let tail = &data[offset.min(data.len())..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    fn sample_packet() -> HubPacket {
        HubPacket {
            hub: 2,
            sequence: 77,
            first_monitor: 75,
            counts: vec![110_000, 111_111, 112_222],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_kind_round_trips() {
        let msgs = [
            Msg::Hello {
                role: Role::Producer,
            },
            Msg::Hello {
                role: Role::Subscriber,
            },
            Msg::HubData {
                chain: 3,
                packet: sample_packet(),
            },
            Msg::FrameAck {
                chain: 9,
                sequence: 1_000_001,
            },
            Msg::Verdict(VerdictMsg {
                chain: 1,
                verdict: DeblendVerdict {
                    sequence: 42,
                    mi: vec![0.25, -0.0, f64::MIN_POSITIVE],
                    rr: vec![1.0, 2.5e-308, 0.75],
                },
            }),
            Msg::Shutdown,
            Msg::Resume {
                session_id: 0xDEAD_BEEF_0042,
                role: Role::Producer,
                acked: vec![(0, 17), (3, 1_000_000), (9, 0)],
            },
            Msg::Resume {
                session_id: 0,
                role: Role::Subscriber,
                acked: Vec::new(),
            },
            Msg::Welcome {
                session_id: 7,
                resumed: true,
            },
            Msg::Welcome {
                session_id: u64::MAX,
                resumed: false,
            },
            Msg::Route { chain: 11 },
            Msg::Redirect {
                chain: 11,
                gateway_id: 2,
                addr: "127.0.0.1:7313".to_string(),
            },
            Msg::Redirect {
                chain: 0,
                gateway_id: 0,
                addr: String::new(),
            },
            Msg::TenantSelect { tenant: 2 },
            Msg::TenantInfo {
                tenant: 2,
                live_digest: 0xFEED_FACE_CAFE_0042,
                state: 2,
                name: "booster-mlp".to_string(),
            },
            Msg::TenantInfo {
                tenant: 0,
                live_digest: 0,
                state: 0,
                name: String::new(),
            },
        ];
        let mut dec = FrameDecoder::new();
        for m in &msgs {
            dec.push(&encode_msg(m));
        }
        for m in &msgs {
            assert_eq!(dec.next_msg().unwrap().as_ref(), Some(m));
        }
        assert_eq!(dec.next_msg().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn verdict_bits_survive_transport_exactly() {
        let v = VerdictMsg {
            chain: 0,
            verdict: DeblendVerdict {
                sequence: 7,
                mi: (0..260).map(|j| (j as f64 * 0.7177).sin() * 1e-3).collect(),
                rr: (0..260).map(|j| (j as f64 * 1.3).cos()).collect(),
            },
        };
        let bytes = encode_msg(&Msg::Verdict(v.clone()));
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let Some(Msg::Verdict(back)) = dec.next_msg().unwrap() else {
            panic!("expected verdict");
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.verdict.mi), bits(&v.verdict.mi));
        assert_eq!(bits(&back.verdict.rr), bits(&v.verdict.rr));
    }

    #[test]
    fn partial_pushes_yield_nothing_then_the_message() {
        let bytes = encode_msg(&Msg::FrameAck {
            chain: 1,
            sequence: 2,
        });
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            let got = dec.next_msg().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "byte {i}");
            } else {
                assert!(matches!(got, Some(Msg::FrameAck { .. })));
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_buffering() {
        let mut frame = encode_msg(&Msg::Shutdown);
        // Rewrite len to something absurd; CRC no longer matters because
        // the length check fires first.
        frame[8..12].copy_from_slice(&(u32::MAX).to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_msg(), Err(WireError::Oversized(u32::MAX)));
        assert!(dec.buffered() <= frame.len());
    }

    #[test]
    fn corruption_is_one_typed_error_then_resync() {
        let good = encode_msg(&Msg::FrameAck {
            chain: 5,
            sequence: 6,
        });
        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0x01; // flip one payload bit → CRC fails
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        dec.push(&good);
        assert_eq!(dec.next_msg(), Err(WireError::BadCrc));
        // After resync the clean frame still decodes.
        let mut ok = false;
        for _ in 0..2 * (good.len() + bad.len()) {
            match dec.next_msg() {
                Ok(Some(Msg::FrameAck { chain: 5, .. })) => {
                    ok = true;
                    break;
                }
                Ok(None) => break,
                _ => {}
            }
        }
        assert!(ok, "clean frame lost after corruption");
    }

    #[test]
    fn redirect_with_non_utf8_addr_is_bad_payload() {
        let mut frame = encode_msg(&Msg::Redirect {
            chain: 1,
            gateway_id: 0,
            addr: "x:1".to_string(),
        });
        // Corrupt the address bytes into invalid UTF-8, then re-seal the CRC
        // so only the payload check can object.
        let body_end = frame.len() - TRAILER_LEN;
        frame[body_end - 1] = 0xFF;
        frame[body_end - 2] = 0xC0;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_msg(), Err(WireError::BadPayload));
    }

    #[test]
    fn garbage_never_panics() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0xFF; 64]);
        for _ in 0..256 {
            match dec.next_msg() {
                Ok(None) => break,
                Ok(Some(_)) => panic!("garbage decoded to a message"),
                Err(_) => {}
            }
        }
    }
}
