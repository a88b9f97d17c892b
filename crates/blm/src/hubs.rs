//! BLM hub readout and Ethernet framing.
//!
//! The central node "receives inputs from seven BLM hubs distributed around
//! the accelerator complex" (Sec. III-A). Each hub digitizes a contiguous
//! span of monitors and ships a packet every 3 ms; the HPS reassembles the
//! 260-reading frame. The wire format here is a simple length-prefixed
//! big-endian layout with a Fletcher-16 checksum — enough to exercise real
//! encode/decode/verify code paths on the HPS side of the simulator.

use crate::N_BLM;
use serde::{Deserialize, Serialize};

/// Number of readout hubs (Sec. III-A).
pub const N_HUBS: usize = 7;

/// Magic tag leading every hub packet.
pub const HUB_MAGIC: u16 = 0xB1A5;

/// Readings are shipped as raw digitizer counts in u32.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HubPacket {
    /// Hub index `0..N_HUBS`.
    pub hub: u8,
    /// Frame sequence number (shared across hubs for one 3 ms tick).
    pub sequence: u32,
    /// Index of the first monitor in this hub's span.
    pub first_monitor: u16,
    /// Raw counts for the hub's monitors.
    pub counts: Vec<u32>,
}

/// Monitor span `[start, end)` served by hub `h` — 260 monitors split as
/// evenly as 7 hubs allow (first escapes get the extra monitor: spans of
/// 38,37,37,37,37,37,37).
#[must_use]
pub fn hub_span(h: usize) -> (usize, usize) {
    assert!(h < N_HUBS, "hub index {h}");
    let base = N_BLM / N_HUBS; // 37
    let extra = N_BLM % N_HUBS; // 1
    let start = h * base + h.min(extra);
    let len = base + usize::from(h < extra);
    (start, start + len)
}

/// Longest run of bytes [`fletcher16`] sums before reducing modulo 255.
const FLETCHER_BLOCK: usize = 5_802;

/// Fletcher-16 checksum over a byte stream (modulo 255, `b << 8 | a`).
///
/// The sums run in `u32` and reduce once per block of at most 5 802 bytes
/// instead of once per byte; the residues, hence the checksum, are the
/// same. The bound: entering a block with `a, b ≤ 254`, `n` bytes of
/// `0xFF` leave `b ≤ 254 + 254·n + 255·n(n+1)/2`, which is
/// 4 294 272 227 < 2³² for `n = 5 802` and past `u32::MAX` for `n = 5 803`.
#[must_use]
pub fn fletcher16(data: &[u8]) -> u16 {
    let (mut a, mut b) = (0u32, 0u32);
    for block in data.chunks(FLETCHER_BLOCK) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b << 8) | a) as u16
}

/// Errors while decoding a hub packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic tag mismatch.
    BadMagic,
    /// Declared payload length inconsistent with the buffer.
    BadLength,
    /// Checksum mismatch (corrupted in flight).
    BadChecksum,
    /// Hub index out of range.
    BadHub,
}

impl HubPacket {
    /// Exact length [`HubPacket::encode`] would produce, without encoding
    /// (hot paths price Ethernet ingest per packet and must not pay an
    /// allocation for it).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        11 + 4 * self.counts.len() + 2
    }

    /// Wire-encodes the packet:
    /// `magic u16 | hub u8 | seq u32 | first u16 | n u16 | counts n×u32 | fletcher16 u16`,
    /// all big-endian.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the packet's encoding (see [`HubPacket::encode`]) to `out`;
    /// the checksum covers only the appended bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.extend_from_slice(&HUB_MAGIC.to_be_bytes());
        out.push(self.hub);
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.first_monitor.to_be_bytes());
        out.extend_from_slice(&(self.counts.len() as u16).to_be_bytes());
        for c in &self.counts {
            out.extend_from_slice(&c.to_be_bytes());
        }
        let ck = fletcher16(&out[start..]);
        out.extend_from_slice(&ck.to_be_bytes());
    }

    /// Decodes and verifies one packet.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.len() < 13 {
            return Err(DecodeError::Truncated);
        }
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != HUB_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let hub = buf[2];
        if usize::from(hub) >= N_HUBS {
            return Err(DecodeError::BadHub);
        }
        let sequence = u32::from_be_bytes([buf[3], buf[4], buf[5], buf[6]]);
        let first_monitor = u16::from_be_bytes([buf[7], buf[8]]);
        let n = usize::from(u16::from_be_bytes([buf[9], buf[10]]));
        let expect_len = 11 + 4 * n + 2;
        if buf.len() != expect_len {
            return Err(DecodeError::BadLength);
        }
        let body = &buf[..expect_len - 2];
        let ck = u16::from_be_bytes([buf[expect_len - 2], buf[expect_len - 1]]);
        if fletcher16(body) != ck {
            return Err(DecodeError::BadChecksum);
        }
        let counts = body[11..]
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Self {
            hub,
            sequence,
            first_monitor,
            counts,
        })
    }
}

/// Flips the given `(byte, bit)` sites in a wire buffer in place — the
/// Ethernet fault plane's in-flight corruption model. Out-of-range sites
/// are ignored; returns the number of flips applied. Any *net* change to
/// the buffer is caught by [`HubPacket::decode`]'s checksum or an earlier
/// header check — Fletcher-16 detects all single-bit errors — which is
/// exactly the property the degraded-mode ingest relies on. (A site
/// listed twice cancels itself: XOR semantics, as in hardware.)
pub fn corrupt_wire(buf: &mut [u8], sites: &[(usize, u8)]) -> usize {
    let mut applied = 0;
    for &(byte, bit) in sites {
        if byte < buf.len() && bit < 8 {
            buf[byte] ^= 1 << bit;
            applied += 1;
        }
    }
    applied
}

/// Splits a 260-reading frame into the 7 hub packets for `sequence`.
///
/// # Panics
/// Panics unless exactly [`N_BLM`] readings are provided.
#[must_use]
pub fn split_frame(readings: &[f64], sequence: u32) -> Vec<HubPacket> {
    assert_eq!(readings.len(), N_BLM);
    (0..N_HUBS)
        .map(|h| {
            let (start, end) = hub_span(h);
            HubPacket {
                hub: h as u8,
                sequence,
                first_monitor: start as u16,
                counts: readings[start..end]
                    .iter()
                    .map(|&x| x.round().clamp(0.0, f64::from(u32::MAX)) as u32)
                    .collect(),
            }
        })
        .collect()
}

/// Reassembles a frame from hub packets; all 7 hubs of the same sequence
/// must be present (any order). Returns the readings in counts.
pub fn assemble_frame(packets: &[HubPacket]) -> Result<Vec<f64>, AssembleError> {
    if packets.len() != N_HUBS {
        return Err(AssembleError::MissingHubs);
    }
    let seq = packets[0].sequence;
    let mut readings = vec![f64::NAN; N_BLM];
    let mut seen = [false; N_HUBS];
    for p in packets {
        if p.sequence != seq {
            return Err(AssembleError::MixedSequences);
        }
        let h = usize::from(p.hub);
        if seen[h] {
            return Err(AssembleError::DuplicateHub);
        }
        seen[h] = true;
        let (start, end) = hub_span(h);
        if usize::from(p.first_monitor) != start || p.counts.len() != end - start {
            return Err(AssembleError::SpanMismatch);
        }
        for (i, &c) in p.counts.iter().enumerate() {
            readings[start + i] = f64::from(c);
        }
    }
    Ok(readings)
}

/// One 3 ms tick's packets from one hub chain, tagged with the chain it
/// came from. A production central node serves several accelerator
/// sectors, each with its own seven-hub chain; the sharded inference
/// engine keys its shard assignment on `chain` so per-chain frame order
/// is preserved end to end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainFrame {
    /// Hub-chain (sector) index.
    pub chain: u32,
    /// Frame sequence number within the chain.
    pub sequence: u32,
    /// The chain's seven hub packets for this tick.
    pub packets: Vec<HubPacket>,
}

/// Deterministic multi-chain workload: `chains` independent synthetic
/// beam-loss streams, each backed by its own seeded
/// [`FrameGenerator`](crate::FrameGenerator), emitting one [`ChainFrame`]
/// per chain per 3 ms tick.
#[derive(Debug)]
pub struct MultiChainSource {
    gens: Vec<crate::FrameGenerator>,
    sequence: u32,
}

impl MultiChainSource {
    /// Builds `chains` generators with derived seeds (chain streams are
    /// independent but the whole source is reproducible per seed).
    ///
    /// # Panics
    /// Panics when `chains == 0`.
    #[must_use]
    pub fn new(chains: usize, seed: u64) -> Self {
        assert!(chains > 0, "a source needs at least one chain");
        let gens = (0..chains)
            .map(|c| {
                crate::FrameGenerator::with_defaults(
                    seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        Self { gens, sequence: 0 }
    }

    /// Number of chains.
    #[must_use]
    pub fn chains(&self) -> usize {
        self.gens.len()
    }

    /// Next tick's sequence number (shared across chains, as in the
    /// synchronized distributed-readout deployment).
    #[must_use]
    pub fn next_sequence(&self) -> u32 {
        self.sequence
    }

    /// Emits one tick: every chain's frame, split into hub packets.
    pub fn tick(&mut self) -> Vec<ChainFrame> {
        let seq = self.sequence;
        self.sequence += 1;
        self.gens
            .iter()
            .enumerate()
            .map(|(c, gen)| {
                let sample = gen.frame(u64::from(seq));
                ChainFrame {
                    chain: c as u32,
                    sequence: seq,
                    packets: split_frame(&sample.readings, seq),
                }
            })
            .collect()
    }

    /// Emits `n` ticks, chain-interleaved in tick order.
    pub fn ticks(&mut self, n: usize) -> Vec<ChainFrame> {
        (0..n).flat_map(|_| self.tick()).collect()
    }
}

/// Frame assembly errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssembleError {
    /// Fewer or more than 7 packets.
    MissingHubs,
    /// Packets from different 3 ms ticks.
    MixedSequences,
    /// The same hub appeared twice.
    DuplicateHub,
    /// A packet's monitor span disagrees with the hub map.
    SpanMismatch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte-modulo Fletcher-16 [`fletcher16`] replaced. The oracle
    /// the deferred-modulo version must equal on every input.
    fn fletcher16_bytewise(data: &[u8]) -> u16 {
        let (mut a, mut b) = (0u16, 0u16);
        for &byte in data {
            a = (a + u16::from(byte)) % 255;
            b = (b + a) % 255;
        }
        (b << 8) | a
    }

    #[test]
    fn fletcher_matches_the_oracle_at_the_block_bound() {
        // All-0xFF runs of one block, one block and a byte, and two blocks
        // and a byte. Their sums are multiples of 255, so every block after
        // the first starts from zero residues.
        for n in [FLETCHER_BLOCK, FLETCHER_BLOCK + 1, 2 * FLETCHER_BLOCK + 1] {
            let ones = vec![0xFF; n];
            assert_eq!(fletcher16(&ones), fletcher16_bytewise(&ones), "{n} bytes");
        }
        // The true worst case: a first block that leaves `a = b = 254`
        // (zeros, then 254 as its last byte), then a whole block of 0xFF.
        // One byte more per block overflows `b`, which panics in debug
        // builds.
        let mut worst = vec![0u8; FLETCHER_BLOCK - 1];
        worst.push(254);
        worst.extend(std::iter::repeat_n(0xFF, FLETCHER_BLOCK));
        assert_eq!(fletcher16(&worst[..FLETCHER_BLOCK]), 254 << 8 | 254);
        assert_eq!(fletcher16(&worst), fletcher16_bytewise(&worst));
    }

    proptest! {
        #[test]
        fn fletcher_matches_the_bytewise_oracle(
            data in prop::collection::vec(any::<u8>(), 0..=12 * 1024),
            offset in 0usize..32,
        ) {
            let tail = &data[offset.min(data.len())..];
            prop_assert_eq!(fletcher16(tail), fletcher16_bytewise(tail));
        }
    }

    #[test]
    fn packet_encodes_to_its_fixture() {
        // Bytes of the per-byte-modulo codec; `encode_into` must append
        // the same bytes after whatever the buffer already holds.
        let p = HubPacket {
            hub: 2,
            sequence: 77,
            first_monitor: 75,
            counts: vec![110_000, 111_111, 112_222],
        };
        let want = "b1a5020000004d004b00030001adb00001b2070001b65e4325";
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(&p.encode()), want);
        let mut out = vec![0xAB; 3];
        p.encode_into(&mut out);
        assert_eq!(hex(&out), format!("ababab{want}"));
    }

    #[test]
    fn spans_cover_all_monitors_disjointly() {
        let mut covered = vec![false; N_BLM];
        for h in 0..N_HUBS {
            let (s, e) = hub_span(h);
            for (j, slot) in covered.iter_mut().enumerate().take(e).skip(s) {
                assert!(!*slot, "monitor {j} covered twice");
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn encoded_len_matches_encode_for_every_hub_span() {
        let readings: Vec<f64> = (0..N_BLM).map(|j| 100_000.0 + j as f64).collect();
        let packets = split_frame(&readings, 42);
        assert_eq!(packets.len(), N_HUBS);
        for p in &packets {
            let (s, e) = hub_span(usize::from(p.hub));
            assert_eq!(p.counts.len(), e - s);
            assert_eq!(p.encoded_len(), p.encode().len(), "hub {}", p.hub);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = HubPacket {
            hub: 3,
            sequence: 123_456,
            first_monitor: 112,
            counts: vec![111_000, 112_345, 109_999],
        };
        let bytes = p.encode();
        assert_eq!(HubPacket::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn corruption_detected() {
        let p = HubPacket {
            hub: 0,
            sequence: 7,
            first_monitor: 0,
            counts: vec![1, 2, 3, 4],
        };
        let mut bytes = p.encode();
        bytes[15] ^= 0x40;
        assert_eq!(HubPacket::decode(&bytes), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn corrupt_wire_flips_are_rejected_by_decode() {
        let p = HubPacket {
            hub: 2,
            sequence: 40,
            first_monitor: 75,
            counts: vec![100_000; 37],
        };
        let clean = p.encode();
        // Every single-bit flip anywhere in the packet must be rejected.
        for byte in 0..clean.len() {
            for bit in 0..8u8 {
                let mut buf = clean.clone();
                assert_eq!(corrupt_wire(&mut buf, &[(byte, bit)]), 1);
                assert!(
                    HubPacket::decode(&buf).is_err(),
                    "flip at ({byte},{bit}) slipped through"
                );
            }
        }
        // Out-of-range sites are ignored; double flips cancel.
        let mut buf = clean.clone();
        assert_eq!(corrupt_wire(&mut buf, &[(9_999, 0), (0, 8)]), 0);
        assert_eq!(corrupt_wire(&mut buf, &[(20, 3), (20, 3)]), 2);
        assert_eq!(HubPacket::decode(&buf).unwrap(), p);
    }

    #[test]
    fn truncation_and_magic_detected() {
        let p = HubPacket {
            hub: 0,
            sequence: 1,
            first_monitor: 0,
            counts: vec![5],
        };
        let bytes = p.encode();
        assert_eq!(HubPacket::decode(&bytes[..5]), Err(DecodeError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert_eq!(HubPacket::decode(&bad), Err(DecodeError::BadMagic));
        let mut short = bytes;
        short.pop();
        assert_eq!(HubPacket::decode(&short), Err(DecodeError::BadLength));
    }

    #[test]
    fn split_assemble_roundtrip() {
        let readings: Vec<f64> = (0..N_BLM).map(|j| 110_000.0 + j as f64).collect();
        let packets = split_frame(&readings, 99);
        assert_eq!(packets.len(), N_HUBS);
        let back = assemble_frame(&packets).unwrap();
        assert_eq!(back, readings);
    }

    #[test]
    fn assemble_rejects_mixed_sequences() {
        let readings = vec![1.0; N_BLM];
        let mut packets = split_frame(&readings, 1);
        packets[2].sequence = 2;
        assert_eq!(assemble_frame(&packets), Err(AssembleError::MixedSequences));
    }

    #[test]
    fn assemble_rejects_duplicates() {
        let readings = vec![1.0; N_BLM];
        let mut packets = split_frame(&readings, 1);
        packets[6] = packets[0].clone();
        assert_eq!(assemble_frame(&packets), Err(AssembleError::DuplicateHub));
    }

    #[test]
    fn multi_chain_source_is_deterministic_and_distinct() {
        let mut a = MultiChainSource::new(3, 77);
        let mut b = MultiChainSource::new(3, 77);
        let ta = a.ticks(2);
        let tb = b.ticks(2);
        assert_eq!(ta, tb, "same seed, same stream");
        assert_eq!(ta.len(), 6, "3 chains × 2 ticks");
        // Chains carry distinct data but a shared sequence per tick.
        assert_eq!(ta[0].sequence, ta[2].sequence);
        assert_ne!(ta[0].packets, ta[1].packets);
        // Every chain frame reassembles cleanly.
        for cf in &ta {
            assert_eq!(cf.packets.len(), N_HUBS);
            assert!(assemble_frame(&cf.packets).is_ok());
        }
        assert_eq!(a.next_sequence(), 2);
    }

    #[test]
    fn fletcher_known_value() {
        // Fletcher-16 of "abcde" is 0xC8F0.
        assert_eq!(fletcher16(b"abcde"), 0xC8F0);
        assert_eq!(fletcher16_bytewise(b"abcde"), 0xC8F0);
    }
}
