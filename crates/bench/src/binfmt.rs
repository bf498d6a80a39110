//! Compact binary on-disk encoding for cache entries.
//!
//! A binary entry is a self-describing container:
//!
//! ```text
//! offset  size  field
//! 0       8     magic + format version (b"FLOVBC2\n")
//! 8       4     kernel_version, u32 LE
//! 12      16    content hash (the cache key's 128-bit value)
//! 28      4     spec_len, u32 LE
//! 32      n     canonical spec JSON, UTF-8 (exact bytes the key hashes)
//! 32+n    4     result_len, u32 LE
//! 36+n    m     RunResult, positional (see below)
//! end-4   4     CRC-32C (Castagnoli) over every preceding byte, u32 LE
//! ```
//!
//! The result section is positional: `RunResult`'s fields in declaration
//! order, `PowerReport` and `DynamicEnergy` inline, with no tags and no
//! key strings. A `u64` is a LEB128 varint and an `f64` its raw
//! little-endian bits, so floats come back bit-for-bit (NaN payloads and
//! `-0.0` included, which JSON cannot represent). A `bool` is one byte, 0
//! or 1. The mechanism string and the timeline are a varint length
//! followed by the body. A warm cache probe decodes *only* this section:
//! the spec JSON is length-skipped, never parsed. Storing the spec's
//! exact canonical JSON bytes is what lets `flov cache verify` recompute
//! the content hash without trusting the filename.
//!
//! The encoder destructures `RunResult` exhaustively and the decoder
//! builds it with struct literals, so a new field fails to compile until
//! the codec handles it; changing the layout bumps the digit in
//! [`MAGIC`]. Every format version shares the header, so an entry of
//! another version is still CRC- and hash-checked, and reads as a plain
//! miss (like one of another kernel version) that the next write of its
//! key overwrites.
//!
//! Every decode path is bounds-checked and returns [`BinError`] instead of
//! panicking: a truncated or bit-flipped entry must read as a cache miss
//! (the cache quarantines it), never as a crash.

use crate::spec::RunResult;
use flov_noc::stats::IntervalSample;
use flov_power::model::{DynamicEnergy, PowerReport};

/// Magic + format version. Bump the digit (byte 6) for any change to the
/// result layout; entries carrying another digit read as misses.
pub const MAGIC: [u8; 8] = *b"FLOVBC2\n";

/// Fixed-size prefix before the spec JSON.
const HEADER_LEN: usize = 8 + 4 + 16 + 4;

/// Smallest well-formed entry: header + empty spec + result length + CRC.
const MIN_LEN: usize = HEADER_LEN + 4 + 4;

/// Why a binary entry failed to decode. The message names the first
/// offending structure for `flov cache verify` output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinError(pub String);

impl BinError {
    /// Prefix the message with the field being decoded.
    fn at(self, field: &str) -> BinError {
        BinError(format!("{field}: {}", self.0))
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BinError {}

fn err<T>(msg: impl Into<String>) -> Result<T, BinError> {
    Err(BinError(msg.into()))
}

// ---------------------------------------------------------------- CRC-32

/// Slice-by-16 lookup tables for CRC-32C (Castagnoli, reflected poly
/// `0x82F63B78`): `T[0]` is the classic byte-at-a-time table; `T[j][b]`
/// advances a byte `j` positions further along. Sixteen table lookups per
/// 16 input bytes have the same dependent-chain depth as byte-at-a-time
/// per iteration, so throughput scales with the stride. This is the
/// portable fallback; x86-64 hosts with SSE4.2 use the dedicated `crc32`
/// instruction instead (the reason Castagnoli was chosen over IEEE).
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0x82F6_3B78 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

fn crc32_sw(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for ch in &mut chunks {
        let a = u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes")) ^ c;
        let b = u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"));
        let d = u32::from_le_bytes(ch[8..12].try_into().expect("4 bytes"));
        let e = u32::from_le_bytes(ch[12..16].try_into().expect("4 bytes"));
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// SSE4.2 `crc32` instruction path, 8 bytes per instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = 0xFFFF_FFFFu64;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8 bytes")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// CRC-32C (Castagnoli) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: feature detection just confirmed SSE4.2 is present.
        return unsafe { crc32_hw(bytes) };
    }
    crc32_sw(bytes)
}

// ---------------------------------------------------------------- varints

pub(crate) fn write_uvarint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => err(format!("truncated: wanted {n} bytes at offset {}", self.pos)),
        }
    }

    pub(crate) fn byte(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// A LEB128 varint that must fit in a `u64`. The result decoder reads
    /// three per timeline sample, so bytes come straight from the slice
    /// rather than through [`Reader::take`].
    pub(crate) fn uvarint(&mut self) -> Result<u64, BinError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let Some(&b) = self.bytes.get(self.pos) else {
                return err(format!("truncated varint at offset {}", self.pos));
            };
            self.pos += 1;
            let bits = u64::from(b & 0x7F);
            if bits << shift >> shift != bits {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        err("varint overflows u64")
    }

    /// A length that must fit in the remaining input (each encoded element
    /// is at least one byte), so corrupt counts can't trigger huge
    /// allocations before the read fails.
    pub(crate) fn bounded_len(&mut self) -> Result<usize, BinError> {
        let n = self.uvarint()?;
        let remaining = self.bytes.len() - self.pos;
        match usize::try_from(n) {
            Ok(n) if n <= remaining => Ok(n),
            _ => err(format!("length {n} exceeds {remaining} remaining bytes")),
        }
    }

    // The result decoder's readers: each names its field in the error.

    fn u64(&mut self, field: &str) -> Result<u64, BinError> {
        self.uvarint().map_err(|e| e.at(field))
    }

    fn f64(&mut self, field: &str) -> Result<f64, BinError> {
        let b = self.take(8).map_err(|e| e.at(field))?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    fn bool(&mut self, field: &str) -> Result<bool, BinError> {
        match self.byte().map_err(|e| e.at(field))? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("{field}: bool byte {b} is neither 0 nor 1")),
        }
    }

    fn u64s<const N: usize>(&mut self, field: &str) -> Result<[u64; N], BinError> {
        let mut out = [0; N];
        for v in &mut out {
            *v = self.u64(field)?;
        }
        Ok(out)
    }

    fn f64s<const N: usize>(&mut self, field: &str) -> Result<[f64; N], BinError> {
        let mut out = [0.0; N];
        for v in &mut out {
            *v = self.f64(field)?;
        }
        Ok(out)
    }
}

// ------------------------------------------------------- RunResult codec

fn write_u64s(vs: &[u64], out: &mut Vec<u8>) {
    for &v in vs {
        write_uvarint(v, out);
    }
}

fn write_f64s(vs: &[f64], out: &mut Vec<u8>) {
    for v in vs {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Append `r`'s positional encoding to `out`. The destructuring is
/// exhaustive: a new field fails to compile here until it is written.
fn write_result(r: &RunResult, out: &mut Vec<u8>) {
    let RunResult {
        mechanism,
        packets,
        avg_latency,
        max_latency,
        latency_percentiles: (p50, p95, p99),
        breakdown,
        avg_hops,
        avg_flov_hops,
        escape_packets,
        escape_diversions,
        throughput,
        power,
        runtime_cycles,
        stalled_injection_cycles,
        gating_events,
        flov_latch_flits,
        ring_flits,
        vnet_latency,
        timeline,
        delivered_all,
    } = r;
    let PowerReport {
        cycles,
        seconds,
        static_w,
        static_router_w,
        static_link_w,
        dynamic_w,
        dynamic_energy,
        total_w,
    } = *power;
    let DynamicEnergy {
        buffers,
        ring,
        crossbar,
        arbitration,
        links,
        flov_latches,
        credits,
        handshake,
        gating,
    } = dynamic_energy;

    write_uvarint(mechanism.len() as u64, out);
    out.extend_from_slice(mechanism.as_bytes());
    write_u64s(&[*packets], out);
    write_f64s(&[*avg_latency], out);
    write_u64s(&[*max_latency, *p50, *p95, *p99], out);
    write_f64s(breakdown, out);
    write_f64s(&[*avg_hops, *avg_flov_hops], out);
    write_u64s(&[*escape_packets, *escape_diversions], out);
    write_f64s(&[*throughput], out);
    write_u64s(&[cycles], out);
    write_f64s(&[seconds, static_w, static_router_w, static_link_w, dynamic_w], out);
    write_f64s(
        &[buffers, ring, crossbar, arbitration, links, flov_latches, credits, handshake, gating],
        out,
    );
    write_f64s(&[total_w], out);
    write_u64s(
        &[
            *runtime_cycles,
            *stalled_injection_cycles,
            *gating_events,
            *flov_latch_flits,
            *ring_flits,
        ],
        out,
    );
    for &(n, latency) in vnet_latency {
        write_u64s(&[n], out);
        write_f64s(&[latency], out);
    }
    write_uvarint(timeline.len() as u64, out);
    for &IntervalSample { start, packets, latency_sum } in timeline {
        write_u64s(&[start, packets, latency_sum], out);
    }
    out.push(u8::from(*delivered_all));
}

/// Decode a result section written by [`write_result`]; it must be
/// consumed exactly. Struct literals evaluate their fields in source
/// order, which is the layout's order, and fail to compile when a field
/// is added.
fn read_result(bytes: &[u8]) -> Result<RunResult, BinError> {
    let mut r = Reader { bytes, pos: 0 };
    let mechanism = {
        let n = r.bounded_len().map_err(|e| e.at("mechanism"))?;
        match std::str::from_utf8(r.take(n).map_err(|e| e.at("mechanism"))?) {
            Ok(s) => s.to_string(),
            Err(e) => return err(format!("mechanism: invalid UTF-8: {e}")),
        }
    };
    let result = RunResult {
        mechanism,
        packets: r.u64("packets")?,
        avg_latency: r.f64("avg_latency")?,
        max_latency: r.u64("max_latency")?,
        latency_percentiles: r.u64s("latency_percentiles")?.into(),
        breakdown: r.f64s("breakdown")?,
        avg_hops: r.f64("avg_hops")?,
        avg_flov_hops: r.f64("avg_flov_hops")?,
        escape_packets: r.u64("escape_packets")?,
        escape_diversions: r.u64("escape_diversions")?,
        throughput: r.f64("throughput")?,
        power: PowerReport {
            cycles: r.u64("power.cycles")?,
            seconds: r.f64("power.seconds")?,
            static_w: r.f64("power.static_w")?,
            static_router_w: r.f64("power.static_router_w")?,
            static_link_w: r.f64("power.static_link_w")?,
            dynamic_w: r.f64("power.dynamic_w")?,
            dynamic_energy: DynamicEnergy {
                buffers: r.f64("power.dynamic_energy.buffers")?,
                ring: r.f64("power.dynamic_energy.ring")?,
                crossbar: r.f64("power.dynamic_energy.crossbar")?,
                arbitration: r.f64("power.dynamic_energy.arbitration")?,
                links: r.f64("power.dynamic_energy.links")?,
                flov_latches: r.f64("power.dynamic_energy.flov_latches")?,
                credits: r.f64("power.dynamic_energy.credits")?,
                handshake: r.f64("power.dynamic_energy.handshake")?,
                gating: r.f64("power.dynamic_energy.gating")?,
            },
            total_w: r.f64("power.total_w")?,
        },
        runtime_cycles: r.u64("runtime_cycles")?,
        stalled_injection_cycles: r.u64("stalled_injection_cycles")?,
        gating_events: r.u64("gating_events")?,
        flov_latch_flits: r.u64("flov_latch_flits")?,
        ring_flits: r.u64("ring_flits")?,
        vnet_latency: {
            let mut v = [(0, 0.0); 3];
            for slot in &mut v {
                *slot = (r.u64("vnet_latency")?, r.f64("vnet_latency")?);
            }
            v
        },
        timeline: {
            let n = r.bounded_len().map_err(|e| e.at("timeline"))?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(IntervalSample {
                    start: r.u64("timeline")?,
                    packets: r.u64("timeline")?,
                    latency_sum: r.u64("timeline")?,
                });
            }
            samples
        },
        delivered_all: r.bool("delivered_all")?,
    };
    if r.pos != bytes.len() {
        return err(format!("{} trailing bytes after the result", bytes.len() - r.pos));
    }
    Ok(result)
}

// --------------------------------------------------------- entry container

/// Parse a 32-hex-character cache key into its 16 raw bytes.
pub fn key_bytes(key: &str) -> Option<[u8; 16]> {
    let key = key.as_bytes();
    if key.len() != 32 {
        return None;
    }
    let mut out = [0u8; 16];
    for (i, pair) in key.chunks_exact(2).enumerate() {
        let hex = std::str::from_utf8(pair).ok()?;
        out[i] = u8::from_str_radix(hex, 16).ok()?;
    }
    Some(out)
}

/// Encode one cache entry. `spec_json` must be the spec's *canonical*
/// JSON — the exact bytes `key` was hashed from.
pub fn encode_entry(
    key: &str,
    kernel_version: u32,
    spec_json: &str,
    result: &RunResult,
) -> Vec<u8> {
    let hash = key_bytes(key).expect("cache key is 32 hex chars");
    let mut out = Vec::with_capacity(HEADER_LEN + spec_json.len() + 512);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&kernel_version.to_le_bytes());
    out.extend_from_slice(&hash);
    out.extend_from_slice(&(spec_json.len() as u32).to_le_bytes());
    out.extend_from_slice(spec_json.as_bytes());
    let result_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // result_len back-patched below
    write_result(result, &mut out);
    let result_len = (out.len() - result_at - 4) as u32;
    out[result_at..result_at + 4].copy_from_slice(&result_len.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A fully decoded binary entry (the `flov cache verify` path).
#[derive(Clone, Debug)]
pub struct BinEntry {
    pub kernel_version: u32,
    /// The stored content hash, re-rendered as the 32-hex key.
    pub key: String,
    /// The canonical spec JSON exactly as hashed.
    pub spec_json: String,
    /// `None` for an entry of another format version: its header and CRC
    /// check out, but its result section is not this decoder's layout.
    pub result: Option<RunResult>,
}

/// A validated container's header fields and section boundaries.
struct Frame {
    /// Whether the magic carries this build's format version.
    current: bool,
    kernel_version: u32,
    hash: [u8; 16],
    spec: std::ops::Range<usize>,
    result: std::ops::Range<usize>,
}

/// Validate the container (magic, CRC, lengths) and return its [`Frame`].
/// Any format version is accepted: the header is the same for all.
fn frame(bytes: &[u8]) -> Result<Frame, BinError> {
    if bytes.len() < MIN_LEN {
        return err(format!("entry too short ({} bytes)", bytes.len()));
    }
    if bytes[..6] != MAGIC[..6] || bytes[7] != MAGIC[7] {
        return err("bad magic (not a FLOV binary cache entry)");
    }
    let body = &bytes[..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return err(format!("CRC mismatch (stored {stored_crc:08x}, computed {actual_crc:08x})"));
    }
    let kernel_version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let hash: [u8; 16] = bytes[12..28].try_into().expect("16 bytes");
    let spec_len = u32::from_le_bytes(bytes[28..32].try_into().expect("4 bytes")) as usize;
    let spec_start = HEADER_LEN;
    let spec_end = spec_start.checked_add(spec_len).filter(|&e| e + 4 <= body.len());
    let Some(spec_end) = spec_end else {
        return err(format!("spec length {spec_len} exceeds entry"));
    };
    let result_len =
        u32::from_le_bytes(bytes[spec_end..spec_end + 4].try_into().expect("4 bytes")) as usize;
    let result_start = spec_end + 4;
    if result_start + result_len != body.len() {
        return err(format!(
            "result length {result_len} does not close the entry \
             ({} bytes remain)",
            body.len() - result_start
        ));
    }
    Ok(Frame {
        current: bytes[6] == MAGIC[6],
        kernel_version,
        hash,
        spec: spec_start..spec_end,
        result: result_start..result_start + result_len,
    })
}

fn hex(hash: &[u8; 16]) -> String {
    hash.iter().map(|b| format!("{b:02x}")).collect()
}

/// Cache-probe decode: verify the container, check the stored content
/// hash against `expect_key`, and decode *only* the result section (the
/// spec JSON is skipped, not parsed).
///
/// `Ok(None)` means a well-formed entry of another format or kernel
/// version — a plain miss. `Err` means corruption; the caller
/// quarantines the file.
pub fn decode_result(
    bytes: &[u8],
    expect_key: &str,
    expect_kernel_version: u32,
) -> Result<Option<RunResult>, BinError> {
    let f = frame(bytes)?;
    match key_bytes(expect_key) {
        Some(expect) if expect == f.hash => {}
        _ => return err(format!("stored hash {} does not match key {expect_key}", hex(&f.hash))),
    }
    if !f.current || f.kernel_version != expect_kernel_version {
        return Ok(None);
    }
    read_result(&bytes[f.result]).map(Some)
}

/// Full decode for `verify`: every section parsed, the spec JSON returned
/// verbatim so the caller can recompute the key.
pub fn decode_entry(bytes: &[u8]) -> Result<BinEntry, BinError> {
    let f = frame(bytes)?;
    let spec_json = match std::str::from_utf8(&bytes[f.spec]) {
        Ok(s) => s.to_string(),
        Err(e) => return err(format!("spec JSON is not UTF-8: {e}")),
    };
    let result = if f.current { Some(read_result(&bytes[f.result])?) } else { None };
    Ok(BinEntry { kernel_version: f.kernel_version, key: hex(&f.hash), spec_json, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic CRC-32C check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(v, &mut buf);
            let mut r = Reader { bytes: &buf, pos: 0 };
            assert_eq!(r.uvarint().unwrap(), v, "varint roundtrip for {v}");
            assert_eq!(r.pos, buf.len());
        }
        // u64::MAX with one more bit in the tenth byte, and an eleven-byte
        // varint, both overflow; the field reader names its field.
        let mut wide = vec![0xFF; 9];
        wide.push(0x03);
        let mut long = vec![0x80; 10];
        long.push(0x00);
        for bytes in [wide, long] {
            let mut r = Reader { bytes: &bytes, pos: 0 };
            assert_eq!(r.u64("f").unwrap_err().0, "f: varint overflows u64");
        }
    }

    #[test]
    fn key_bytes_parses_and_rejects() {
        let key = "00ff102030405060708090a0b0c0d0e0";
        let bytes = key_bytes(key).unwrap();
        assert_eq!(bytes[0], 0x00);
        assert_eq!(bytes[1], 0xff);
        assert_eq!(hex(&bytes), key);
        assert!(key_bytes("short").is_none());
        assert!(key_bytes("zz ff102030405060708090a0b0c0d0e0").is_none());
    }

    /// A real simulated result, encoded as a result section.
    fn real_result_section() -> (RunResult, Vec<u8>) {
        let spec = crate::RunSpec::builder()
            .k(2)
            .seed(3)
            .warmup(50)
            .cycles(300)
            .timeline_width(20)
            .drain(5_000)
            .build();
        let result = crate::run_kernel(&spec, crate::KernelMode::ActiveSet);
        assert!(!result.timeline.is_empty(), "the fixture must exercise the timeline");
        let mut bytes = Vec::new();
        write_result(&result, &mut bytes);
        (result, bytes)
    }

    /// Dotted paths of `v`'s object members (`power.dynamic_energy.ring`);
    /// arrays are leaves, as the decoder names them.
    fn field_names(v: &serde_json::Value, prefix: &str, out: &mut Vec<String>) {
        match v {
            serde_json::Value::Map(m) => {
                for (k, v) in m {
                    field_names(v, &format!("{prefix}{k}."), out);
                }
            }
            _ => out.push(prefix.trim_end_matches('.').to_string()),
        }
    }

    #[test]
    fn result_section_roundtrips_and_every_truncation_errors() {
        let (mut result, _) = real_result_section();
        // JSON cannot carry these; the raw-bits encoding must.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        result.avg_hops = nan;
        result.throughput = -0.0;
        let mut bytes = Vec::new();
        write_result(&result, &mut bytes);
        let back = read_result(&bytes).unwrap();
        assert_eq!(back.avg_hops.to_bits(), nan.to_bits(), "NaN payload lost");
        assert_eq!(back.throughput.to_bits(), (-0.0f64).to_bits(), "-0.0 lost");
        assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&result).unwrap());

        let mut fields = Vec::new();
        field_names(&serde_json::to_value(&result), "", &mut fields);
        for cut in 0..bytes.len() {
            let e = read_result(&bytes[..cut]).expect_err("a truncation must error");
            let named = e.0.split_once(": ").is_some_and(|(f, _)| fields.iter().any(|n| n == f));
            assert!(named, "truncation at {cut}: error names no field: {e}");
        }
    }

    #[test]
    fn huge_timeline_length_errors_without_allocating() {
        let (mut result, _) = real_result_section();
        result.timeline.clear();
        let mut bytes = Vec::new();
        write_result(&result, &mut bytes);
        // An empty timeline encodes as one 0 length byte before the bool.
        let at = bytes.len() - 2;
        assert_eq!(bytes[at], 0);
        let mut forged = bytes[..at].to_vec();
        write_uvarint(u64::MAX - 1, &mut forged);
        forged.push(1);
        // bounded_len rejects the count before any Vec is sized by it.
        let e = read_result(&forged).unwrap_err();
        assert!(e.0.starts_with("timeline: length"), "{e}");
    }

    #[test]
    fn bad_bool_byte_and_trailing_byte_error() {
        let (_, bytes) = real_result_section();
        let mut bad_bool = bytes.clone();
        *bad_bool.last_mut().unwrap() = 2;
        let e = read_result(&bad_bool).unwrap_err();
        assert_eq!(e.0, "delivered_all: bool byte 2 is neither 0 nor 1");

        let mut trailing = bytes;
        trailing.push(0);
        let e = read_result(&trailing).unwrap_err();
        assert_eq!(e.0, "1 trailing bytes after the result");
    }
}
