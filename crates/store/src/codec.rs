//! Byte codec for durable records, plus the CRC32 integrity check.
//!
//! The container has no crates.io access, so serialization is hand-rolled: a
//! minimal [`Persist`] trait (fixed-endian, length-prefixed, no schema
//! evolution — the log format is versioned by the frame magic instead) with
//! implementations for the primitive types the WAL persists and for the ADT
//! payload types of the workloads that run on the durable stack
//! ([`ccr_adt::bank`], [`ccr_adt::escrow`]).
//!
//! The CRC is the IEEE 802.3 polynomial (the one `crc32fast` implements),
//! table-driven and taken over the *entire sector-aligned frame extent*
//! including zero padding — so any single-bit flip anywhere inside a frame's
//! sectors, padding included, changes the checksum (satellite: corruption
//! exhaustion). The padding is not read byte by byte: appending `k` zero
//! bytes multiplies the CRC register by `x^8k mod P`, so
//! `crc32_zero_tail` checksums the occupied head and folds the zero tail
//! in with one polynomial multiplication (zlib's `crc32_combine`
//! arithmetic) — the same value as the bytewise CRC of the whole extent.

use ccr_core::adt::{Adt, Op};
use ccr_core::ids::{ObjectId, TxnId};

/// IEEE CRC32 slice-by-8 lookup tables, built at compile time. `[0]` is the
/// classic one-byte table; `[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the state with eight
/// independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Fold `data` into a running (pre-conditioned, not yet inverted) CRC state.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC32 of `data` (same polynomial and pre/post-conditioning as
/// `crc32fast` / zlib).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_zero_tail(&[data], 0)
}

/// The reflected IEEE polynomial `P`: bit 31 is the coefficient of `x^0`.
const POLY: u32 = 0xEDB8_8320;

/// `ZERO_BYTES[k]` is `x^8k mod P`: feeding one zero byte to the CRC
/// register multiplies it by `x^8`, so the table is the register's walk
/// from `x^0` under zero bytes.
const ZERO_BYTES: [u32; 1024] = {
    let mut powers = [0u32; 1024];
    let mut c = 1u32 << 31;
    let mut k = 0;
    while k < powers.len() {
        powers[k] = c;
        c = CRC_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
        k += 1;
    }
    powers
};

/// `v * x mod P`: a shift toward `x^31`; a carried-out `x^32` comes back as `P`.
const fn times_x(v: u32) -> u32 {
    (v >> 1) ^ (POLY & 0u32.wrapping_sub(v & 1))
}

/// `TIMES_X4[n]` is `n * x^4 mod P`: what a low nibble `n` shifts out as.
const TIMES_X4: [u32; 16] = {
    let mut table = [0u32; 16];
    let mut n = 0;
    while n < 16 {
        table[n] = times_x(times_x(times_x(times_x(n as u32))));
        n += 1;
    }
    table
};

/// `a * b mod P` over GF(2), both in the reflected representation, four
/// bits of `a` a step: `multiples[n]` is the nibble `n` times `b`, and
/// Horner's rule runs from `a`'s highest powers (its low nibble) down.
fn mul_mod_p(a: u32, b: u32) -> u32 {
    let powers = [b, times_x(b), times_x(times_x(b)), times_x(times_x(times_x(b)))];
    let mut multiples = [0u32; 16];
    // A nibble's bottom bit is the coefficient of x^3, its top one of x^0.
    for (i, bit) in [1, 2, 4, 8].into_iter().enumerate() {
        for low in 0..bit {
            multiples[bit | low] = multiples[low] ^ powers[3 - i];
        }
    }
    (0..8).fold(0, |p, k| {
        (p >> 4) ^ TIMES_X4[(p & 0xF) as usize] ^ multiples[(a >> (4 * k) & 0xF) as usize]
    })
}

/// The CRC register after `zeros` more zero bytes. No input bits enter, so
/// the step is linear: a multiplication by `x^(8 * zeros)`.
fn crc32_skip_zeros(mut c: u32, mut zeros: usize) -> u32 {
    const STRIDE: usize = ZERO_BYTES.len() - 1;
    while zeros > STRIDE {
        c = mul_mod_p(c, ZERO_BYTES[STRIDE]);
        zeros -= STRIDE;
    }
    if zeros == 0 {
        c
    } else {
        mul_mod_p(c, ZERO_BYTES[zeros])
    }
}

/// IEEE CRC32 of the concatenation of `parts` followed by `zeros` zero
/// bytes, without concatenating the parts or reading the zeros.
pub(crate) fn crc32_zero_tail(parts: &[&[u8]], zeros: usize) -> u32 {
    let head = parts.iter().fold(0xFFFF_FFFF, |c, part| crc32_update(c, part));
    crc32_skip_zeros(head, zeros) ^ 0xFFFF_FFFF
}

/// Fixed-endian byte serialization for durable records.
///
/// `decode` consumes from `buf` at `*pos`, advancing it past the value;
/// `None` means the bytes are structurally invalid (truncated or a bad tag).
/// Structural validation is best-effort — the WAL's CRC is the integrity
/// authority; `decode` only needs to never panic on arbitrary bytes.
pub trait Persist: Sized {
    /// Append this value's byte form to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parse one value from `buf` at `*pos`, advancing the cursor.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = pos.checked_add(n)?;
    if end > buf.len() {
        return None;
    }
    let s = &buf[*pos..end];
    *pos = end;
    Some(s)
}

impl Persist for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        take(buf, pos, 1).map(|b| b[0])
    }
}

impl Persist for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        take(buf, pos, 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
}

impl Persist for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        take(buf, pos, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

impl Persist for ObjectId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u32::decode(buf, pos).map(ObjectId)
    }
}

impl Persist for TxnId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        u32::decode(buf, pos).map(TxnId)
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let n = u32::decode(buf, pos)? as usize;
        // Each element takes at least one byte; reject absurd lengths before
        // allocating (arbitrary corrupt bytes must never OOM the scanner).
        if n > buf.len().saturating_sub(*pos) {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(buf, pos)?);
        }
        Some(v)
    }
}

impl<S: Persist, T: Persist> Persist for (S, T) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((S::decode(buf, pos)?, T::decode(buf, pos)?))
    }
}

impl<S: Persist, T: Persist, U: Persist> Persist for (S, T, U) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((S::decode(buf, pos)?, T::decode(buf, pos)?, U::decode(buf, pos)?))
    }
}

impl<A> Persist for Op<A>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    fn encode(&self, out: &mut Vec<u8>) {
        self.inv.encode(out);
        self.resp.encode(out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(Op { inv: A::Invocation::decode(buf, pos)?, resp: A::Response::decode(buf, pos)? })
    }
}

impl Persist for ccr_adt::bank::BankInv {
    fn encode(&self, out: &mut Vec<u8>) {
        use ccr_adt::bank::BankInv::*;
        match self {
            Deposit(i) => {
                out.push(0);
                i.encode(out);
            }
            Withdraw(i) => {
                out.push(1);
                i.encode(out);
            }
            Balance => out.push(2),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        use ccr_adt::bank::BankInv::*;
        match u8::decode(buf, pos)? {
            0 => Some(Deposit(u64::decode(buf, pos)?)),
            1 => Some(Withdraw(u64::decode(buf, pos)?)),
            2 => Some(Balance),
            _ => None,
        }
    }
}

impl Persist for ccr_adt::bank::BankResp {
    fn encode(&self, out: &mut Vec<u8>) {
        use ccr_adt::bank::BankResp::*;
        match self {
            Ok => out.push(0),
            No => out.push(1),
            Val(i) => {
                out.push(2);
                i.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        use ccr_adt::bank::BankResp::*;
        match u8::decode(buf, pos)? {
            0 => Some(Ok),
            1 => Some(No),
            2 => Some(Val(u64::decode(buf, pos)?)),
            _ => None,
        }
    }
}

impl Persist for ccr_adt::escrow::EscrowInv {
    fn encode(&self, out: &mut Vec<u8>) {
        use ccr_adt::escrow::EscrowInv::*;
        match self {
            Credit(i) => {
                out.push(0);
                i.encode(out);
            }
            Debit(i) => {
                out.push(1);
                i.encode(out);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        use ccr_adt::escrow::EscrowInv::*;
        match u8::decode(buf, pos)? {
            0 => Some(Credit(u64::decode(buf, pos)?)),
            1 => Some(Debit(u64::decode(buf, pos)?)),
            _ => None,
        }
    }
}

impl Persist for ccr_adt::escrow::EscrowResp {
    fn encode(&self, out: &mut Vec<u8>) {
        use ccr_adt::escrow::EscrowResp::*;
        match self {
            Ok => out.push(0),
            No => out.push(1),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        use ccr_adt::escrow::EscrowResp::*;
        match u8::decode(buf, pos)? {
            0 => Some(Ok),
            1 => Some(No),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_adt::bank::{BankInv, BankResp};

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bytewise table loop the slice-by-8 version replaced: the
    /// reference it must equal on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Pseudo-random bytes (own xorshift), every length across several
        // 8-byte strides and both sector sizes in use, at an odd offset so
        // the chunks are not aligned to the buffer either.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1101)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=1100 {
            let d = &data[1..1 + len];
            assert_eq!(crc32(d), crc32_bytewise(d), "length {len}");
            // Any split into parts checksums like the whole.
            let cut = len / 3;
            let split = crc32_zero_tail(&[&d[..cut], &d[cut..]], 0);
            assert_eq!(split, crc32_bytewise(d), "split {len}");
        }
    }

    #[test]
    fn folded_zero_tail_equals_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..512)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8 | 1 // never zero: the head ends where it says
            })
            .collect();
        for head in [0, 1, 7, 13, 109, 512] {
            for tail in [0, 1, 3, 8, 403, 511, 4096, 5000, 48_000] {
                let mut whole = noise[..head].to_vec();
                whole.resize(head + tail, 0);
                let want = crc32_bytewise(&whole);
                assert_eq!(crc32_zero_tail(&[&noise[..head]], tail), want, "{head}+{tail}");
                // Zeroes read as bytes and zeroes folded are the same zeroes.
                let read = head + tail / 3;
                assert_eq!(crc32_zero_tail(&[&whole[..read]], whole.len() - read), want);
            }
        }
    }

    /// The 32-step shift-and-xor product the nibble table replaced: the
    /// reference it must equal on every input.
    fn mul_mod_p_bitwise(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut bit = 1u32 << 31;
        while bit != 0 {
            if a & bit != 0 {
                product ^= b;
            }
            b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
            bit >>= 1;
        }
        product
    }

    #[test]
    fn nibble_product_equals_the_bitwise_reference() {
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 16) as u32
        };
        let edges = [0, 1, 1 << 31, u32::MAX, POLY, ZERO_BYTES[1], ZERO_BYTES[1023]];
        for a in edges {
            for b in edges {
                assert_eq!(mul_mod_p(a, b), mul_mod_p_bitwise(a, b), "{a:#x} * {b:#x}");
            }
        }
        for _ in 0..100_000 {
            let (a, b) = (next(), next());
            assert_eq!(mul_mod_p(a, b), mul_mod_p_bitwise(a, b), "{a:#x} * {b:#x}");
        }
    }

    #[test]
    fn every_bit_flip_changes_the_crc() {
        let data = b"the impact of recovery on concurrency control".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn round_trips() {
        fn rt<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(T::decode(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "decode must consume exactly what encode wrote");
        }
        rt(0xDEAD_BEEFu32);
        rt(u64::MAX);
        rt(ObjectId(7));
        rt(TxnId(3));
        rt(vec![1u64, 2, 3]);
        rt((ObjectId(1), 9u64));
        rt(BankInv::Deposit(5));
        rt(BankInv::Withdraw(2));
        rt(BankInv::Balance);
        rt(BankResp::Val(11));
        rt(ccr_adt::escrow::EscrowInv::Debit(4));
        rt(ccr_adt::escrow::EscrowResp::No);
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        let garbage = [0xFFu8; 16];
        let mut pos = 0;
        assert_eq!(BankInv::decode(&garbage, &mut pos), None);
        let mut pos = 0;
        // A length prefix larger than the buffer must be rejected, not
        // allocated.
        assert_eq!(<Vec<u64>>::decode(&garbage, &mut pos), None);
        let mut pos = 15;
        assert_eq!(u64::decode(&garbage, &mut pos), None);
    }
}
