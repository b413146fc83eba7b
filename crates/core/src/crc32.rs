//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte slices.
//!
//! The index format frames every section and every spoke shard with a
//! CRC of its payload, plus a resident-region checksum in the trailer
//! (see [`crate::persist`]), so a torn write, truncation, or bit rot is
//! detected *before* any parsing touches the bytes. The build environment is offline, so the
//! implementation is vendored here: slicing-by-16 (sixteen 256-entry
//! tables, computed at compile time, fold sixteen input bytes per step),
//! with the byte-at-a-time table step for the tail. Every pager fault
//! checks its shard's CRC, so this is on the out-of-core query path.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][i]` is the CRC
/// state after byte `i` is followed by `k` zero bytes, so sixteen table
/// lookups advance the state over sixteen input bytes at once.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-32 accumulator, for checksumming a file as it is
/// written without buffering it twice.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
        let byte = |t: &[u32; 256], v: u32| t[(v & 0xFF) as usize];
        let mut crc = self.state;
        let (words, tail) = bytes.as_chunks::<16>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in words {
            let w = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
            crc = byte(t15, w)
                ^ byte(t14, w >> 8)
                ^ byte(t13, w >> 16)
                ^ byte(t12, w >> 24)
                ^ byte(t11, b4.into())
                ^ byte(t10, b5.into())
                ^ byte(t9, b6.into())
                ^ byte(t8, b7.into())
                ^ byte(t7, b8.into())
                ^ byte(t6, b9.into())
                ^ byte(t5, b10.into())
                ^ byte(t4, b11.into())
                ^ byte(t3, b12.into())
                ^ byte(t2, b13.into())
                ^ byte(t1, b14.into())
                ^ byte(t0, b15.into());
        }
        for &b in tail {
            crc = (crc >> 8) ^ byte(t0, crc ^ u32::from(b));
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors for the IEEE polynomial (cross-checked
    /// against zlib's `crc32()`).
    #[test]
    fn known_answer_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The byte-at-a-time reference the slicing-by-16 loop must agree
    /// with: one bit of the reflected polynomial at a time, no tables.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    fn pseudo_random_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    /// Every length 0..=64 at every start offset 0..16, so each split of
    /// the input into 16-byte words and a tail (and each alignment of the
    /// words) is compared with the reference.
    #[test]
    fn slicing_by_16_matches_the_reference_at_every_length_and_offset() {
        let buf = pseudo_random_bytes(64 + 16);
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), reference(slice), "start {start}, length {len}");
            }
        }
    }

    /// A streaming update split at every point equals the one-shot CRC.
    #[test]
    fn streaming_update_split_at_every_point_matches_the_reference() {
        let data = pseudo_random_bytes(100);
        let want = reference(&data);
        for split in 0..=data.len() {
            let mut acc = Crc32::new();
            acc.update(&data[..split]);
            acc.update(&data[split..]);
            assert_eq!(acc.finish(), want, "split at {split}");
        }
    }

    /// Every single-bit flip changes the checksum — the property the
    /// torn-write suite leans on.
    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data: Vec<u8> = (0u16..256).map(|i| (i % 251) as u8).collect();
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 254, 255] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }
}
