//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the one
//! checksum behind every WAL frame, snapshot section, shipped
//! replication record and wire frame in the workspace.
//!
//! Slice-by-8: eight 256-entry tables, built at compile time, fold eight
//! input bytes per step instead of one bit per shift. The value is the
//! standard CRC-32 (check value `0xCBF43926` over `"123456789"`), so every
//! checksum already on disk or in flight stays valid.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[s][b]` is the CRC of
/// byte `b` followed by `s` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are derived from.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn matches_bitwise_reference_at_every_length_and_alignment() {
        let mut state = 0x1234_5678u32;
        let buf: Vec<u8> = (0..320)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        for offset in [0usize, 1, 2, 3, 5, 7, 9, 13] {
            for len in 0..=300 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), bitwise(s), "offset {offset} len {len}");
            }
        }
        let ones = [0xFFu8; 300];
        for len in 0..=300 {
            assert_eq!(crc32(&ones[..len]), bitwise(&ones[..len]), "0xFF len {len}");
        }
    }
}
