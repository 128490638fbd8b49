//! Deterministic FNV-1a hashing — the one hash construction the whole
//! workspace shares.
//!
//! Everything that must replay byte-identically across platforms, threads,
//! and process restarts (fault-injection sites, sampler seeds, evaluation
//! cache keys) hashes through these functions rather than
//! `std::hash::Hasher`, whose output is deliberately unstable across Rust
//! releases. FNV-1a is tiny, has no lookup tables, and its output is fixed
//! by the specification — exactly what a reproducibility-first codebase
//! wants.

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 128-bit offset basis.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
pub const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV64_PRIME);
        }
    }

    /// Feeds one `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feeds a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// FNV-1a over a string's UTF-8 bytes.
pub fn fnv1a64_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

/// FNV-1a over a sequence of `u64` parts (each fed as little-endian
/// bytes) — the site-addressing construction the fault injector and the
/// engine's sticky data skew use.
pub fn fnv1a64_parts(parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &part in parts {
        h.write_u64(part);
    }
    h.finish()
}

/// Streaming FNV-1a 128-bit hasher, for content-addressed keys where the
/// 64-bit birthday bound is uncomfortably close to real workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Feeds a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds one `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv64_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_str("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parts_match_byte_feed() {
        let mut h = Fnv64::new();
        h.write_bytes(&7u64.to_le_bytes());
        h.write_bytes(&11u64.to_le_bytes());
        assert_eq!(fnv1a64_parts(&[7, 11]), h.finish());
    }

    #[test]
    fn fnv128_distinguishes_order() {
        let mut a = Fnv128::new();
        a.write_str("ab");
        let mut b = Fnv128::new();
        b.write_str("ba");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn streaming_is_concatenation() {
        let mut h = Fnv128::new();
        h.write_str("foo");
        h.write_str("bar");
        let mut w = Fnv128::new();
        w.write_str("foobar");
        assert_eq!(h.finish(), w.finish());
    }
}
