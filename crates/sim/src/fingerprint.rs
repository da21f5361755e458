//! A tiny FNV-1a hasher for cheap, stable fingerprints of model inputs.
//!
//! The evaluation engine in `procrustes-core` memoizes per-layer costs
//! across scenarios; the cache key needs a fingerprint of the workload
//! descriptors that is stable across runs and processes (unlike
//! `std::hash`'s `RandomState`) and cheap relative to `evaluate_layer`.
//!
//! # Stability contract
//!
//! Fingerprints are a **persistence surface**, not just an in-process
//! optimization: `procrustes-serve` single-flights work by scenario
//! fingerprint and addresses its on-disk result cache with it, so
//! entries written by one daemon must be found by every later one. Concretely:
//!
//! * The algorithm is pinned to 64-bit FNV-1a with the standard offset
//!   basis and prime; it will not change between releases.
//! * Integers fold in little-endian, `f64`s by IEEE-754 bit pattern
//!   (so `-0.0 ≠ 0.0` and every NaN payload is distinct — two configs
//!   that could ever evaluate differently never alias).
//! * The *byte streams* each `fingerprint()` method feeds the hasher
//!   (field order and encoding in [`ArchConfig::fingerprint`],
//!   [`LayerTask::fingerprint`], [`SparsityInfo::fingerprint`], and
//!   `Scenario::fingerprint` in `procrustes-core`) are part of this
//!   contract. Golden-value tests (here and in `procrustes-core`) pin
//!   all four; if one fails, the encoding changed and every persistent
//!   cache in the wild would go cold — extend encodings only in ways
//!   that keep existing inputs' streams unchanged, or version the
//!   serve cache directory.
//!
//! Fingerprints are 64-bit content hashes, not cryptographic digests:
//! collisions are astronomically unlikely for the handful of distinct
//! workloads a sweep touches, but nothing *detects* one. Hostile cache
//! poisoning is out of scope (the cache directory is operator-owned).
//!
//! # Cost
//!
//! FNV-1a is a serial chain: each byte's xor and multiply wait for the
//! previous byte's, about four cycles a byte, so a mask set's
//! fingerprint costs its byte count times that latency. The per-kernel
//! counts the engine hashes are `u32`s of at most `R·S`, below 256 on
//! every paper network, and [`Fnv1a::write_u32`] folds such a count's
//! three zero high bytes into one multiply by the prime's fourth power:
//! one step per count instead of four, and the same hash. On a 2-core
//! Xeon, WRN-28-10's dense and synthetic mask sets hash in ~13 ms this
//! way against ~52 ms byte by byte.
//!
//! [`ArchConfig::fingerprint`]: crate::ArchConfig::fingerprint
//! [`LayerTask::fingerprint`]: crate::LayerTask::fingerprint
//! [`SparsityInfo::fingerprint`]: crate::SparsityInfo::fingerprint

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Four rounds of the prime: what four FNV-1a steps multiply by when the
/// last three bytes they fold are zero (`x ^ 0 = x`).
const FNV_PRIME_4: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

impl Fnv1a {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u32` (little-endian) into the hash: the same hash as
    /// `write(&v.to_le_bytes())` for every `v`. Below 256 the three high
    /// bytes are zero, so their steps fold into one multiply and the four
    /// dependent steps of the byte loop become one; a kernel's nonzero
    /// count (at most `R·S`) takes that path on every paper network.
    pub fn write_u32(&mut self, v: u32) {
        if v < 256 {
            self.0 = (self.0 ^ u64::from(v)).wrapping_mul(FNV_PRIME_4);
        } else {
            self.write(&v.to_le_bytes());
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` into the hash.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` into the hash by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fnv1a::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn write_u32_is_the_byte_loop() {
        let states = [
            Fnv1a::new().finish(),
            0,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xaf7b_346d_23e9_e6b8,
        ];
        for state in states {
            for v in (0..=65_536).chain([u32::MAX - 1, u32::MAX]) {
                let (mut fast, mut bytes) = (Fnv1a(state), Fnv1a(state));
                fast.write_u32(v);
                bytes.write(&v.to_le_bytes());
                assert_eq!(fast.finish(), bytes.finish(), "v = {v} from {state:#x}");
            }
        }
    }

    #[test]
    fn f64_folds_by_bit_pattern() {
        let hash = |v: f64| {
            let mut h = Fnv1a::new();
            h.write_f64(v);
            h.finish()
        };
        assert_ne!(hash(0.0), hash(-0.0));
        assert_eq!(hash(f64::NAN), hash(f64::NAN)); // same payload
        assert_ne!(hash(1.0), hash(1.0 + f64::EPSILON));
    }

    /// Golden fingerprints of the descriptor types: the byte streams the
    /// `fingerprint()` methods feed the hasher are a persistence surface
    /// (see the module docs). A failure here means on-disk serve caches
    /// written by earlier builds would silently go cold — don't re-pin
    /// without versioning the cache.
    #[test]
    fn golden_descriptor_fingerprints() {
        use crate::{ArchConfig, LayerTask, SparsityInfo};
        let arch = ArchConfig::procrustes_16x16();
        assert_eq!(arch.fingerprint(), 0x7b55_076c_c866_3bcc);
        let task = LayerTask::conv("conv3_1", 16, 128, 256, 8, 8, 3, 1, 1);
        assert_eq!(task.fingerprint(), 0x8f50_fdff_3f4e_7f2e);
        let sp = SparsityInfo::uniform(&task, 0.5, 0.8);
        assert_eq!(sp.fingerprint(), 0xaf7b_346d_23e9_e6b8);
        // The task name is a label, not identity.
        let renamed = LayerTask::conv("other", 16, 128, 256, 8, 8, 3, 1, 1);
        assert_eq!(renamed.fingerprint(), task.fingerprint());
    }
}
