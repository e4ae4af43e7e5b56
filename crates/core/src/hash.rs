//! Content hashing for the artifact cache: FNV-1a in 64- and 128-bit widths.
//!
//! The analysis service keys cached artifacts by the *content* of their
//! inputs (per-procedure source text, whole-program source, analysis
//! configuration), so the hash must be:
//!
//! * **deterministic across platforms and runs** — cache entries written by
//!   one process must be readable by the next, so no `RandomState`-style
//!   per-process seeding (and none of `std::hash`'s stability caveats);
//! * **dependency-free** — the workspace builds offline;
//! * **wide enough that collisions are a non-event** — the 128-bit variant
//!   keys the content-addressed store (2⁻⁶⁴ birthday bound at ~2⁶⁴⁻³²
//!   entries is far beyond any realistic corpus); the 64-bit variant is for
//!   in-memory table fingerprints where an occasional false share would
//!   still be caught by the full key comparison.
//!
//! FNV-1a is used rather than SplitMix64-as-a-hash because it is a genuine
//! streaming hash over byte strings (SplitMix64 is a PRNG; see
//! [`crate::rng`], whose finalizer the router applies on top of these
//! hashes to spread them over its ring). This is **not** a cryptographic hash: cache keys
//! here defend against accidents, not adversaries, which matches the
//! threat model of a local analysis cache (the cache directory is as
//! trusted as the binary itself — see docs/SERVING.md).

/// FNV-1a 64-bit offset basis.
const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
const FNV64_PRIME: u64 = 0x00000100000001b3;
/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime (2⁸⁸ + 2⁸ + 0x3b).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// One-shot FNV-1a 64 over a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// One-shot FNV-1a 128 over a byte string.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Hasher128::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a 128 hasher with typed helpers.
///
/// The typed writers frame every field with a tag byte and
/// length/fixed-width encoding so that adjacent fields cannot alias
/// (`"ab" + "c"` hashes differently from `"a" + "bc"`), which matters for
/// configuration fingerprints built from many small fields.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    state: u128,
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher128 {
    pub fn new() -> Self {
        Hasher128 {
            state: FNV128_OFFSET,
        }
    }

    /// Feed raw bytes (no framing).
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        let mut h = self.state;
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(FNV128_PRIME);
        }
        self.state = h;
        self
    }

    /// Feed a length-framed string field.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(&[0x01]);
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// Feed a fixed-width `u64` field (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Feed a tagged optional `u64` (`None` and `Some(0)` hash apart).
    pub fn write_opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            None => self.write(&[0x02]),
            Some(x) => {
                self.write(&[0x03]);
                self.write_u64(x)
            }
        }
    }

    /// Feed a tagged bool.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write(&[0x04, u8::from(v)])
    }

    /// Feed a length-framed list of string fields.
    pub fn write_strs<S: AsRef<str>>(&mut self, items: &[S]) -> &mut Self {
        self.write(&[0x05]);
        self.write_u64(items.len() as u64);
        for s in items {
            self.write_str(s.as_ref());
        }
        self
    }

    /// The digest so far (the hasher remains usable).
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Render a 128-bit digest as 32 lowercase hex digits — the on-disk cache
/// file name and the wire spelling of content hashes.
pub fn hex128(h: u128) -> String {
    format!("{h:032x}")
}

/// Parse the [`hex128`] spelling back.
pub fn parse_hex128(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_test_vectors() {
        // Standard FNV-1a vectors (http://www.isthe.com/chongo/tech/comp/fnv/).
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv128(b""), FNV128_OFFSET);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Hasher128::new();
        h.write(b"hello ").write(b"world");
        assert_eq!(h.finish(), fnv128(b"hello world"));
    }

    #[test]
    fn framing_prevents_field_aliasing() {
        let mut a = Hasher128::new();
        a.write_str("ab").write_str("c");
        let mut b = Hasher128::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Hasher128::new();
        c.write_opt_u64(None);
        let mut d = Hasher128::new();
        d.write_opt_u64(Some(0));
        assert_ne!(c.finish(), d.finish());

        let mut e = Hasher128::new();
        e.write_strs(&["x", "y"]);
        let mut f = Hasher128::new();
        f.write_strs(&["x"]).write_strs(&["y"]);
        assert_ne!(e.finish(), f.finish());
    }

    #[test]
    fn hex_round_trip() {
        for v in [0u128, 1, u128::MAX, fnv128(b"roundtrip")] {
            let s = hex128(v);
            assert_eq!(s.len(), 32);
            assert_eq!(parse_hex128(&s), Some(v));
        }
        assert_eq!(parse_hex128("xyz"), None);
        assert_eq!(parse_hex128("00"), None);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke-level avalanche check over small perturbations.
        let base = fnv128(b"program lu sub rhs() { }");
        let edited = fnv128(b"program lu sub rhs() { x = 1; }");
        assert_ne!(base, edited);
        assert_ne!(fnv64(b"T0"), fnv64(b"T1"));
    }
}
