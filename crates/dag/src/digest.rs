//! Deterministic content hashing: 128-bit FNV-1a.

/// 128-bit FNV-1a, the workspace's convention for deterministic content
/// hashes (64-bit would start colliding around a few billion distinct
/// entries; sweeps reach millions).
///
/// FNV-1a's running state *is* its digest, so a finished digest can be
/// resumed ([`ContentHasher::resume`]): hashing `a` then `b` in one stream
/// equals resuming from `a`'s digest and hashing `b`. Content keys built
/// on a graph's memoized [`Dag::digest`](crate::Dag::digest) rely on that.
///
/// # Examples
///
/// ```
/// use hetrta_dag::ContentHasher;
///
/// let mut whole = ContentHasher::new();
/// whole.write_u64(7);
/// whole.write_str("het");
///
/// let mut head = ContentHasher::new();
/// head.write_u64(7);
/// let mut resumed = ContentHasher::resume(head.finish());
/// resumed.write_str("het");
/// assert_eq!(resumed.finish(), whole.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl ContentHasher {
    /// Creates a hasher with the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher::resume(FNV128_OFFSET)
    }

    /// Continues the stream whose digest so far is `digest`.
    #[must_use]
    pub fn resume(digest: u128) -> Self {
        ContentHasher { state: digest }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= u128::from(byte);
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Feeds a 64-bit word (little-endian).
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Feeds a length-prefixed string.
    pub fn write_str(&mut self, text: &str) {
        self.write_u64(text.len() as u64);
        for byte in text.bytes() {
            self.write_u8(byte);
        }
    }

    /// Returns the accumulated digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}
