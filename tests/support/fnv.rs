//! FNV-1a, the digest of every characterisation test. Integration tests
//! share no crate, so each one includes this file with `#[path]`.

/// FNV-1a over everything observable; `.0` is the digest so far.
pub struct Digest(pub u64);

impl Default for Digest {
    /// The 64-bit offset basis.
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// `x`, little-endian.
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}
