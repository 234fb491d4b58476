//! Simulated device attestation (Sec. 3, *Attestation*).
//!
//! "We want devices to participate in FL anonymously, which excludes the
//! possibility of authenticating them via a user identity. […] We do so by
//! using Android's remote attestation mechanism, which helps to ensure
//! that only genuine devices and applications participate in FL."
//!
//! The substitution (see DESIGN.md): instead of SafetyNet, genuine devices
//! hold a factory key derived from a fleet root secret; a token is a keyed
//! hash over a server nonce. The *systems* behaviour is preserved — the
//! server admits anonymous devices whose tokens verify and rejects
//! non-genuine ones — without real hardware-backed attestation.

/// A keyed 64-bit hash (SplitMix-based). Not cryptographically secure;
/// simulation-grade by design.
fn keyed_hash(key: u64, data: u64) -> u64 {
    let mut z = key ^ data.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a genuine device's factory key from the fleet root secret and
/// an opaque hardware id (never sent to the server).
pub fn factory_key(fleet_root: u64, hardware_id: u64) -> u64 {
    keyed_hash(fleet_root, hardware_id ^ 0xA77E_57A7_1073_57ED)
}

/// An attestation token covering a server-issued nonce.
///
/// The token is anonymous: it proves "a genuine device produced this" but
/// carries no stable device identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestationToken {
    /// The hardware id blinded by the nonce (so the server cannot link
    /// sessions); verification only needs the keyed MAC.
    pub blinded_id: u64,
    /// MAC over the nonce under the factory key.
    pub mac: u64,
}

/// Device side: produce a token for the server's nonce.
// fl-lint: allow(test-only-pub): paper Sec. 3 attestation; tests/device_behaviour.rs
pub fn attest(factory_key: u64, hardware_id: u64, nonce: u64) -> AttestationToken {
    AttestationToken {
        blinded_id: hardware_id ^ keyed_hash(nonce, nonce),
        mac: keyed_hash(factory_key, nonce),
    }
}

/// Server side: verify a token against the fleet root. The server
/// recovers the (blinded) hardware id, derives what the factory key should
/// be, and checks the MAC.
// fl-lint: allow(test-only-pub): paper Sec. 3 attestation; tests/device_behaviour.rs
pub fn verify(fleet_root: u64, token: &AttestationToken, nonce: u64) -> bool {
    let hardware_id = token.blinded_id ^ keyed_hash(nonce, nonce);
    let expected_key = factory_key(fleet_root, hardware_id);
    keyed_hash(expected_key, nonce) == token.mac
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: u64 = 0xDEAD_BEEF_CAFE_F00D;

    #[test]
    fn genuine_device_verifies() {
        let hw = 123_456_789;
        let key = factory_key(ROOT, hw);
        let token = attest(key, hw, 42);
        assert!(verify(ROOT, &token, 42));
    }

    #[test]
    fn wrong_nonce_fails() {
        let hw = 99;
        let key = factory_key(ROOT, hw);
        let token = attest(key, hw, 42);
        assert!(!verify(ROOT, &token, 43));
    }

    #[test]
    fn non_genuine_device_fails() {
        // A compromised device guesses a key instead of holding the
        // factory key.
        let hw = 7;
        let token = attest(0x1234, hw, 42);
        assert!(!verify(ROOT, &token, 42));
    }

    #[test]
    fn replayed_token_fails_fresh_nonce() {
        let hw = 55;
        let key = factory_key(ROOT, hw);
        let old = attest(key, hw, 1);
        // The server issues a fresh nonce per check-in; the replay fails.
        assert!(!verify(ROOT, &old, 2));
    }

    #[test]
    fn tokens_do_not_expose_a_stable_identity() {
        let hw = 1_000_001;
        let key = factory_key(ROOT, hw);
        let t1 = attest(key, hw, 10);
        let t2 = attest(key, hw, 11);
        // The visible fields differ across sessions for the same device.
        assert_ne!(t1.blinded_id, t2.blinded_id);
        assert_ne!(t1.mac, t2.mac);
    }
}
