//! The four-round Secure Aggregation protocol (client and server state
//! machines).
//!
//! Round structure (paper Sec. 6 / Bonawitz et al. 2017):
//!
//! | # | Phase        | Client sends               | Server does                      |
//! |---|--------------|----------------------------|----------------------------------|
//! | 0 | Prepare      | key advertisement          | broadcast advertisement list U₁  |
//! | 1 | Prepare      | encrypted Shamir shares    | route shares; fix U₂             |
//! | 2 | Commit       | masked input vector        | accumulate masked sum; fix U₃    |
//! | 3 | Finalization | unmasking shares           | reconstruct + unmask             |
//!
//! Drop-out semantics: devices missing from a round are excluded from the
//! later sets; devices in U₂∖U₃ (shared keys, never committed) have their
//! *mask keys* reconstructed; devices in U₃ have their *self-mask seeds*
//! reconstructed. The server never learns both for one device, and clients
//! refuse requests that would make it ([`SecAggError::ConflictingReveal`]).

use crate::error::SecAggError;
use crate::field;
use crate::keys::{self, KeyPair};
use crate::masking;
use crate::shamir::{self, Share};
use fl_ml::rng;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Static parameters of one Secure Aggregation instance (one Aggregator
/// group of at least `k` devices, Sec. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecAggConfig {
    /// Reconstruction threshold `t`: the minimum number of devices that
    /// must survive through Finalization.
    pub threshold: usize,
    /// Input vector dimension.
    pub dim: usize,
}

impl SecAggConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 2` (a threshold of 1 would let the server
    /// reconstruct secrets alone) or `dim == 0`.
    pub fn new(threshold: usize, dim: usize) -> Self {
        assert!(threshold >= 2, "threshold must be at least 2");
        assert!(dim > 0, "dimension must be positive");
        SecAggConfig { threshold, dim }
    }
}

/// Round-0 message: a device's public keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyAdvertisement {
    /// Device index within the instance.
    pub id: u32,
    /// Public key for share encryption.
    pub c_public: u64,
    /// Public key for pairwise mask agreement.
    pub s_public: u64,
}

/// Round-1 message: encrypted Shamir shares, one ciphertext per recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedShares {
    /// Sender id.
    pub from: u32,
    /// `(recipient, ciphertext)` pairs.
    pub payloads: Vec<(u32, Vec<u8>)>,
}

/// Round-2 message: the masked input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedInput {
    /// Sender id.
    pub id: u32,
    /// Masked vector in the field.
    pub vector: Vec<u64>,
}

/// Server → clients at the start of Finalization: which devices committed
/// and which dropped after sharing keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnmaskingRequest {
    /// U₃ — devices whose self-mask seeds must be reconstructed.
    pub committed: Vec<u32>,
    /// U₂ ∖ U₃ — devices whose mask keys must be reconstructed.
    pub dropped_after_sharing: Vec<u32>,
}

/// Round-3 message: the shares a surviving device reveals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevealedShares {
    /// Sender id.
    pub from: u32,
    /// `(owner, share-of-owner's-self-mask-seed)` for committed devices.
    pub self_mask_shares: Vec<(u32, Share)>,
    /// `(owner, share-of-owner's-mask-secret-key)` for dropped devices.
    pub key_shares: Vec<(u32, Share)>,
}

fn evaluation_point(id: u32) -> u64 {
    u64::from(id) + 1
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Init,
    Advertised,
    SharedKeys,
    Committed,
    Finished,
}

impl ClientState {
    fn name(self) -> &'static str {
        match self {
            ClientState::Init => "init",
            ClientState::Advertised => "advertised",
            ClientState::SharedKeys => "shared-keys",
            ClientState::Committed => "committed",
            ClientState::Finished => "finished",
        }
    }
}

/// A device's Secure Aggregation state machine.
#[derive(Debug, Clone)]
pub struct SecAggClient {
    id: u32,
    config: SecAggConfig,
    c_pair: KeyPair,
    s_pair: KeyPair,
    /// Self-mask seed `b_u`.
    self_seed: u64,
    state: ClientState,
    /// Advertisements of *all* participants (round-0 broadcast), by id.
    peers: BTreeMap<u32, KeyAdvertisement>,
    /// Shares this client holds for other participants:
    /// owner → (key share, self-mask share).
    held_shares: BTreeMap<u32, (Share, Share)>,
    /// U₂ as observed by this client (senders of shares it received).
    share_senders: BTreeSet<u32>,
    /// Ids whose key share was already revealed (conflict tracking).
    revealed_keys: BTreeSet<u32>,
    /// Ids whose self-mask share was already revealed.
    revealed_seeds: BTreeSet<u32>,
    share_rng_seed: u64,
}

impl SecAggClient {
    /// Creates a client for device `id` with deterministic randomness
    /// derived from `seed`.
    pub fn new(id: u32, config: SecAggConfig, seed: u64) -> Self {
        let mut r = rng::seeded_stream(seed, u64::from(id));
        let c_pair = KeyPair::generate(&mut r);
        let s_pair = KeyPair::generate(&mut r);
        // The seed must live in the field: it is Shamir-shared (which
        // reduces mod p), and the PRG expansion must use the exact value
        // the server will reconstruct.
        let self_seed = r.random_range(0..field::PRIME);
        let share_rng_seed = r.random::<u64>();
        SecAggClient {
            id,
            config,
            c_pair,
            s_pair,
            self_seed,
            state: ClientState::Init,
            peers: BTreeMap::new(),
            held_shares: BTreeMap::new(),
            share_senders: BTreeSet::new(),
            revealed_keys: BTreeSet::new(),
            revealed_seeds: BTreeSet::new(),
            share_rng_seed,
        }
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Round 0: produce the key advertisement.
    ///
    /// # Errors
    ///
    /// Returns [`SecAggError::OutOfOrder`] if called twice.
    pub fn advertise_keys(&mut self) -> Result<KeyAdvertisement, SecAggError> {
        if self.state != ClientState::Init {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted: "advertise_keys",
            });
        }
        self.state = ClientState::Advertised;
        Ok(KeyAdvertisement {
            id: self.id,
            c_public: self.c_pair.public,
            s_public: self.s_pair.public,
        })
    }

    /// Round 1: given the broadcast advertisement list U₁, Shamir-share the
    /// mask secret key and self-mask seed among all participants and
    /// encrypt each pair of shares for its recipient.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if U₁ is smaller than the threshold;
    /// [`SecAggError::OutOfOrder`] on protocol misuse;
    /// [`SecAggError::UnknownParticipant`] if U₁ omits this client.
    pub fn share_keys(
        &mut self,
        advertisements: &[KeyAdvertisement],
    ) -> Result<EncryptedShares, SecAggError> {
        if self.state != ClientState::Advertised {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted: "share_keys",
            });
        }
        if advertisements.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: advertisements.len(),
                threshold: self.config.threshold,
            });
        }
        if !advertisements.iter().any(|a| a.id == self.id) {
            return Err(SecAggError::UnknownParticipant(self.id));
        }
        self.peers = advertisements.iter().map(|a| (a.id, *a)).collect();

        let points: Vec<u64> = self.peers.keys().map(|&id| evaluation_point(id)).collect();
        let ids: Vec<u32> = self.peers.keys().copied().collect();
        let mut share_rng = rng::seeded_stream(self.share_rng_seed, 1);
        let key_shares = shamir::share_at(
            self.s_pair.secret(),
            &points,
            self.config.threshold,
            &mut share_rng,
        );
        let seed_shares =
            shamir::share_at(self.self_seed, &points, self.config.threshold, &mut share_rng);

        let mut payloads = Vec::with_capacity(ids.len());
        for ((recipient, key_share), seed_share) in
            ids.iter().zip(&key_shares).zip(&seed_shares)
        {
            if *recipient == self.id {
                // Keep own shares locally.
                self.held_shares
                    .insert(self.id, (*key_share, *seed_share));
                continue;
            }
            let mut plaintext = Vec::with_capacity(16);
            plaintext.extend_from_slice(&key_share.y.to_le_bytes());
            plaintext.extend_from_slice(&seed_share.y.to_le_bytes());
            let peer = &self.peers[recipient];
            let cipher_seed = self.c_pair.agree(peer.c_public);
            payloads.push((*recipient, keys::xor_cipher(cipher_seed, &plaintext)));
        }
        self.state = ClientState::SharedKeys;
        Ok(EncryptedShares {
            from: self.id,
            payloads,
        })
    }

    /// Delivery of the shares other participants encrypted for this client
    /// (routed by the server between rounds 1 and 2). The set of senders
    /// becomes this client's view of U₂.
    ///
    /// # Errors
    ///
    /// [`SecAggError::OutOfOrder`], [`SecAggError::UnknownParticipant`] for
    /// senders not in U₁, or [`SecAggError::BadShare`] for undecodable
    /// payloads.
    pub fn receive_shares(&mut self, incoming: &[(u32, Vec<u8>)]) -> Result<(), SecAggError> {
        if self.state != ClientState::SharedKeys {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted: "receive_shares",
            });
        }
        for (from, ciphertext) in incoming {
            let peer = self
                .peers
                .get(from)
                .ok_or(SecAggError::UnknownParticipant(*from))?;
            let cipher_seed = self.c_pair.agree(peer.c_public);
            let plaintext = keys::xor_cipher(cipher_seed, ciphertext);
            if plaintext.len() != 16 {
                return Err(SecAggError::BadShare);
            }
            let (key_bytes, seed_bytes) = plaintext.split_at(8);
            let key_y = u64::from_le_bytes(key_bytes.try_into().map_err(|_| SecAggError::BadShare)?);
            let seed_y = u64::from_le_bytes(seed_bytes.try_into().map_err(|_| SecAggError::BadShare)?);
            if key_y >= field::PRIME || seed_y >= field::PRIME {
                return Err(SecAggError::BadShare);
            }
            let x = evaluation_point(self.id);
            self.held_shares
                .insert(*from, (Share { x, y: key_y }, Share { x, y: seed_y }));
            self.share_senders.insert(*from);
        }
        self.share_senders.insert(self.id);
        Ok(())
    }

    /// Round 2: mask the input and produce the commit message.
    ///
    /// The mask covers every member of this client's view of U₂ (share
    /// senders), so later drop-outs leave removable residuals.
    ///
    /// # Errors
    ///
    /// [`SecAggError::DimensionMismatch`], [`SecAggError::BelowThreshold`]
    /// if U₂ is too small, or [`SecAggError::OutOfOrder`].
    pub fn commit(&mut self, input: &[u64]) -> Result<MaskedInput, SecAggError> {
        if self.state != ClientState::SharedKeys {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted: "commit",
            });
        }
        if input.len() != self.config.dim {
            return Err(SecAggError::DimensionMismatch {
                expected: self.config.dim,
                actual: input.len(),
            });
        }
        if self.share_senders.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.share_senders.len(),
                threshold: self.config.threshold,
            });
        }
        let pairwise: Vec<(u32, u64)> = self
            .share_senders
            .iter()
            .filter(|&&v| v != self.id)
            .map(|&v| (v, self.s_pair.agree(self.peers[&v].s_public)))
            .collect();
        let mut vector: Vec<u64> = input.iter().map(|&v| field::reduce(v)).collect();
        masking::mask_input(&mut vector, self.id, self.self_seed, &pairwise);
        self.state = ClientState::Committed;
        Ok(MaskedInput {
            id: self.id,
            vector,
        })
    }

    /// Round 3: reveal unmasking shares per the server's request.
    ///
    /// # Errors
    ///
    /// [`SecAggError::ConflictingReveal`] if the request (or the union of
    /// all requests seen so far) asks for both the self-mask share and the
    /// key share of one device; [`SecAggError::OutOfOrder`] otherwise
    /// misused.
    pub fn unmask(&mut self, request: &UnmaskingRequest) -> Result<RevealedShares, SecAggError> {
        if self.state != ClientState::Committed {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted: "unmask",
            });
        }
        // The privacy invariant: never reveal both secrets of one device.
        for id in &request.committed {
            if request.dropped_after_sharing.contains(id) || self.revealed_keys.contains(id) {
                return Err(SecAggError::ConflictingReveal(*id));
            }
        }
        for id in &request.dropped_after_sharing {
            if self.revealed_seeds.contains(id) {
                return Err(SecAggError::ConflictingReveal(*id));
            }
        }
        let mut self_mask_shares = Vec::new();
        for &owner in &request.committed {
            if let Some((_, seed_share)) = self.held_shares.get(&owner) {
                self_mask_shares.push((owner, *seed_share));
                self.revealed_seeds.insert(owner);
            }
        }
        let mut key_shares = Vec::new();
        for &owner in &request.dropped_after_sharing {
            if let Some((key_share, _)) = self.held_shares.get(&owner) {
                key_shares.push((owner, *key_share));
                self.revealed_keys.insert(owner);
            }
        }
        self.state = ClientState::Finished;
        Ok(RevealedShares {
            from: self.id,
            self_mask_shares,
            key_shares,
        })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    CollectingAdvertisements,
    CollectingShares,
    CollectingMasked,
    CollectingReveals,
    Done,
}

impl ServerState {
    fn name(self) -> &'static str {
        match self {
            ServerState::CollectingAdvertisements => "collecting-advertisements",
            ServerState::CollectingShares => "collecting-shares",
            ServerState::CollectingMasked => "collecting-masked-inputs",
            ServerState::CollectingReveals => "collecting-reveals",
            ServerState::Done => "done",
        }
    }
}

/// The server side of one Secure Aggregation instance.
///
/// The server is an untrusted router + accumulator: it sees only public
/// keys, ciphertexts it cannot open, masked vectors, and reconstruction
/// shares for the secrets the protocol explicitly reveals.
#[derive(Debug, Clone)]
pub struct SecAggServer {
    config: SecAggConfig,
    state: ServerState,
    advertisements: BTreeMap<u32, KeyAdvertisement>,
    /// recipient → incoming (sender, ciphertext).
    routed: HashMap<u32, Vec<(u32, Vec<u8>)>>,
    /// U₂: devices that delivered shares.
    shared: BTreeSet<u32>,
    /// U₃: devices that committed, and the running masked sum.
    committed: BTreeSet<u32>,
    masked_sum: Vec<u64>,
    /// Collected reveal shares: owner → shares.
    seed_reveals: BTreeMap<u32, Vec<Share>>,
    key_reveals: BTreeMap<u32, Vec<Share>>,
    revealers: BTreeSet<u32>,
}

impl SecAggServer {
    /// Creates a server instance.
    pub fn new(config: SecAggConfig) -> Self {
        SecAggServer {
            config,
            state: ServerState::CollectingAdvertisements,
            advertisements: BTreeMap::new(),
            routed: HashMap::new(),
            shared: BTreeSet::new(),
            committed: BTreeSet::new(),
            masked_sum: vec![0; config.dim],
            seed_reveals: BTreeMap::new(),
            key_reveals: BTreeMap::new(),
            revealers: BTreeSet::new(),
        }
    }

    fn expect_state(&self, state: ServerState, attempted: &'static str) -> Result<(), SecAggError> {
        if self.state != state {
            return Err(SecAggError::OutOfOrder {
                state: self.state.name(),
                attempted,
            });
        }
        Ok(())
    }

    /// Round 0: collect one advertisement.
    ///
    /// # Errors
    ///
    /// [`SecAggError::DuplicateMessage`] or [`SecAggError::OutOfOrder`].
    pub fn collect_advertisement(&mut self, adv: KeyAdvertisement) -> Result<(), SecAggError> {
        self.expect_state(ServerState::CollectingAdvertisements, "collect_advertisement")?;
        if self.advertisements.insert(adv.id, adv).is_some() {
            return Err(SecAggError::DuplicateMessage(adv.id));
        }
        Ok(())
    }

    /// Closes round 0 and returns the broadcast list U₁.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if too few devices advertised.
    pub fn finish_advertising(&mut self) -> Result<Vec<KeyAdvertisement>, SecAggError> {
        self.expect_state(ServerState::CollectingAdvertisements, "finish_advertising")?;
        if self.advertisements.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.advertisements.len(),
                threshold: self.config.threshold,
            });
        }
        self.state = ServerState::CollectingShares;
        Ok(self.advertisements.values().copied().collect())
    }

    /// Round 1: collect one device's encrypted shares and route them.
    ///
    /// # Errors
    ///
    /// [`SecAggError::UnknownParticipant`], [`SecAggError::DuplicateMessage`],
    /// or [`SecAggError::OutOfOrder`].
    pub fn collect_shares(&mut self, shares: EncryptedShares) -> Result<(), SecAggError> {
        self.expect_state(ServerState::CollectingShares, "collect_shares")?;
        if !self.advertisements.contains_key(&shares.from) {
            return Err(SecAggError::UnknownParticipant(shares.from));
        }
        if !self.shared.insert(shares.from) {
            return Err(SecAggError::DuplicateMessage(shares.from));
        }
        for (recipient, ciphertext) in shares.payloads {
            if !self.advertisements.contains_key(&recipient) {
                return Err(SecAggError::UnknownParticipant(recipient));
            }
            self.routed
                .entry(recipient)
                .or_default()
                .push((shares.from, ciphertext));
        }
        Ok(())
    }

    /// Closes round 1, fixing U₂, and returns each live recipient's
    /// incoming shares.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if U₂ is smaller than the threshold.
    pub fn finish_sharing(&mut self) -> Result<HashMap<u32, Vec<(u32, Vec<u8>)>>, SecAggError> {
        self.expect_state(ServerState::CollectingShares, "finish_sharing")?;
        if self.shared.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.shared.len(),
                threshold: self.config.threshold,
            });
        }
        self.state = ServerState::CollectingMasked;
        // Only route shares *from* U₂ members *to* U₂ members.
        let shared = self.shared.clone();
        let mut out = HashMap::new();
        for (&recipient, incoming) in &self.routed {
            if !shared.contains(&recipient) {
                continue;
            }
            let filtered: Vec<(u32, Vec<u8>)> = incoming
                .iter()
                .filter(|(from, _)| shared.contains(from))
                .cloned()
                .collect();
            out.insert(recipient, filtered);
        }
        Ok(out)
    }

    /// Round 2: accumulate one masked input into the running sum. The
    /// per-device vector is folded in and dropped (in-memory streaming, as
    /// in plain aggregation).
    ///
    /// # Errors
    ///
    /// [`SecAggError::UnknownParticipant`] for devices outside U₂,
    /// [`SecAggError::DuplicateMessage`], [`SecAggError::DimensionMismatch`],
    /// or [`SecAggError::OutOfOrder`].
    pub fn collect_masked(&mut self, input: MaskedInput) -> Result<(), SecAggError> {
        self.expect_state(ServerState::CollectingMasked, "collect_masked")?;
        if !self.shared.contains(&input.id) {
            return Err(SecAggError::UnknownParticipant(input.id));
        }
        if input.vector.len() != self.config.dim {
            return Err(SecAggError::DimensionMismatch {
                expected: self.config.dim,
                actual: input.vector.len(),
            });
        }
        if !self.committed.insert(input.id) {
            return Err(SecAggError::DuplicateMessage(input.id));
        }
        field::add_assign_vec(&mut self.masked_sum, &input.vector);
        Ok(())
    }

    /// Closes round 2, fixing U₃, and returns the unmasking request to
    /// broadcast to survivors.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if fewer than `threshold` devices
    /// committed.
    pub fn finish_commit(&mut self) -> Result<UnmaskingRequest, SecAggError> {
        self.expect_state(ServerState::CollectingMasked, "finish_commit")?;
        if self.committed.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.committed.len(),
                threshold: self.config.threshold,
            });
        }
        self.state = ServerState::CollectingReveals;
        Ok(UnmaskingRequest {
            committed: self.committed.iter().copied().collect(),
            dropped_after_sharing: self
                .shared
                .difference(&self.committed)
                .copied()
                .collect(),
        })
    }

    /// Round 3: collect one device's revealed shares.
    ///
    /// # Errors
    ///
    /// [`SecAggError::DuplicateMessage`], [`SecAggError::UnknownParticipant`],
    /// or [`SecAggError::OutOfOrder`].
    pub fn collect_reveals(&mut self, reveals: RevealedShares) -> Result<(), SecAggError> {
        self.expect_state(ServerState::CollectingReveals, "collect_reveals")?;
        if !self.committed.contains(&reveals.from) {
            return Err(SecAggError::UnknownParticipant(reveals.from));
        }
        if !self.revealers.insert(reveals.from) {
            return Err(SecAggError::DuplicateMessage(reveals.from));
        }
        for (owner, share) in reveals.self_mask_shares {
            self.seed_reveals.entry(owner).or_default().push(share);
        }
        for (owner, share) in reveals.key_shares {
            self.key_reveals.entry(owner).or_default().push(share);
        }
        Ok(())
    }

    /// Finalizes the protocol: reconstructs self-mask seeds for committed
    /// devices and mask keys for dropped devices, removes all masks, and
    /// returns the field sum of the committed devices' inputs.
    ///
    /// "So long as a sufficient number of the devices who started the
    /// protocol survive through the Finalization phase, the entire protocol
    /// succeeds."
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if too few devices revealed, or
    /// [`SecAggError::ReconstructionFailed`] if shares are insufficient or
    /// inconsistent with the advertised public keys.
    pub fn finalize(&mut self) -> Result<Vec<u64>, SecAggError> {
        self.expect_state(ServerState::CollectingReveals, "finalize")?;
        if self.revealers.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.revealers.len(),
                threshold: self.config.threshold,
            });
        }
        // Reconstruct every secret before touching the sum: a failure
        // leaves the server as it was, and past this point nothing fails.
        let seeds = self
            .committed
            .iter()
            .map(|&u| self.reconstruct(&self.seed_reveals, u))
            .collect::<Result<Vec<u64>, _>>()?;
        let mut dropped = Vec::new();
        for &v in self.shared.difference(&self.committed) {
            let pair = KeyPair::from_secret(self.reconstruct(&self.key_reveals, v)?);
            // Integrity check: the reconstructed key must match what the
            // device advertised.
            if pair.public != self.advertisements[&v].s_public {
                return Err(SecAggError::ReconstructionFailed(v));
            }
            dropped.push((v, pair));
        }
        // The masked sum is unmasked in place; the state is `Done` after.
        let mut sum = std::mem::take(&mut self.masked_sum);
        // Remove self masks of committed devices.
        for seed in seeds {
            masking::remove_self_mask(&mut sum, seed);
        }
        // Remove residual pairwise masks of dropped devices.
        let committed_pubs: Vec<(u32, u64)> = self
            .committed
            .iter()
            .map(|&u| (u, self.advertisements[&u].s_public))
            .collect();
        for (v, pair) in dropped {
            masking::remove_residual_pairwise(&mut sum, v, &pair, &committed_pubs);
        }
        self.state = ServerState::Done;
        Ok(sum)
    }

    /// `owner`'s secret, from the shares revealed for it.
    fn reconstruct(
        &self,
        reveals: &BTreeMap<u32, Vec<Share>>,
        owner: u32,
    ) -> Result<u64, SecAggError> {
        reveals
            .get(&owner)
            .and_then(|shares| shamir::reconstruct(shares, self.config.threshold).ok())
            .ok_or(SecAggError::ReconstructionFailed(owner))
    }

    /// The set of devices whose inputs are included in the final sum (U₃).
    pub fn committed_devices(&self) -> Vec<u32> {
        self.committed.iter().copied().collect()
    }
}

/// Runs a full Secure Aggregation instance in-process over the given
/// inputs, with the listed drop-out stages. Returns the unmasked field sum
/// of the inputs of devices that committed.
///
/// `drop_after_advertise` devices vanish after round 0;
/// `drop_after_share` devices vanish after delivering shares (their
/// residual pairwise masks must be reconstructed away).
///
/// This is the reference harness used by tests, benches, and
/// `fl-server`'s per-Aggregator SecAgg instances.
///
/// # Errors
///
/// Any protocol error (e.g. dropping below the threshold).
pub fn run_instance(
    config: SecAggConfig,
    inputs: &[Vec<u64>],
    drop_after_advertise: &[u32],
    drop_after_share: &[u32],
    seed: u64,
) -> Result<Vec<u64>, SecAggError> {
    let n = inputs.len();
    let mut clients: Vec<SecAggClient> = (0..n as u32)
        .map(|id| SecAggClient::new(id, config, seed))
        .collect();
    let mut server = SecAggServer::new(config);

    // Round 0: every device advertises, the ones that drop later too.
    for c in clients.iter_mut() {
        server.collect_advertisement(c.advertise_keys()?)?;
    }
    let broadcast = server.finish_advertising()?;

    // Round 1: advertise-stage drop-outs never send shares.
    for c in clients.iter_mut() {
        if drop_after_advertise.contains(&c.id()) {
            continue;
        }
        server.collect_shares(c.share_keys(&broadcast)?)?;
    }
    let routed = server.finish_sharing()?;
    for c in clients.iter_mut() {
        if drop_after_advertise.contains(&c.id()) {
            continue;
        }
        if let Some(incoming) = routed.get(&c.id()) {
            c.receive_shares(incoming)?;
        }
    }

    // Round 2: share-stage drop-outs never commit.
    for (i, c) in clients.iter_mut().enumerate() {
        if drop_after_advertise.contains(&c.id()) || drop_after_share.contains(&c.id()) {
            continue;
        }
        server.collect_masked(c.commit(&inputs[i])?)?;
    }
    let request = server.finish_commit()?;

    // Round 3: all committed devices reveal (the protocol only needs
    // `threshold` of them; tests exercise partial reveals separately).
    for c in clients.iter_mut() {
        if drop_after_advertise.contains(&c.id()) || drop_after_share.contains(&c.id()) {
            continue;
        }
        server.collect_reveals(c.unmask(&request)?)?;
    }
    server.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_sum(inputs: &[Vec<u64>], include: impl Fn(u32) -> bool) -> Vec<u64> {
        let dim = inputs[0].len();
        let mut sum = vec![0u64; dim];
        for (i, x) in inputs.iter().enumerate() {
            if include(i as u32) {
                for (s, &v) in sum.iter_mut().zip(x) {
                    *s = field::add(*s, field::reduce(v));
                }
            }
        }
        sum
    }

    fn inputs(n: usize, dim: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..dim).map(|d| (i * 1000 + d) as u64).collect())
            .collect()
    }

    #[test]
    fn no_dropout_sum_matches_plaintext() {
        let config = SecAggConfig::new(3, 8);
        let xs = inputs(5, 8);
        let sum = run_instance(config, &xs, &[], &[], 42).unwrap();
        assert_eq!(sum, plain_sum(&xs, |_| true));
    }

    #[test]
    fn dropout_after_advertise_is_excluded_cleanly() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(6, 4);
        let sum = run_instance(config, &xs, &[1, 4], &[], 7).unwrap();
        assert_eq!(sum, plain_sum(&xs, |i| i != 1 && i != 4));
    }

    #[test]
    fn dropout_after_share_requires_key_reconstruction() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(6, 4);
        let sum = run_instance(config, &xs, &[], &[2], 11).unwrap();
        assert_eq!(sum, plain_sum(&xs, |i| i != 2));
    }

    #[test]
    fn mixed_dropouts_at_both_stages() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(8, 4);
        let sum = run_instance(config, &xs, &[0], &[5, 7], 13).unwrap();
        assert_eq!(sum, plain_sum(&xs, |i| i != 0 && i != 5 && i != 7));
    }

    #[test]
    fn below_threshold_fails() {
        let config = SecAggConfig::new(4, 4);
        let xs = inputs(5, 4);
        // Only 3 of 5 commit; threshold is 4.
        let err = run_instance(config, &xs, &[], &[1, 2], 17).unwrap_err();
        assert!(matches!(err, SecAggError::BelowThreshold { .. }));
    }

    #[test]
    fn conflicting_reveal_is_refused_by_clients() {
        let config = SecAggConfig::new(2, 2);
        let mut clients: Vec<SecAggClient> =
            (0..3).map(|id| SecAggClient::new(id, config, 1)).collect();
        let mut server = SecAggServer::new(config);
        for c in clients.iter_mut() {
            server.collect_advertisement(c.advertise_keys().unwrap()).unwrap();
        }
        let broadcast = server.finish_advertising().unwrap();
        for c in clients.iter_mut() {
            server.collect_shares(c.share_keys(&broadcast).unwrap()).unwrap();
        }
        let routed = server.finish_sharing().unwrap();
        for c in clients.iter_mut() {
            c.receive_shares(&routed[&c.id()]).unwrap();
        }
        for c in clients.iter_mut() {
            server.collect_masked(c.commit(&[1, 2]).unwrap()).unwrap();
        }
        let _ = server.finish_commit().unwrap();
        // Malicious request: device 0 in both lists.
        let bad = UnmaskingRequest {
            committed: vec![0, 1, 2],
            dropped_after_sharing: vec![0],
        };
        assert!(matches!(
            clients[1].unmask(&bad),
            Err(SecAggError::ConflictingReveal(0))
        ));
    }

    #[test]
    fn only_threshold_many_reveals_needed() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(5, 4);
        let mut clients: Vec<SecAggClient> =
            (0..5).map(|id| SecAggClient::new(id, config, 3)).collect();
        let mut server = SecAggServer::new(config);
        for c in clients.iter_mut() {
            server.collect_advertisement(c.advertise_keys().unwrap()).unwrap();
        }
        let broadcast = server.finish_advertising().unwrap();
        for c in clients.iter_mut() {
            server.collect_shares(c.share_keys(&broadcast).unwrap()).unwrap();
        }
        let routed = server.finish_sharing().unwrap();
        for c in clients.iter_mut() {
            c.receive_shares(&routed[&c.id()]).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            server.collect_masked(c.commit(&xs[i]).unwrap()).unwrap();
        }
        let request = server.finish_commit().unwrap();
        // Only 3 of 5 devices survive to reveal — exactly the threshold.
        for c in clients.iter_mut().take(3) {
            server.collect_reveals(c.unmask(&request).unwrap()).unwrap();
        }
        let sum = server.finalize().unwrap();
        assert_eq!(sum, plain_sum(&xs, |_| true));
    }

    #[test]
    fn server_rejects_protocol_misuse() {
        let config = SecAggConfig::new(2, 2);
        let mut server = SecAggServer::new(config);
        // Finish without any advertisements.
        assert!(matches!(
            server.finish_advertising(),
            Err(SecAggError::BelowThreshold { .. })
        ));
        // Masked input before the commit phase.
        assert!(matches!(
            server.collect_masked(MaskedInput {
                id: 0,
                vector: vec![0, 0]
            }),
            Err(SecAggError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn client_rejects_out_of_order_calls() {
        let config = SecAggConfig::new(2, 2);
        let mut c = SecAggClient::new(0, config, 1);
        assert!(matches!(
            c.commit(&[1, 2]),
            Err(SecAggError::OutOfOrder { .. })
        ));
        c.advertise_keys().unwrap();
        assert!(matches!(
            c.advertise_keys(),
            Err(SecAggError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn duplicate_messages_rejected() {
        let config = SecAggConfig::new(2, 2);
        let mut c0 = SecAggClient::new(0, config, 1);
        let mut c1 = SecAggClient::new(1, config, 1);
        let mut server = SecAggServer::new(config);
        let adv = c0.advertise_keys().unwrap();
        server.collect_advertisement(adv).unwrap();
        assert!(matches!(
            server.collect_advertisement(adv),
            Err(SecAggError::DuplicateMessage(0))
        ));
        server
            .collect_advertisement(c1.advertise_keys().unwrap())
            .unwrap();
    }

    #[test]
    fn works_with_values_near_field_size() {
        let config = SecAggConfig::new(2, 2);
        let xs = vec![
            vec![field::PRIME - 1, field::PRIME - 2],
            vec![5, 7],
            vec![field::PRIME - 3, 11],
        ];
        let sum = run_instance(config, &xs, &[], &[], 23).unwrap();
        assert_eq!(sum, plain_sum(&xs, |_| true));
    }
}
