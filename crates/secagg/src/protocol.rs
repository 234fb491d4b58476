//! The four-round Secure Aggregation protocol (client and server as
//! type-states).
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
//! Each protocol stage is a type, and a client or server value offers only
//! the calls legal in its stage. A round's closing step consumes the value
//! and returns the next stage with that round's message, so a driver that
//! calls the rounds out of order does not compile:
//!
//! | # | Client stage: call                        | Server stage: calls                                             |
//! |---|-------------------------------------------|-----------------------------------------------------------------|
//! | 0 | [`Advertised`]: `advertisement`           | [`Advertising`]: `collect_advertisement`, `finish_advertising`  |
//! | 1 | [`Advertised`]: `share_keys` → [`Shared`] | [`Sharing`]: `collect_shares`, `finish_sharing`                 |
//! | 2 | [`Shared`]: `commit` → [`Committed`]      | [`Masking`]: `collect_masked`, `finish_commit`                  |
//! | 3 | [`Committed`]: `unmask`, consuming it     | [`Unmasking`]: `collect_reveals`, `finalize`, consuming it      |
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
use crate::shamir::{Interpolator, Polynomial, Share};
use fl_ml::rng;
use rand::RngExt;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

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

/// One recipient's pair of shares of the sender's secrets, encrypted:
/// the key share's and the self-mask share's field values as eight
/// little-endian bytes each, XORed with the keystream of the seed the
/// two agreed ([`keys::apply_keystream`]).
pub type ShareCiphertext = [u8; 16];

/// Round-1 output of the server: each recipient's incoming
/// `(sender, ciphertext)` pairs, by recipient.
pub type RoutedShares = HashMap<u32, Vec<(u32, ShareCiphertext)>>;

/// Round-1 message: encrypted Shamir shares, one ciphertext per recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedShares {
    /// Sender id.
    pub from: u32,
    /// `(recipient, ciphertext)` pairs.
    pub payloads: Vec<(u32, ShareCiphertext)>,
}

/// Round-2 message: the masked input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskedInput {
    /// Sender id.
    pub id: u32,
    /// Masked vector in the ring `Z_{2^32}`.
    pub vector: Vec<u32>,
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

/// Inserts `id` into the sorted `set`; `false` if it was already there.
fn insert_sorted(set: &mut Vec<u32>, id: u32) -> bool {
    match set.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, id);
            true
        }
    }
}

/// A device's input to [`SecAggClient::commit`]: a vector in the ring
/// `Z_{2^32}`, which the client masks in place, or a borrowed vector of
/// `u64` coordinates (a `SecAggReport`'s width), which is narrowed into a
/// ring vector first.
pub trait RingInput {
    /// The input as ring elements.
    ///
    /// # Errors
    ///
    /// [`SecAggError::OutOfRing`] for a coordinate of `2^32` or more.
    fn into_ring(self) -> Result<Vec<u32>, SecAggError>;
}

impl RingInput for Vec<u32> {
    fn into_ring(self) -> Result<Vec<u32>, SecAggError> {
        Ok(self)
    }
}

impl<T: AsRef<[u64]> + ?Sized> RingInput for &T {
    fn into_ring(self) -> Result<Vec<u32>, SecAggError> {
        let input = self.as_ref();
        match input.iter().position(|&v| v > u64::from(u32::MAX)) {
            Some(i) => Err(SecAggError::OutOfRing(i)),
            None => Ok(input.iter().map(|&v| v as u32).collect()),
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A device's Secure Aggregation client in protocol stage `S`
/// ([`Advertised`], [`Shared`] or [`Committed`]).
///
/// Each round's step consumes the client and returns it in the next
/// stage, so masking before sharing keys does not compile:
///
/// ```compile_fail,E0599
/// use fl_secagg::protocol::{SecAggClient, SecAggConfig};
/// let client = SecAggClient::new(0, SecAggConfig::new(2, 1), 7);
/// // `commit` is offered by `SecAggClient<Shared>` only.
/// let _ = client.commit(&[], &[1]);
/// ```
///
/// and neither does revealing twice:
///
/// ```compile_fail,E0382
/// use fl_secagg::protocol::{Committed, SecAggClient, UnmaskingRequest};
/// fn reveal_twice(client: SecAggClient<Committed>, request: &UnmaskingRequest) {
///     let _ = client.unmask(request);
///     // The first `unmask` consumed the client.
///     let _ = client.unmask(request);
/// }
/// ```
#[derive(Debug)]
pub struct SecAggClient<S> {
    id: u32,
    config: SecAggConfig,
    stage: S,
}

/// Client stage before round 1: the keys are generated, the advertisement
/// can be read, and [`SecAggClient::share_keys`] is next.
#[derive(Debug)]
pub struct Advertised {
    c_pair: KeyPair,
    s_pair: KeyPair,
    /// Self-mask seed `b_u`.
    self_seed: u64,
    share_rng_seed: u64,
}

/// Client stage after round 1: [`SecAggClient::commit`] is next.
#[derive(Debug)]
pub struct Shared {
    s_pair: KeyPair,
    self_seed: u64,
    /// Every member of U₁, this client included, in id order.
    members: Vec<Member>,
}

/// What a client keeps of one member of U₁ after round 1.
#[derive(Debug)]
struct Member {
    id: u32,
    /// The share-encryption seed agreed with the member: it encrypted the
    /// shares sent to the member and opens the ones the member sent back
    /// (0 for the client itself, which encrypts nothing to itself).
    cipher_seed: u64,
    /// The member's public key for pairwise mask agreement.
    s_public: u64,
    /// The (key share, self-mask share) of the member's secrets this
    /// client holds: its own from round 1, a peer's once round 2 opens
    /// them. The members holding some are the client's view of U₂.
    held: Option<(Share, Share)>,
}

/// Client stage after round 2: [`SecAggClient::unmask`] is next, and
/// last.
#[derive(Debug)]
pub struct Committed {
    /// U₁ as round 2 left it: the shares held are what can be revealed.
    members: Vec<Member>,
}

/// The shares `members` (in id order) hold of `owner`'s secrets.
fn held_of(members: &[Member], owner: u32) -> Option<(Share, Share)> {
    let i = members.binary_search_by_key(&owner, |m| m.id).ok()?;
    members[i].held
}

impl<S> SecAggClient<S> {
    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl SecAggClient<Advertised> {
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
            stage: Advertised {
                c_pair,
                s_pair,
                self_seed,
                share_rng_seed,
            },
        }
    }

    /// Round 0: the key advertisement.
    pub fn advertisement(&self) -> KeyAdvertisement {
        KeyAdvertisement {
            id: self.id,
            c_public: self.stage.c_pair.public,
            s_public: self.stage.s_pair.public,
        }
    }

    /// Round 1: given the broadcast advertisement list U₁, Shamir-share the
    /// mask secret key and self-mask seed among all participants and
    /// encrypt each pair of shares for its recipient. The seed agreed with
    /// each recipient is kept to open that recipient's shares in round 2.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if U₁ is smaller than the threshold;
    /// [`SecAggError::UnknownParticipant`] if U₁ omits this client.
    pub fn share_keys(
        self,
        advertisements: &[KeyAdvertisement],
    ) -> Result<(SecAggClient<Shared>, EncryptedShares), SecAggError> {
        // U₁ in id order, one advertisement per id: a repeated id keeps
        // its last advertisement, as a map keyed by id would.
        let u1: Cow<[KeyAdvertisement]> = if advertisements.is_sorted_by(|a, b| a.id < b.id) {
            Cow::Borrowed(advertisements)
        } else {
            let mut u1 = advertisements.to_vec();
            u1.sort_by_key(|a| a.id);
            u1.dedup_by(|later, earlier| {
                let repeated = later.id == earlier.id;
                if repeated {
                    *earlier = *later;
                }
                repeated
            });
            Cow::Owned(u1)
        };
        if u1.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: u1.len(),
                threshold: self.config.threshold,
            });
        }
        if !u1.iter().any(|a| a.id == self.id) {
            return Err(SecAggError::UnknownParticipant(self.id));
        }
        let Advertised {
            c_pair,
            s_pair,
            self_seed,
            share_rng_seed,
        } = self.stage;

        let threshold = self.config.threshold;
        let mut share_rng = rng::seeded_stream(share_rng_seed, 1);
        let key_polynomial = Polynomial::random(s_pair.secret(), threshold, &mut share_rng);
        let seed_polynomial = Polynomial::random(self_seed, threshold, &mut share_rng);
        let mut cipher_seeds = Vec::with_capacity(u1.len());
        cipher_seeds.extend(u1.iter().filter(|a| a.id != self.id).map(|a| a.c_public));
        c_pair.agree_all(&mut cipher_seeds);
        let mut cipher_seeds = cipher_seeds.into_iter();

        let mut members = Vec::with_capacity(u1.len());
        let mut payloads = Vec::with_capacity(u1.len() - 1);
        for peer in u1.iter() {
            let x = evaluation_point(peer.id);
            let shares = (key_polynomial.share(x), seed_polynomial.share(x));
            let mut member = Member {
                id: peer.id,
                cipher_seed: 0,
                s_public: peer.s_public,
                held: None,
            };
            if peer.id == self.id {
                // Keep own shares locally.
                member.held = Some(shares);
            } else if let Some(cipher_seed) = cipher_seeds.next() {
                // One seed was agreed per peer, in this order.
                member.cipher_seed = cipher_seed;
                let (key_share, seed_share) = shares;
                let mut ciphertext =
                    (u128::from(key_share.y) | u128::from(seed_share.y) << 64).to_le_bytes();
                keys::apply_keystream(member.cipher_seed, &mut ciphertext);
                payloads.push((peer.id, ciphertext));
            }
            members.push(member);
        }
        let client = SecAggClient {
            id: self.id,
            config: self.config,
            stage: Shared {
                s_pair,
                self_seed,
                members,
            },
        };
        Ok((
            client,
            EncryptedShares {
                from: self.id,
                payloads,
            },
        ))
    }
}

impl SecAggClient<Shared> {
    /// Round 2: open the shares other participants encrypted for this
    /// client (`incoming`, routed by the server after round 1) with the
    /// seeds kept from round 1, then mask the input and produce the commit
    /// message. A ring vector is masked in place and sent as it is; a
    /// `u64` one is narrowed into a new vector first ([`RingInput`]). The senders and this client are its view of U₂; the mask
    /// covers every member of it, so later drop-outs leave removable
    /// residuals.
    ///
    /// # Errors
    ///
    /// [`SecAggError::UnknownParticipant`] for senders not in U₁,
    /// [`SecAggError::BadShare`] for a share that opens to a value outside
    /// the field,
    /// [`SecAggError::OutOfRing`] for a `u64` input coordinate of `2^32`
    /// or more,
    /// [`SecAggError::DimensionMismatch`], or
    /// [`SecAggError::BelowThreshold`] if U₂ is too small.
    pub fn commit(
        self,
        incoming: &[(u32, ShareCiphertext)],
        input: impl RingInput,
    ) -> Result<(SecAggClient<Committed>, MaskedInput), SecAggError> {
        let Shared {
            s_pair,
            self_seed,
            mut members,
        } = self.stage;
        let x = evaluation_point(self.id);
        for (from, ciphertext) in incoming {
            let member = match members.binary_search_by_key(from, |m| m.id) {
                Ok(i) if *from != self.id => &mut members[i],
                _ => return Err(SecAggError::UnknownParticipant(*from)),
            };
            let mut plaintext = *ciphertext;
            keys::apply_keystream(member.cipher_seed, &mut plaintext);
            let words = u128::from_le_bytes(plaintext);
            let [key_y, seed_y] = [words as u64, (words >> 64) as u64];
            if key_y >= field::PRIME || seed_y >= field::PRIME {
                return Err(SecAggError::BadShare);
            }
            member.held = Some((Share { x, y: key_y }, Share { x, y: seed_y }));
        }
        let mut vector = input.into_ring()?;
        if vector.len() != self.config.dim {
            return Err(SecAggError::DimensionMismatch {
                expected: self.config.dim,
                actual: vector.len(),
            });
        }
        let held = members.iter().filter(|m| m.held.is_some()).count();
        if held < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: held,
                threshold: self.config.threshold,
            });
        }
        let peers = || {
            members
                .iter()
                .filter(|m| m.id != self.id && m.held.is_some())
        };
        let mut seeds = Vec::with_capacity(held);
        seeds.extend(peers().map(|m| m.s_public));
        s_pair.agree_all(&mut seeds);
        let mut pairwise = Vec::with_capacity(seeds.len());
        pairwise.extend(peers().map(|m| m.id).zip(seeds));
        masking::mask_input(&mut vector, self.id, self_seed, &pairwise);
        let client = SecAggClient {
            id: self.id,
            config: self.config,
            stage: Committed { members },
        };
        Ok((
            client,
            MaskedInput {
                id: self.id,
                vector,
            },
        ))
    }
}

impl SecAggClient<Committed> {
    /// Round 3: reveal unmasking shares per the server's request. This
    /// consumes the client, so it reveals once.
    ///
    /// # Errors
    ///
    /// [`SecAggError::ConflictingReveal`] if the request asks for both the
    /// self-mask share and the key share of one device.
    pub fn unmask(self, request: &UnmaskingRequest) -> Result<RevealedShares, SecAggError> {
        // The privacy invariant: never reveal both secrets of one device.
        if let Some(&id) = request
            .committed
            .iter()
            .find(|id| request.dropped_after_sharing.contains(id))
        {
            return Err(SecAggError::ConflictingReveal(id));
        }
        let members = &self.stage.members;
        let reveal =
            |owners: &[u32], pick: fn(&(Share, Share)) -> Share| {
                let mut revealed = Vec::with_capacity(owners.len());
                revealed.extend(owners.iter().filter_map(|&owner| {
                    held_of(members, owner).map(|shares| (owner, pick(&shares)))
                }));
                revealed
            };
        Ok(RevealedShares {
            from: self.id,
            self_mask_shares: reveal(&request.committed, |(_, seed_share)| *seed_share),
            key_shares: reveal(&request.dropped_after_sharing, |(key_share, _)| *key_share),
        })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The server side of one Secure Aggregation instance, in protocol stage
/// `S` ([`Advertising`], [`Sharing`], [`Masking`] or [`Unmasking`]).
///
/// The server is an untrusted router + accumulator: it sees only public
/// keys, ciphertexts it cannot open, masked vectors, and reconstruction
/// shares for the secrets the protocol explicitly reveals.
///
/// Each stage collects its round's messages through `&mut self`; the
/// round's closing step consumes the server and returns the round's
/// output with the next stage. So a message for a later round has no
/// call to go to:
///
/// ```compile_fail,E0599
/// use fl_secagg::protocol::{MaskedInput, SecAggConfig, SecAggServer};
/// let mut server = SecAggServer::new(SecAggConfig::new(2, 1));
/// // Still collecting advertisements: `collect_masked` is offered by
/// // `SecAggServer<Masking>` only.
/// let _ = server.collect_masked(MaskedInput { id: 0, vector: vec![0] });
/// ```
#[derive(Debug)]
pub struct SecAggServer<S> {
    config: SecAggConfig,
    /// U₁'s advertisements, by id.
    advertisements: BTreeMap<u32, KeyAdvertisement>,
    stage: S,
}

/// Server stage of round 0: collecting advertisements.
#[derive(Debug)]
pub struct Advertising;

/// Server stage of round 1: collecting and routing encrypted shares.
#[derive(Debug)]
pub struct Sharing {
    /// recipient → incoming (sender, ciphertext).
    routed: RoutedShares,
    /// U₂: devices that delivered shares, in id order.
    shared: Vec<u32>,
}

/// Server stage of round 2: accumulating masked inputs.
#[derive(Debug)]
pub struct Masking {
    shared: Vec<u32>,
    /// U₃: devices that committed, in id order, and the running masked
    /// sum.
    committed: Vec<u32>,
    masked_sum: Vec<u32>,
}

/// Server stage of round 3: collecting revealed shares, then
/// [`SecAggServer::finalize`].
#[derive(Debug)]
pub struct Unmasking {
    /// The request's two lists: U₃, and U₂ ∖ U₃.
    committed: Vec<u32>,
    dropped: Vec<u32>,
    masked_sum: Vec<u32>,
    /// The reveals collected, in arrival order.
    reveals: Vec<RevealedShares>,
}

impl SecAggServer<Advertising> {
    /// Creates a server instance.
    pub fn new(config: SecAggConfig) -> Self {
        SecAggServer {
            config,
            advertisements: BTreeMap::new(),
            stage: Advertising,
        }
    }

    /// Round 0: collect one advertisement.
    ///
    /// # Errors
    ///
    /// [`SecAggError::DuplicateMessage`].
    pub fn collect_advertisement(&mut self, adv: KeyAdvertisement) -> Result<(), SecAggError> {
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
    pub fn finish_advertising(
        self,
    ) -> Result<(SecAggServer<Sharing>, Vec<KeyAdvertisement>), SecAggError> {
        if self.advertisements.len() < self.config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: self.advertisements.len(),
                threshold: self.config.threshold,
            });
        }
        let broadcast = self.advertisements.values().copied().collect();
        let n = self.advertisements.len();
        let server = SecAggServer {
            config: self.config,
            advertisements: self.advertisements,
            stage: Sharing {
                routed: HashMap::with_capacity(n),
                shared: Vec::with_capacity(n),
            },
        };
        Ok((server, broadcast))
    }
}

impl SecAggServer<Sharing> {
    /// Round 1: collect one device's encrypted shares and route them.
    ///
    /// # Errors
    ///
    /// [`SecAggError::UnknownParticipant`] or
    /// [`SecAggError::DuplicateMessage`].
    pub fn collect_shares(&mut self, shares: EncryptedShares) -> Result<(), SecAggError> {
        if !self.advertisements.contains_key(&shares.from) {
            return Err(SecAggError::UnknownParticipant(shares.from));
        }
        if !insert_sorted(&mut self.stage.shared, shares.from) {
            return Err(SecAggError::DuplicateMessage(shares.from));
        }
        let senders = self.advertisements.len();
        for (recipient, ciphertext) in shares.payloads {
            if !self.advertisements.contains_key(&recipient) {
                return Err(SecAggError::UnknownParticipant(recipient));
            }
            self.stage
                .routed
                .entry(recipient)
                .or_insert_with(|| Vec::with_capacity(senders))
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
    pub fn finish_sharing(self) -> Result<(SecAggServer<Masking>, RoutedShares), SecAggError> {
        let SecAggServer {
            config,
            advertisements,
            stage: Sharing { mut routed, shared },
        } = self;
        if shared.len() < config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: shared.len(),
                threshold: config.threshold,
            });
        }
        // Only route shares *to* U₂ members; every routed share is *from*
        // one, since `collect_shares` admits a sender before routing.
        routed.retain(|recipient, _| shared.binary_search(recipient).is_ok());
        let committed = Vec::with_capacity(shared.len());
        let server = SecAggServer {
            config,
            advertisements,
            stage: Masking {
                shared,
                committed,
                masked_sum: vec![0; config.dim],
            },
        };
        Ok((server, routed))
    }
}

impl SecAggServer<Masking> {
    /// Round 2: accumulate one masked input into the running sum. The
    /// per-device vector is folded in and dropped (in-memory streaming, as
    /// in plain aggregation).
    ///
    /// # Errors
    ///
    /// [`SecAggError::UnknownParticipant`] for devices outside U₂,
    /// [`SecAggError::DuplicateMessage`] or
    /// [`SecAggError::DimensionMismatch`].
    pub fn collect_masked(&mut self, input: MaskedInput) -> Result<(), SecAggError> {
        let stage = &mut self.stage;
        if stage.shared.binary_search(&input.id).is_err() {
            return Err(SecAggError::UnknownParticipant(input.id));
        }
        if input.vector.len() != self.config.dim {
            return Err(SecAggError::DimensionMismatch {
                expected: self.config.dim,
                actual: input.vector.len(),
            });
        }
        if !insert_sorted(&mut stage.committed, input.id) {
            return Err(SecAggError::DuplicateMessage(input.id));
        }
        for (sum, &v) in stage.masked_sum.iter_mut().zip(&input.vector) {
            *sum = sum.wrapping_add(v);
        }
        Ok(())
    }

    /// Closes round 2, fixing U₃, and returns the unmasking request to
    /// broadcast to survivors.
    ///
    /// # Errors
    ///
    /// [`SecAggError::BelowThreshold`] if fewer than `threshold` devices
    /// committed.
    pub fn finish_commit(self) -> Result<(SecAggServer<Unmasking>, UnmaskingRequest), SecAggError> {
        let SecAggServer {
            config,
            advertisements,
            stage:
                Masking {
                    shared,
                    committed,
                    masked_sum,
                },
        } = self;
        if committed.len() < config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: committed.len(),
                threshold: config.threshold,
            });
        }
        let dropped: Vec<u32> = shared
            .into_iter()
            .filter(|u| committed.binary_search(u).is_err())
            .collect();
        let request = UnmaskingRequest {
            committed: committed.clone(),
            dropped_after_sharing: dropped.clone(),
        };
        let reveals = Vec::with_capacity(committed.len());
        let server = SecAggServer {
            config,
            advertisements,
            stage: Unmasking {
                committed,
                dropped,
                masked_sum,
                reveals,
            },
        };
        Ok((server, request))
    }
}

impl SecAggServer<Unmasking> {
    /// Round 3: collect one device's revealed shares.
    ///
    /// # Errors
    ///
    /// [`SecAggError::DuplicateMessage`] or
    /// [`SecAggError::UnknownParticipant`].
    pub fn collect_reveals(&mut self, reveals: RevealedShares) -> Result<(), SecAggError> {
        let stage = &mut self.stage;
        if stage.committed.binary_search(&reveals.from).is_err() {
            return Err(SecAggError::UnknownParticipant(reveals.from));
        }
        if stage.reveals.iter().any(|r| r.from == reveals.from) {
            return Err(SecAggError::DuplicateMessage(reveals.from));
        }
        stage.reveals.push(reveals);
        Ok(())
    }

    /// Finalizes the protocol: reconstructs self-mask seeds for committed
    /// devices and mask keys for dropped devices, removes all masks, and
    /// returns the ring sum (mod `2^32`) of the committed devices'
    /// inputs. The server is consumed either way.
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
    pub fn finalize(self) -> Result<Vec<u32>, SecAggError> {
        let SecAggServer {
            config,
            advertisements,
            stage:
                Unmasking {
                    committed,
                    dropped,
                    mut masked_sum,
                    reveals,
                },
        } = self;
        if reveals.len() < config.threshold {
            return Err(SecAggError::BelowThreshold {
                alive: reveals.len(),
                threshold: config.threshold,
            });
        }
        // An owner's shares in arrival order. Every survivor that reveals
        // all it holds gives every owner the same points, so the
        // interpolator's weights are computed once for the whole close.
        let mut interpolator = Interpolator::default();
        let mut shares = Vec::with_capacity(reveals.len());
        let mut reconstruct = |owner: u32, revealed: fn(&RevealedShares) -> &[(u32, Share)]| {
            shares.clear();
            for r in &reveals {
                shares.extend(
                    revealed(r)
                        .iter()
                        .filter(|(o, _)| *o == owner)
                        .map(|&(_, share)| share),
                );
            }
            interpolator
                .reconstruct(&shares, config.threshold)
                .map_err(|_| SecAggError::ReconstructionFailed(owner))
        };
        // Every secret is reconstructed and checked before the first mask
        // stream runs, so a failure costs no stream.
        let seeds = committed
            .iter()
            .map(|&u| reconstruct(u, |r| &r.self_mask_shares))
            .collect::<Result<Vec<u64>, _>>()?;
        let mut dropped_pairs = Vec::with_capacity(dropped.len());
        for &v in &dropped {
            let pair = KeyPair::from_secret(reconstruct(v, |r| &r.key_shares)?);
            // Integrity check: the reconstructed key must match what the
            // device advertised.
            if pair.public != advertisements[&v].s_public {
                return Err(SecAggError::ReconstructionFailed(v));
            }
            dropped_pairs.push((v, pair));
        }
        let committed_pubs: Vec<(u32, u64)> = committed
            .iter()
            .map(|&u| (u, advertisements[&u].s_public))
            .collect();
        masking::unmask(&mut masked_sum, &seeds, &dropped_pairs, &committed_pubs);
        Ok(masked_sum)
    }
}

/// Runs a full Secure Aggregation instance in-process over the given
/// inputs, device `i` committing the `i`-th, with the listed drop-out
/// stages. Returns the unmasked ring sum (mod `2^32`) of the inputs of
/// devices that committed. Owned ring vectors are masked where they lie;
/// borrowed `u64` ones are narrowed first, and each coordinate of one
/// that commits must be below `2^32` ([`RingInput`]).
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
pub fn run_instance<I: RingInput>(
    config: SecAggConfig,
    inputs: impl IntoIterator<Item = I>,
    drop_after_advertise: &[u32],
    drop_after_share: &[u32],
    seed: u64,
) -> Result<Vec<u32>, SecAggError> {
    let clients: Vec<(SecAggClient<Advertised>, I)> = (0..)
        .zip(inputs)
        .map(|(id, input)| (SecAggClient::new(id, config, seed), input))
        .collect();
    let mut server = SecAggServer::new(config);

    // Round 0: every device advertises, the ones that drop later too.
    for (c, _) in &clients {
        server.collect_advertisement(c.advertisement())?;
    }
    let (mut server, broadcast) = server.finish_advertising()?;

    // Round 1: advertise-stage drop-outs never send shares.
    let mut sharing = Vec::with_capacity(clients.len());
    for (c, input) in clients
        .into_iter()
        .filter(|(c, _)| !drop_after_advertise.contains(&c.id()))
    {
        let (c, shares) = c.share_keys(&broadcast)?;
        server.collect_shares(shares)?;
        sharing.push((c, input));
    }
    let (mut server, mut routed) = server.finish_sharing()?;

    // Round 2: share-stage drop-outs never commit.
    let mut committed = Vec::with_capacity(sharing.len());
    for (c, input) in sharing
        .into_iter()
        .filter(|(c, _)| !drop_after_share.contains(&c.id()))
    {
        let incoming = routed.remove(&c.id()).unwrap_or_default();
        let (c, masked) = c.commit(&incoming, input)?;
        server.collect_masked(masked)?;
        committed.push(c);
    }
    let (mut server, request) = server.finish_commit()?;

    // Round 3: all committed devices reveal (the protocol only needs
    // `threshold` of them; tests exercise partial reveals separately).
    for c in committed {
        server.collect_reveals(c.unmask(&request)?)?;
    }
    server.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_sum(inputs: &[Vec<u64>], include: impl Fn(u32) -> bool) -> Vec<u32> {
        let dim = inputs[0].len();
        let mut sum = vec![0u32; dim];
        for (i, x) in inputs.iter().enumerate() {
            if include(i as u32) {
                for (s, &v) in sum.iter_mut().zip(x) {
                    *s = s.wrapping_add(u32::try_from(v).unwrap());
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

    /// Rounds 0 to 2 with every one of `n` devices taking part, device
    /// `i` committing `xs[i]`.
    fn commit_all(
        config: SecAggConfig,
        xs: &[Vec<u64>],
        seed: u64,
    ) -> (
        SecAggServer<Unmasking>,
        UnmaskingRequest,
        Vec<SecAggClient<Committed>>,
    ) {
        let clients: Vec<_> = (0..xs.len() as u32)
            .map(|id| SecAggClient::new(id, config, seed))
            .collect();
        let mut server = SecAggServer::new(config);
        for c in &clients {
            server.collect_advertisement(c.advertisement()).unwrap();
        }
        let (mut server, broadcast) = server.finish_advertising().unwrap();
        let mut sharing = Vec::new();
        for c in clients {
            let (c, shares) = c.share_keys(&broadcast).unwrap();
            server.collect_shares(shares).unwrap();
            sharing.push(c);
        }
        let (mut server, routed) = server.finish_sharing().unwrap();
        let mut committed = Vec::new();
        for (c, x) in sharing.into_iter().zip(xs) {
            let incoming = &routed[&c.id()];
            let (c, masked) = c.commit(incoming, x).unwrap();
            server.collect_masked(masked).unwrap();
            committed.push(c);
        }
        let (server, request) = server.finish_commit().unwrap();
        (server, request, committed)
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
        let (_, _, mut clients) = commit_all(config, &[vec![1, 2], vec![1, 2], vec![1, 2]], 1);
        // Malicious request: device 0 in both lists.
        let bad = UnmaskingRequest {
            committed: vec![0, 1, 2],
            dropped_after_sharing: vec![0],
        };
        assert!(matches!(
            clients.remove(1).unmask(&bad),
            Err(SecAggError::ConflictingReveal(0))
        ));
    }

    #[test]
    fn only_threshold_many_reveals_needed() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(5, 4);
        let (mut server, request, clients) = commit_all(config, &xs, 3);
        // Only 3 of 5 devices survive to reveal — exactly the threshold.
        for c in clients.into_iter().take(3) {
            server.collect_reveals(c.unmask(&request).unwrap()).unwrap();
        }
        let sum = server.finalize().unwrap();
        assert_eq!(sum, plain_sum(&xs, |_| true));
    }

    #[test]
    fn server_rejects_protocol_misuse() {
        let config = SecAggConfig::new(2, 2);
        let server = SecAggServer::new(config);
        // Finish without any advertisements.
        assert!(matches!(
            server.finish_advertising(),
            Err(SecAggError::BelowThreshold { .. })
        ));
    }

    #[test]
    fn duplicate_messages_rejected() {
        let config = SecAggConfig::new(2, 2);
        let c0 = SecAggClient::new(0, config, 1);
        let c1 = SecAggClient::new(1, config, 1);
        let mut server = SecAggServer::new(config);
        let adv = c0.advertisement();
        server.collect_advertisement(adv).unwrap();
        assert!(matches!(
            server.collect_advertisement(adv),
            Err(SecAggError::DuplicateMessage(0))
        ));
        server.collect_advertisement(c1.advertisement()).unwrap();
    }

    /// DESIGN.md Sec. 9's count at the `round_secagg` shard shape: with
    /// `n` 16, `t` 11 and `s` share-stage drop-outs, `2n + m(n-1) + c(m-1)
    /// + 1 + s + sc` exponentiations, one inversion for the single reveal
    /// set. Each Lagrange basis inverted on its own would add `(c+s)t - 1`.
    #[test]
    fn a_shard_shape_instance_runs_the_counted_exponentiations() {
        let config = SecAggConfig::new(11, 3);
        let xs = inputs(16, 3);
        for (share_drops, expected) in [(&[][..], 513), (&[5][..], 514)] {
            let before = field::exponentiations();
            let sum = run_instance(config, &xs, &[], share_drops, 5).unwrap();
            assert_eq!(field::exponentiations() - before, expected);
            assert_eq!(sum, plain_sum(&xs, |i| !share_drops.contains(&i)));
        }
    }

    /// Survivors that reveal only part of what they hold give owners
    /// different point sets: the close refits its weights per set and
    /// still recovers every secret.
    #[test]
    fn partial_reveals_with_differing_point_sets_finalize_exactly() {
        let config = SecAggConfig::new(3, 4);
        let xs = inputs(6, 4);
        let (mut server, request, clients) = commit_all(config, &xs, 9);
        for (i, c) in clients.into_iter().enumerate() {
            let mut reveals = c.unmask(&request).unwrap();
            // Revealer i withholds its share of owner i: owners 0 to 3
            // each see their own first three points, 4 and 5 see 3's.
            reveals
                .self_mask_shares
                .retain(|&(owner, _)| owner as usize != i);
            server.collect_reveals(reveals).unwrap();
        }
        let before = field::exponentiations();
        let sum = server.finalize().unwrap();
        // One inversion per change of reveal set.
        assert_eq!(field::exponentiations() - before, 4);
        assert_eq!(sum, plain_sum(&xs, |_| true));
    }

    /// Inputs at the top of the ring sum with wrap-around; one at `2^32`
    /// or above is refused before any mask runs.
    #[test]
    fn works_with_values_near_field_size() {
        let config = SecAggConfig::new(2, 2);
        let top = u64::from(u32::MAX);
        let xs = vec![vec![top, top - 1], vec![5, 7], vec![top - 2, 11]];
        let sum = run_instance(config, &xs, &[], &[], 23).unwrap();
        assert_eq!(sum, plain_sum(&xs, |_| true));
        assert_eq!(sum, [1, 16]);
        for value in [top + 1, u64::MAX] {
            let xs = vec![vec![1, 2], vec![3, value], vec![5, 6]];
            assert_eq!(
                run_instance(config, &xs, &[], &[], 23),
                Err(SecAggError::OutOfRing(1))
            );
        }
    }
}
