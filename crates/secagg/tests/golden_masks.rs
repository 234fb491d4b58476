//! Golden values for the mask PRG, the masked vectors and the share
//! keystream.
//!
//! Every other SecAgg oracle in the workspace checks the *unmasked sum*,
//! which is the same for any PRG: the pairwise masks cancel and the self
//! masks are removed whatever their elements are. These pins are what
//! makes "masks are bit-identical per seed" (ROADMAP) a tested statement,
//! so a change to how masks are expanded or applied that moves one mask
//! element fails here. The test reaches the PRG only through calls whose
//! signatures are part of the protocol surface (`remove_self_mask`,
//! `SecAggClient::commit`, `keystream`). The round-1 ciphertexts are
//! pinned too, so a change to how a client derives its share-encryption
//! agreements that moves one ciphertext byte fails here.

use fl_secagg::protocol::{MaskedInput, SecAggClient, SecAggConfig, SecAggServer};
use fl_secagg::{keys, masking};

/// FNV-1a over the words of `v`, each widened to 64 bits.
fn fold<T: Copy + Into<u64>>(v: &[T]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| {
        (h ^ x.into()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `PRG(seed)`, read back as the negation (in `Z_{2^32}`) of what
/// removing it as a self mask leaves in an all-zero aggregate.
fn prg(seed: u64, dim: usize) -> Vec<u32> {
    let mut v = vec![0u32; dim];
    masking::remove_self_mask(&mut v, seed);
    v.into_iter().map(u32::wrapping_neg).collect()
}

#[test]
fn prg_42_elements_are_pinned() {
    let mask = prg(42, 4113);
    assert_eq!(mask[..8], PRG_42_HEAD);
    assert_eq!(mask[4112], PRG_42_LAST);
}

const PRG_42_HEAD: [u32; 8] = [
    1_148_610_719,
    3_497_413_967,
    1_466_906_513,
    1_369_325_940,
    203_746_700,
    4_225_793_275,
    215_496_120,
    3_011_354_464,
];
const PRG_42_LAST: u32 = 676_321_594;

/// The `round_secagg` shard shape: 16 devices, 4 112 coordinates plus the
/// weight, one device gone after sharing keys.
#[test]
fn masked_vectors_of_a_seeded_instance_are_pinned() {
    const N: u32 = 16;
    const DIM: usize = 4113;
    const DROPPED: u32 = 5;
    let config = SecAggConfig::new(11, DIM);
    let inputs: Vec<Vec<u64>> = (0..N as usize)
        .map(|i| (0..DIM).map(|d| (i * 1000 + d) as u64).collect())
        .collect();
    let clients: Vec<_> = (0..N).map(|id| SecAggClient::new(id, config, 20)).collect();
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

    // What the server accumulates in round 2, summed here as it does.
    let mut masked_sum = vec![0u32; DIM];
    let mut folds = Vec::new();
    let mut committed = Vec::new();
    for (i, c) in sharing.into_iter().enumerate() {
        if c.id() == DROPPED {
            continue;
        }
        let incoming = &routed[&c.id()];
        let (c, MaskedInput { id, vector }) = c.commit(incoming, &inputs[i]).unwrap();
        for (s, &v) in masked_sum.iter_mut().zip(&vector) {
            *s = s.wrapping_add(v);
        }
        folds.push((id, fold(&vector)));
        server.collect_masked(MaskedInput { id, vector }).unwrap();
        committed.push(c);
    }
    // Device 0 adds every pairwise mask, device 15 subtracts every one.
    assert_eq!(folds[0], (0, CLIENT_0_FOLD));
    assert_eq!(folds[14], (15, CLIENT_15_FOLD));
    assert_eq!(fold(&masked_sum), MASKED_SUM_FOLD);

    let (mut server, request) = server.finish_commit().unwrap();
    assert_eq!(request.dropped_after_sharing, vec![DROPPED]);
    for c in committed {
        server.collect_reveals(c.unmask(&request).unwrap()).unwrap();
    }
    let sum = server.finalize().unwrap();
    let expected: Vec<u32> = (0..DIM)
        .map(|d| {
            (0..N as usize)
                .filter(|&i| i != DROPPED as usize)
                .map(|i| (i * 1000 + d) as u32)
                .sum()
        })
        .collect();
    assert_eq!(sum, expected);
}

const CLIENT_0_FOLD: u64 = 1_170_766_236_613_529_089;
const CLIENT_15_FOLD: u64 = 6_604_225_390_145_348_636;
const MASKED_SUM_FOLD: u64 = 9_187_450_023_793_532_152;

/// Every round-1 ciphertext of the same instance, folded as
/// `(sender << 32 | recipient, key-share word, seed-share word)` per
/// payload: the bytes the share-encryption agreement produces.
#[test]
fn share_ciphertexts_of_a_seeded_instance_are_pinned() {
    let config = SecAggConfig::new(11, 4113);
    let clients: Vec<_> = (0..16)
        .map(|id| SecAggClient::new(id, config, 20))
        .collect();
    let broadcast: Vec<_> = clients.iter().map(|c| c.advertisement()).collect();
    let mut words = Vec::new();
    for c in clients {
        let (_, shares) = c.share_keys(&broadcast).unwrap();
        for (recipient, ciphertext) in shares.payloads {
            words.push(u64::from(shares.from) << 32 | u64::from(recipient));
            let (chunks, rest) = ciphertext.as_chunks::<8>();
            assert!(rest.is_empty());
            words.extend(chunks.iter().map(|w| u64::from_le_bytes(*w)));
        }
    }
    assert_eq!(words.len(), 16 * 15 * 3);
    assert_eq!(fold(&words), SHARE_CIPHERTEXTS_FOLD);
}

const SHARE_CIPHERTEXTS_FOLD: u64 = 12_631_036_098_015_448_367;

#[test]
fn keystream_77_is_pinned() {
    assert_eq!(keys::keystream(77, 16), KEYSTREAM_77);
}

const KEYSTREAM_77: [u8; 16] = [
    190, 82, 77, 80, 95, 154, 172, 211, 201, 112, 226, 233, 157, 143, 75, 114,
];
