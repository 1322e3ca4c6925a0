//! Adversarial fuzzing of the wire codec.
//!
//! Three properties, each a seeded deterministic loop:
//!
//! 1. `decode` never panics — not on random garbage, not on truncated
//!    prefixes of valid packets, not on bit-flipped valid packets. It
//!    returns `Ok` or a [`WireError`]; anything else is a bug.
//! 2. Every *strict* prefix of a valid encoding fails to decode (the
//!    format has no ambiguous framing).
//! 3. `decode ∘ encode` is the identity on valid packets, payload
//!    included, and `encode_into` appends the same bytes as `encode`.
//!
//! On top of the random loops, `adversarial_corpus_decodes_to_exact_errors`
//! pins a checked-in corpus of hostile buffers to their *exact*
//! [`WireError`] values, so an error-taxonomy regression is caught even
//! if the random walk misses the path that round.
//!
//! Iteration counts honor `HOMA_FUZZ_ITERS` (CI smoke pins 500); the
//! `#[ignore]` long-haul variant multiplies them for nightly runs.

use homa::packets::{
    BusyHeader, CutoffsUpdate, DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId,
    ResendHeader,
};
use homa_harness::{FuzzFamily, SplitMix64};
use homa_wire::{decode, encode, encode_into, encoded_len, WireError, HEADER_LEN};

/// The wire family takes its iteration budgets from the workspace fuzz
/// plumbing (`HOMA_FUZZ_ITERS`). Its failures are plain assert panics on
/// a fixed seed, and the corpus table below is where a new failure class
/// is kept, so it has nothing to replay.
const FAMILY: FuzzFamily = FuzzFamily::new("wire");

fn arbitrary_key(rng: &mut SplitMix64) -> MsgKey {
    MsgKey {
        origin: PeerId(rng.next_u64() as u32),
        seq: rng.next_u64(),
        dir: match rng.below(3) {
            0 => Dir::Request,
            1 => Dir::Response,
            _ => Dir::Oneway,
        },
    }
}

fn arbitrary_cutoffs(rng: &mut SplitMix64) -> CutoffsUpdate {
    let n = rng.below(8) as usize; // 0..=7, the protocol maximum
    CutoffsUpdate {
        version: rng.next_u64(),
        unsched_levels: rng.below(8) as u8,
        cutoffs: (0..n).map(|_| rng.next_u64()).collect(),
    }
}

/// A structurally valid packet plus (for DATA) its payload bytes.
fn arbitrary_packet(rng: &mut SplitMix64) -> (HomaPacket, Vec<u8>) {
    let key = arbitrary_key(rng);
    match rng.below(5) {
        0 => {
            // Lengths from empty to past a full packet's 1,400 bytes.
            let payload: Vec<u8> = (0..rng.below(2_000)).map(|_| rng.next_u64() as u8).collect();
            let flags = rng.next_u64();
            (
                HomaPacket::Data(DataHeader {
                    key,
                    msg_len: rng.next_u64(),
                    offset: rng.next_u64(),
                    payload: payload.len() as u32,
                    prio: rng.below(8) as u8,
                    unscheduled: flags & 1 != 0,
                    retransmit: flags & 2 != 0,
                    incast_mark: flags & 4 != 0,
                    tag: rng.next_u64(),
                }),
                payload,
            )
        }
        1 => {
            let cutoffs = if rng.below(2) == 0 { Some(arbitrary_cutoffs(rng)) } else { None };
            (
                HomaPacket::Grant(GrantHeader {
                    key,
                    offset: rng.next_u64(),
                    prio: rng.below(8) as u8,
                    cutoffs,
                }),
                Vec::new(),
            )
        }
        2 => (
            HomaPacket::Resend(ResendHeader {
                key,
                offset: rng.next_u64(),
                length: rng.next_u64(),
                prio: rng.below(8) as u8,
            }),
            Vec::new(),
        ),
        3 => (HomaPacket::Busy(BusyHeader { key }), Vec::new()),
        _ => (HomaPacket::Cutoffs(arbitrary_cutoffs(rng)), Vec::new()),
    }
}

/// An 18-byte common header with the given type and direction codes and
/// an arbitrary-but-fixed key, for corpus construction.
fn corpus_header(ty: u8, dir: u8) -> Vec<u8> {
    let mut b = vec![ty];
    b.extend_from_slice(&7u32.to_be_bytes()); // origin
    b.extend_from_slice(&42u64.to_be_bytes()); // seq
    b.push(dir);
    b.push(1); // prio
    b.push(0); // flags
    b.extend_from_slice(&[0, 0]); // reserved
    assert_eq!(b.len(), HEADER_LEN);
    b
}

/// The checked-in adversarial corpus: each entry is a hostile buffer
/// and the *exact* error the decoder must return for it. Extend this
/// table whenever a fuzz run shrinks a new failure class.
fn adversarial_corpus() -> Vec<(&'static str, Vec<u8>, WireError)> {
    let mut t: Vec<(&'static str, Vec<u8>, WireError)> = vec![
        ("empty", Vec::new(), WireError::Truncated { needed: HEADER_LEN, got: 0 }),
        ("header-short-one", vec![0u8; 17], WireError::Truncated { needed: HEADER_LEN, got: 17 }),
        // Direction is validated before the type dispatch.
        ("dir-zero", corpus_header(0x04, 0x00), WireError::BadDir(0x00)),
        ("dir-junk", corpus_header(0x01, 0x7F), WireError::BadDir(0x7F)),
        ("type-zero", corpus_header(0x00, 0x01), WireError::BadType(0x00)),
        ("type-junk", corpus_header(0xFF, 0x03), WireError::BadType(0xFF)),
    ];

    // DATA with one body byte missing (needs 28 past the header).
    let mut b = corpus_header(0x01, 0x01);
    b.extend_from_slice(&[0u8; 27]);
    t.push(("data-body-short", b, WireError::Truncated { needed: HEADER_LEN + 28, got: 45 }));

    // DATA whose payload field claims 100 bytes the buffer doesn't have.
    let mut b = corpus_header(0x01, 0x02);
    b.extend_from_slice(&10u64.to_be_bytes()); // msg_len
    b.extend_from_slice(&0u64.to_be_bytes()); // offset
    b.extend_from_slice(&100u32.to_be_bytes()); // payload length (a lie)
    b.extend_from_slice(&0u64.to_be_bytes()); // tag
    t.push(("data-lying-payload", b, WireError::BadLength { declared: 100, available: 0 }));

    // GRANT missing its cutoffs-flag byte (needs 9 past the header).
    let mut b = corpus_header(0x02, 0x02);
    b.extend_from_slice(&5u64.to_be_bytes());
    t.push(("grant-body-short", b, WireError::Truncated { needed: HEADER_LEN + 9, got: 26 }));

    // GRANT that promises cutoffs but truncates their 10-byte header.
    let mut b = corpus_header(0x02, 0x01);
    b.extend_from_slice(&5u64.to_be_bytes()); // offset
    b.push(1); // has_cutoffs
    b.extend_from_slice(&[0u8; 5]); // 5 of the 10 cutoffs-header bytes
    t.push(("grant-cutoffs-short", b, WireError::Truncated { needed: 10, got: 5 }));

    // GRANT carrying 8 cutoff boundaries (7 is the protocol maximum).
    let mut b = corpus_header(0x02, 0x01);
    b.extend_from_slice(&5u64.to_be_bytes()); // offset
    b.push(1); // has_cutoffs
    b.extend_from_slice(&9u64.to_be_bytes()); // version
    b.push(4); // unsched_levels
    b.push(8); // count — one past MAX_CUTOFFS
    b.extend_from_slice(&[0u8; 64]);
    t.push(("grant-cutoffs-overflow", b, WireError::TooManyCutoffs(8)));

    // CUTOFFS with a saturated count byte.
    let mut b = corpus_header(0x05, 0x03);
    b.extend_from_slice(&1u64.to_be_bytes()); // version
    b.push(2); // unsched_levels
    b.push(255); // count
    t.push(("cutoffs-count-255", b, WireError::TooManyCutoffs(255)));

    // CUTOFFS declaring 7 boundaries but carrying only 3.
    let mut b = corpus_header(0x05, 0x03);
    b.extend_from_slice(&1u64.to_be_bytes());
    b.push(2);
    b.push(7);
    b.extend_from_slice(&[0u8; 24]);
    t.push(("cutoffs-boundaries-short", b, WireError::Truncated { needed: 56, got: 24 }));

    // RESEND one byte short of its 16-byte body.
    let mut b = corpus_header(0x03, 0x01);
    b.extend_from_slice(&[0u8; 15]);
    t.push(("resend-body-short", b, WireError::Truncated { needed: HEADER_LEN + 16, got: 33 }));

    t
}

#[test]
fn adversarial_corpus_decodes_to_exact_errors() {
    for (name, buf, want) in adversarial_corpus() {
        match decode(&buf) {
            Err(e) => assert_eq!(e, want, "corpus entry `{name}` returned the wrong error"),
            Ok((pkt, _)) => panic!("corpus entry `{name}` decoded as {pkt:?}"),
        }
    }
}

fn check_random_buffers(seed: u64, iters: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in 0..iters {
        let len = rng.below(600) as usize;
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Must not panic; a random buffer that happens to parse must
        // re-encode to something that parses back to the same packet.
        if let Ok((pkt, off)) = decode(&buf) {
            let payload = if let HomaPacket::Data(d) = &pkt {
                &buf[off..off + d.payload as usize]
            } else {
                &[][..]
            };
            let re = encode(&pkt, payload);
            let (again, _) = decode(&re).unwrap_or_else(|e| {
                panic!("iter {i}: re-encode of randomly-parsed {pkt:?} failed to decode: {e}")
            });
            assert_eq!(again, pkt, "iter {i}: random buffer round trip diverged");
        }
    }
}

fn check_prefixes_and_identity(seed: u64, iters: u64) {
    let mut rng = SplitMix64::new(seed);
    for i in 0..iters {
        let (pkt, payload) = arbitrary_packet(&mut rng);
        let buf = encode(&pkt, &payload);
        assert_eq!(buf.len(), encoded_len(&pkt) + payload.len(), "iter {i}: encoded_len lied");

        // `encode_into` appends exactly `encode`'s bytes and leaves what
        // the buffer already held alone.
        let prefix = [0xA5; 3];
        let mut appended = prefix.to_vec();
        encode_into(&pkt, &payload, &mut appended);
        assert_eq!(appended[..3], prefix, "iter {i}: encode_into touched the prefix");
        assert_eq!(appended[3..], buf[..], "iter {i}: encode_into != encode for {pkt:?}");

        // Identity, payload included.
        let (out, off) =
            decode(&buf).unwrap_or_else(|e| panic!("iter {i}: {pkt:?} failed to decode: {e}"));
        assert_eq!(out, pkt, "iter {i}: decode(encode(pkt)) != pkt");
        if let HomaPacket::Data(d) = &out {
            assert_eq!(&buf[off..off + d.payload as usize], &payload[..], "iter {i}: payload");
        }

        // No strict prefix may parse: truncation is always detected.
        for cut in 0..buf.len() {
            if let Ok((p, _)) = decode(&buf[..cut]) {
                panic!("iter {i}: {cut}-byte prefix of {pkt:?} decoded as {p:?}");
            }
        }
    }
}

fn check_bit_flips(seed: u64, iters: u64) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..iters {
        let (pkt, payload) = arbitrary_packet(&mut rng);
        let buf = encode(&pkt, &payload);
        for bit in 0..buf.len() * 8 {
            let mut mutant = buf.to_vec();
            mutant[bit / 8] ^= 1 << (bit % 8);
            // Ok (a different valid packet) or Err are both fine; the
            // decoder just must not panic or read out of bounds.
            let _ = decode(&mutant);
        }
    }
}

#[test]
fn random_buffers_never_panic() {
    check_random_buffers(7, FAMILY.iters(2_000));
}

#[test]
fn prefixes_fail_and_encode_decode_is_identity() {
    check_prefixes_and_identity(11, FAMILY.iters(1_000));
}

#[test]
fn single_bit_flips_never_panic() {
    check_bit_flips(17, FAMILY.iters(300));
}

/// Nightly long-haul: the same three properties at ~50x the smoke
/// budget, on a disjoint seed stream.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_wire_fuzz() {
    check_random_buffers(0x9E37_79B9, FAMILY.iters(2_000) * 50);
    check_prefixes_and_identity(0xDEAD_BEEF, FAMILY.iters(1_000) * 50);
    check_bit_flips(0x00C0_FFEE, FAMILY.iters(300) * 20);
}
