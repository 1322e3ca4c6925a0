//! Encoding and decoding of Homa packets.

use crate::error::WireError;
use homa::packets::{
    BusyHeader, CutoffsUpdate, DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId,
    ResendHeader,
};

/// Packet-type tags.
const T_DATA: u8 = 0x01;
const T_GRANT: u8 = 0x02;
const T_RESEND: u8 = 0x03;
const T_BUSY: u8 = 0x04;

const D_REQUEST: u8 = 0x01;
const D_RESPONSE: u8 = 0x02;
const D_ONEWAY: u8 = 0x03;

const F_UNSCHEDULED: u8 = 0x01;
const F_RETRANSMIT: u8 = 0x02;
const F_INCAST: u8 = 0x04;

/// Fixed common-header length (see crate docs for the layout).
pub const HEADER_LEN: usize = 18;

/// Length of a DATA packet's header, payload excluded: the common header,
/// then message length (8), offset (8), payload length (4) and tag (8).
pub const DATA_HEADER_LEN: usize = HEADER_LEN + 28;

/// Maximum cutoffs a GRANT may carry (7 boundaries for 8 levels).
const MAX_CUTOFFS: usize = 7;

fn dir_code(d: Dir) -> u8 {
    match d {
        Dir::Request => D_REQUEST,
        Dir::Response => D_RESPONSE,
        Dir::Oneway => D_ONEWAY,
    }
}

fn dir_from(code: u8) -> Result<Dir, WireError> {
    match code {
        D_REQUEST => Ok(Dir::Request),
        D_RESPONSE => Ok(Dir::Response),
        D_ONEWAY => Ok(Dir::Oneway),
        other => Err(WireError::BadDir(other)),
    }
}

fn put_header(buf: &mut Vec<u8>, ty: u8, key: MsgKey, prio: u8, flags: u8) {
    buf.push(ty);
    buf.extend_from_slice(&key.origin.0.to_be_bytes());
    buf.extend_from_slice(&key.seq.to_be_bytes());
    buf.extend_from_slice(&[dir_code(key.dir), prio, flags, 0, 0]); // the last two reserved
}

fn put_cutoffs(buf: &mut Vec<u8>, c: &CutoffsUpdate) {
    buf.extend_from_slice(&c.version.to_be_bytes());
    buf.extend_from_slice(&[c.unsched_levels, c.cutoffs.len() as u8]);
    for &x in &c.cutoffs {
        buf.extend_from_slice(&x.to_be_bytes());
    }
}

/// Take `N` bytes off the front of `b`. Like indexing, this panics on a
/// slice that is too short: every caller checks the length first.
fn take<const N: usize>(b: &mut &[u8]) -> [u8; N] {
    let (head, rest) = b.split_first_chunk().expect("length checked by the caller");
    *b = rest;
    *head
}

fn get_u8(b: &mut &[u8]) -> u8 {
    take::<1>(b)[0]
}

fn get_u32(b: &mut &[u8]) -> u32 {
    u32::from_be_bytes(take(b))
}

fn get_u64(b: &mut &[u8]) -> u64 {
    u64::from_be_bytes(take(b))
}

fn get_cutoffs(buf: &mut &[u8]) -> Result<CutoffsUpdate, WireError> {
    if buf.len() < 10 {
        return Err(WireError::Truncated { needed: 10, got: buf.len() });
    }
    let version = get_u64(buf);
    let unsched_levels = get_u8(buf);
    let n = get_u8(buf) as usize;
    if n > MAX_CUTOFFS {
        return Err(WireError::TooManyCutoffs(n));
    }
    if buf.len() < n * 8 {
        return Err(WireError::Truncated { needed: n * 8, got: buf.len() });
    }
    let cutoffs = (0..n).map(|_| get_u64(buf)).collect();
    Ok(CutoffsUpdate { version, unsched_levels, cutoffs })
}

/// Size of the encoding of `pkt` (excluding DATA payload bytes).
pub fn encoded_len(pkt: &HomaPacket) -> usize {
    HEADER_LEN
        + match pkt {
            HomaPacket::Data(_) => DATA_HEADER_LEN - HEADER_LEN,
            HomaPacket::Grant(g) => {
                9 + g.cutoffs.as_ref().map(|c| 10 + 8 * c.cutoffs.len()).unwrap_or(0)
            }
            HomaPacket::Resend(_) => 16,
            HomaPacket::Busy(_) => 0,
        }
}

/// Encode `pkt` (with `payload` appended for DATA packets) into a fresh
/// buffer.
pub fn encode(pkt: &HomaPacket, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(pkt) + payload.len());
    encode_into(pkt, payload, &mut buf);
    buf
}

/// Append the encoding of `pkt` (with `payload` for DATA packets) to
/// `buf`, after whatever it already holds: a sender encodes a batch of
/// datagrams back to back into one reused buffer.
pub fn encode_into(pkt: &HomaPacket, payload: &[u8], buf: &mut Vec<u8>) {
    match pkt {
        HomaPacket::Data(h) => {
            let mut flags = 0;
            if h.unscheduled {
                flags |= F_UNSCHEDULED;
            }
            if h.retransmit {
                flags |= F_RETRANSMIT;
            }
            if h.incast_mark {
                flags |= F_INCAST;
            }
            put_header(buf, T_DATA, h.key, h.prio, flags);
            buf.extend_from_slice(&h.msg_len.to_be_bytes());
            buf.extend_from_slice(&h.offset.to_be_bytes());
            buf.extend_from_slice(&h.payload.to_be_bytes());
            buf.extend_from_slice(&h.tag.to_be_bytes());
            debug_assert_eq!(payload.len(), h.payload as usize, "payload length mismatch");
            buf.extend_from_slice(payload);
        }
        HomaPacket::Grant(g) => {
            put_header(buf, T_GRANT, g.key, g.prio, 0);
            buf.extend_from_slice(&g.offset.to_be_bytes());
            match &g.cutoffs {
                Some(c) => {
                    buf.push(1);
                    put_cutoffs(buf, c);
                }
                None => buf.push(0),
            }
        }
        HomaPacket::Resend(r) => {
            put_header(buf, T_RESEND, r.key, r.prio, 0);
            buf.extend_from_slice(&r.offset.to_be_bytes());
            buf.extend_from_slice(&r.length.to_be_bytes());
        }
        HomaPacket::Busy(b) => {
            put_header(buf, T_BUSY, b.key, 0, 0);
        }
    }
}

/// Decode a packet. For DATA, the returned `usize` is the offset of the
/// payload bytes within `buf` (the header's `payload` field tells their
/// length, validated against the buffer).
pub fn decode(buf: &[u8]) -> Result<(HomaPacket, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, got: buf.len() });
    }
    let mut b = buf;
    let ty = get_u8(&mut b);
    let origin = PeerId(get_u32(&mut b));
    let seq = get_u64(&mut b);
    let dir = dir_from(get_u8(&mut b))?;
    let [prio, flags, _, _] = take(&mut b); // the last two reserved
    let key = MsgKey { origin, seq, dir };

    match ty {
        T_DATA => {
            if buf.len() < DATA_HEADER_LEN {
                return Err(WireError::Truncated { needed: DATA_HEADER_LEN, got: buf.len() });
            }
            let msg_len = get_u64(&mut b);
            let offset = get_u64(&mut b);
            let payload = get_u32(&mut b);
            let tag = get_u64(&mut b);
            let payload_off = DATA_HEADER_LEN;
            if buf.len() < payload_off + payload as usize {
                return Err(WireError::BadLength {
                    declared: payload as usize,
                    available: buf.len() - payload_off,
                });
            }
            Ok((
                HomaPacket::Data(DataHeader {
                    key,
                    msg_len,
                    offset,
                    payload,
                    prio,
                    unscheduled: flags & F_UNSCHEDULED != 0,
                    retransmit: flags & F_RETRANSMIT != 0,
                    incast_mark: flags & F_INCAST != 0,
                    tag,
                }),
                payload_off,
            ))
        }
        T_GRANT => {
            if b.len() < 9 {
                return Err(WireError::Truncated { needed: HEADER_LEN + 9, got: buf.len() });
            }
            let offset = get_u64(&mut b);
            let has_cutoffs = get_u8(&mut b) != 0;
            let cutoffs = if has_cutoffs { Some(get_cutoffs(&mut b)?) } else { None };
            Ok((HomaPacket::Grant(GrantHeader { key, offset, prio, cutoffs }), buf.len()))
        }
        T_RESEND => {
            if b.len() < 16 {
                return Err(WireError::Truncated { needed: HEADER_LEN + 16, got: buf.len() });
            }
            let offset = get_u64(&mut b);
            let length = get_u64(&mut b);
            Ok((HomaPacket::Resend(ResendHeader { key, offset, length, prio }), buf.len()))
        }
        T_BUSY => Ok((HomaPacket::Busy(BusyHeader { key }), buf.len())),
        other => Err(WireError::BadType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsgKey {
        MsgKey { origin: PeerId(7), seq: 0xDEAD_BEEF_1234, dir: Dir::Request }
    }

    #[test]
    fn data_round_trip_with_payload() {
        let hdr = DataHeader {
            key: key(),
            msg_len: 100_000,
            offset: 2_800,
            payload: 5,
            prio: 6,
            unscheduled: true,
            retransmit: false,
            incast_mark: true,
            tag: 42,
        };
        let pkt = HomaPacket::Data(hdr.clone());
        let buf = encode(&pkt, b"hello");
        let (out, off) = decode(&buf).expect("decodes");
        assert_eq!(out, pkt);
        assert_eq!((off, DATA_HEADER_LEN), (46, encoded_len(&pkt)));
        assert_eq!(&buf[off..off + 5], b"hello");
    }

    #[test]
    fn grant_round_trip_with_cutoffs() {
        let pkt = HomaPacket::Grant(GrantHeader {
            key: key(),
            offset: 123_456,
            prio: 2,
            cutoffs: Some(CutoffsUpdate {
                version: 9,
                unsched_levels: 4,
                cutoffs: vec![280, 1_000, 4_000],
            }),
        });
        let buf = encode(&pkt, &[]);
        let (out, _) = decode(&buf).expect("decodes");
        assert_eq!(out, pkt);
    }

    #[test]
    fn grant_round_trip_without_cutoffs() {
        let pkt = HomaPacket::Grant(GrantHeader { key: key(), offset: 1, prio: 0, cutoffs: None });
        let (out, _) = decode(&encode(&pkt, &[])).expect("decodes");
        assert_eq!(out, pkt);
    }

    #[test]
    fn resend_busy_round_trip() {
        for pkt in [
            HomaPacket::Resend(ResendHeader { key: key(), offset: 10, length: 999, prio: 7 }),
            HomaPacket::Busy(BusyHeader { key: key() }),
        ] {
            let (out, _) = decode(&encode(&pkt, &[])).expect("decodes");
            assert_eq!(out, pkt);
        }
    }

    /// Bytes from a hex string, spaces ignored.
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// The bytes of one valid encoding of each packet kind, written out from
    /// the layout in the crate docs: a round trip cannot tell an encoder and
    /// decoder that agree with each other from ones that agree with the wire.
    #[test]
    fn known_answer_vectors() {
        let key = |dir| MsgKey { origin: PeerId(0x0102_0304), seq: 0x1112_1314_1516_1718, dir };
        let cutoffs = CutoffsUpdate {
            version: 0x6162_6364_6566_6768,
            unsched_levels: 4,
            cutoffs: vec![0x7172_7374_7576_7778, 0x8182_8384_8586_8788],
        };
        // Each string: type, origin, seq, dir, prio, flags, reserved, then the
        // fields of its type.
        let vectors = [
            (
                HomaPacket::Data(DataHeader {
                    key: key(Dir::Request),
                    msg_len: 0x2122_2324_2526_2728,
                    offset: 0x3132_3334_3536_3738,
                    payload: 5,
                    prio: 6,
                    unscheduled: true,
                    retransmit: true,
                    incast_mark: true,
                    tag: 0x4142_4344_4546_4748,
                }),
                &b"hello"[..],
                "01 01020304 1112131415161718 01 06 07 0000 \
                 2122232425262728 3132333435363738 00000005 4142434445464748 \
                 68656c6c6f",
            ),
            (
                HomaPacket::Grant(GrantHeader {
                    key: key(Dir::Response),
                    offset: 0x5152_5354_5556_5758,
                    prio: 2,
                    cutoffs: Some(cutoffs),
                }),
                &[][..],
                "02 01020304 1112131415161718 02 02 00 0000 5152535455565758 01 \
                 6162636465666768 04 02 7172737475767778 8182838485868788",
            ),
            (
                HomaPacket::Grant(GrantHeader {
                    key: key(Dir::Oneway),
                    offset: 0x5152_5354_5556_5758,
                    prio: 0,
                    cutoffs: None,
                }),
                &[][..],
                "02 01020304 1112131415161718 03 00 00 0000 5152535455565758 00",
            ),
            (
                HomaPacket::Resend(ResendHeader {
                    key: key(Dir::Request),
                    offset: 0x3132_3334_3536_3738,
                    length: 0x0000_0000_0001_86a0,
                    prio: 7,
                }),
                &[][..],
                "03 01020304 1112131415161718 01 07 00 0000 3132333435363738 00000000000186a0",
            ),
            (
                HomaPacket::Busy(BusyHeader { key: key(Dir::Response) }),
                &[][..],
                "04 01020304 1112131415161718 02 00 00 0000",
            ),
        ];
        for (pkt, payload, wire) in vectors {
            let wire = hex(wire);
            assert_eq!(encode(&pkt, payload)[..], wire[..], "encoding of {pkt:?}");
            let (out, off) = decode(&wire).expect("decodes");
            assert_eq!(out, pkt);
            assert_eq!(&wire[off..], payload, "payload offset of {pkt:?}");
        }
    }

    #[test]
    fn truncated_buffers_rejected() {
        let pkt = HomaPacket::Busy(BusyHeader { key: key() });
        let buf = encode(&pkt, &[]);
        for cut in 0..buf.len() {
            let r = decode(&buf[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn data_with_lying_payload_length_rejected() {
        let hdr = DataHeader {
            key: key(),
            msg_len: 10,
            offset: 0,
            payload: 100, // claims 100 bytes but carries none
            prio: 0,
            unscheduled: false,
            retransmit: false,
            incast_mark: false,
            tag: 0,
        };
        // Build manually to bypass the debug assertion.
        let mut buf = encode(&HomaPacket::Data(DataHeader { payload: 0, ..hdr.clone() }), &[]);
        // Patch the payload-length field (at HEADER_LEN + 16).
        let at = HEADER_LEN + 16;
        buf[at..at + 4].copy_from_slice(&100u32.to_be_bytes());
        assert!(matches!(decode(&buf), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn unknown_type_rejected() {
        let pkt = HomaPacket::Busy(BusyHeader { key: key() });
        let mut buf = encode(&pkt, &[]);
        // 0x05 is no type: cutoffs are configured at each end, never sent alone.
        for ty in [0x05, 0x7F] {
            buf[0] = ty;
            assert_eq!(decode(&buf), Err(WireError::BadType(ty)));
        }
    }

    #[test]
    fn encoded_len_matches() {
        for (pkt, payload) in [
            (
                HomaPacket::Data(DataHeader {
                    key: key(),
                    msg_len: 10,
                    offset: 0,
                    payload: 3,
                    prio: 0,
                    unscheduled: false,
                    retransmit: false,
                    incast_mark: false,
                    tag: 0,
                }),
                &b"abc"[..],
            ),
            (HomaPacket::Busy(BusyHeader { key: key() }), &b""[..]),
            (
                HomaPacket::Grant(GrantHeader {
                    key: key(),
                    offset: 7,
                    prio: 1,
                    cutoffs: Some(CutoffsUpdate {
                        version: 1,
                        unsched_levels: 2,
                        cutoffs: vec![5],
                    }),
                }),
                &b""[..],
            ),
        ] {
            let buf = encode(&pkt, payload);
            assert_eq!(buf.len(), encoded_len(&pkt) + payload.len());
        }
    }
}
