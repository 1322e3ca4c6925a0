//! Encoding and decoding of Homa packets.

use crate::error::WireError;
use bytes::{Buf, BufMut, BytesMut};
use homa::packets::{
    BusyHeader, CutoffsUpdate, DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId,
    ResendHeader,
};

/// Packet-type tags.
const T_DATA: u8 = 0x01;
const T_GRANT: u8 = 0x02;
const T_RESEND: u8 = 0x03;
const T_BUSY: u8 = 0x04;
const T_CUTOFFS: u8 = 0x05;

const D_REQUEST: u8 = 0x01;
const D_RESPONSE: u8 = 0x02;
const D_ONEWAY: u8 = 0x03;

const F_UNSCHEDULED: u8 = 0x01;
const F_RETRANSMIT: u8 = 0x02;
const F_INCAST: u8 = 0x04;

/// Fixed common-header length (see crate docs for the layout).
pub const HEADER_LEN: usize = 18;

/// Maximum cutoffs a CUTOFFS/GRANT may carry (7 boundaries for 8 levels).
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

fn put_header<B: BufMut>(buf: &mut B, ty: u8, key: Option<MsgKey>, prio: u8, flags: u8) {
    buf.put_u8(ty);
    let key = key.unwrap_or(MsgKey { origin: PeerId(0), seq: 0, dir: Dir::Oneway });
    buf.put_u32(key.origin.0);
    buf.put_u64(key.seq);
    buf.put_u8(dir_code(key.dir));
    buf.put_u8(prio);
    buf.put_u8(flags);
    buf.put_u16(0); // reserved
}

fn put_cutoffs<B: BufMut>(buf: &mut B, c: &CutoffsUpdate) {
    buf.put_u64(c.version);
    buf.put_u8(c.unsched_levels);
    buf.put_u8(c.cutoffs.len() as u8);
    for &x in &c.cutoffs {
        buf.put_u64(x);
    }
}

fn get_cutoffs(buf: &mut &[u8]) -> Result<CutoffsUpdate, WireError> {
    if buf.remaining() < 10 {
        return Err(WireError::Truncated { needed: 10, got: buf.remaining() });
    }
    let version = buf.get_u64();
    let unsched_levels = buf.get_u8();
    let n = buf.get_u8() as usize;
    if n > MAX_CUTOFFS {
        return Err(WireError::TooManyCutoffs(n));
    }
    if buf.remaining() < n * 8 {
        return Err(WireError::Truncated { needed: n * 8, got: buf.remaining() });
    }
    let cutoffs = (0..n).map(|_| buf.get_u64()).collect();
    Ok(CutoffsUpdate { version, unsched_levels, cutoffs })
}

/// Size of the encoding of `pkt` (excluding DATA payload bytes).
pub fn encoded_len(pkt: &HomaPacket) -> usize {
    HEADER_LEN
        + match pkt {
            HomaPacket::Data(_) => 28,
            HomaPacket::Grant(g) => {
                9 + g.cutoffs.as_ref().map(|c| 10 + 8 * c.cutoffs.len()).unwrap_or(0)
            }
            HomaPacket::Resend(_) => 16,
            HomaPacket::Busy(_) => 0,
            HomaPacket::Cutoffs(c) => 10 + 8 * c.cutoffs.len(),
        }
}

/// Encode `pkt` (with `payload` appended for DATA packets) into a fresh
/// buffer.
pub fn encode(pkt: &HomaPacket, payload: &[u8]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(encoded_len(pkt) + payload.len());
    encode_into(pkt, payload, &mut buf);
    buf
}

/// Append the encoding of `pkt` (with `payload` for DATA packets) to
/// `buf`, after whatever it already holds: a sender encodes a batch of
/// datagrams back to back into one reused buffer.
pub fn encode_into<B: BufMut>(pkt: &HomaPacket, payload: &[u8], buf: &mut B) {
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
            put_header(buf, T_DATA, Some(h.key), h.prio, flags);
            buf.put_u64(h.msg_len);
            buf.put_u64(h.offset);
            buf.put_u32(h.payload);
            buf.put_u64(h.tag);
            debug_assert_eq!(payload.len(), h.payload as usize, "payload length mismatch");
            buf.put_slice(payload);
        }
        HomaPacket::Grant(g) => {
            put_header(buf, T_GRANT, Some(g.key), g.prio, 0);
            buf.put_u64(g.offset);
            match &g.cutoffs {
                Some(c) => {
                    buf.put_u8(1);
                    put_cutoffs(buf, c);
                }
                None => buf.put_u8(0),
            }
        }
        HomaPacket::Resend(r) => {
            put_header(buf, T_RESEND, Some(r.key), r.prio, 0);
            buf.put_u64(r.offset);
            buf.put_u64(r.length);
        }
        HomaPacket::Busy(b) => {
            put_header(buf, T_BUSY, Some(b.key), 0, 0);
        }
        HomaPacket::Cutoffs(c) => {
            put_header(buf, T_CUTOFFS, None, 0, 0);
            put_cutoffs(buf, c);
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
    let ty = b.get_u8();
    let origin = PeerId(b.get_u32());
    let seq = b.get_u64();
    let dir = dir_from(b.get_u8())?;
    let prio = b.get_u8();
    let flags = b.get_u8();
    let _rsvd = b.get_u16();
    let key = MsgKey { origin, seq, dir };

    match ty {
        T_DATA => {
            if b.remaining() < 28 {
                return Err(WireError::Truncated { needed: HEADER_LEN + 28, got: buf.len() });
            }
            let msg_len = b.get_u64();
            let offset = b.get_u64();
            let payload = b.get_u32();
            let tag = b.get_u64();
            let payload_off = HEADER_LEN + 28;
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
            if b.remaining() < 9 {
                return Err(WireError::Truncated { needed: HEADER_LEN + 9, got: buf.len() });
            }
            let offset = b.get_u64();
            let has_cutoffs = b.get_u8() != 0;
            let cutoffs = if has_cutoffs { Some(get_cutoffs(&mut b)?) } else { None };
            Ok((HomaPacket::Grant(GrantHeader { key, offset, prio, cutoffs }), buf.len()))
        }
        T_RESEND => {
            if b.remaining() < 16 {
                return Err(WireError::Truncated { needed: HEADER_LEN + 16, got: buf.len() });
            }
            let offset = b.get_u64();
            let length = b.get_u64();
            Ok((HomaPacket::Resend(ResendHeader { key, offset, length, prio }), buf.len()))
        }
        T_BUSY => Ok((HomaPacket::Busy(BusyHeader { key }), buf.len())),
        T_CUTOFFS => {
            let c = get_cutoffs(&mut b)?;
            Ok((HomaPacket::Cutoffs(c), buf.len()))
        }
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
    fn resend_busy_cutoffs_round_trip() {
        for pkt in [
            HomaPacket::Resend(ResendHeader { key: key(), offset: 10, length: 999, prio: 7 }),
            HomaPacket::Busy(BusyHeader { key: key() }),
            HomaPacket::Cutoffs(CutoffsUpdate {
                version: 3,
                unsched_levels: 7,
                cutoffs: vec![1, 2, 3, 4, 5, 6],
            }),
        ] {
            let (out, _) = decode(&encode(&pkt, &[])).expect("decodes");
            assert_eq!(out, pkt);
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
        buf[0] = 0x7F;
        assert_eq!(decode(&buf), Err(WireError::BadType(0x7F)));
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
                HomaPacket::Cutoffs(CutoffsUpdate {
                    version: 1,
                    unsched_levels: 2,
                    cutoffs: vec![5],
                }),
                &b""[..],
            ),
        ] {
            let buf = encode(&pkt, payload);
            assert_eq!(buf.len(), encoded_len(&pkt) + payload.len());
        }
    }
}
