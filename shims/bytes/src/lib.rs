//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships minimal local implementations of the third-party APIs it uses.
//! This crate provides the subset of `bytes` consumed by `homa-wire`:
//! [`BytesMut`] as a growable byte buffer, [`BufMut`] for big-endian
//! writes (onto a `BytesMut` or straight onto a `Vec<u8>`), and [`Buf`]
//! for big-endian reads from `&[u8]`.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// A growable, uniquely-owned byte buffer (backed by a plain `Vec<u8>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    /// New empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.inner
    }
}

/// Big-endian append operations.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append a byte slice.
    fn put_slice(&mut self, s: &[u8]);
}

/// Appends to the end of the vector, as the real `bytes` crate's impl does.
impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.inner.put_u8(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.inner.put_u16(v);
    }
    fn put_u32(&mut self, v: u32) {
        self.inner.put_u32(v);
    }
    fn put_u64(&mut self, v: u64) {
        self.inner.put_u64(v);
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.inner.put_slice(s);
    }
}

/// Big-endian cursor-style reads. Like the real `bytes` crate, reads
/// past the end of the buffer panic; callers check [`Buf::remaining`].
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Read one byte.
    fn get_u8(&mut self) -> u8;
    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16;
    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }
    fn get_u16(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        *self = rest;
        u16::from_be_bytes(head.try_into().expect("2 bytes"))
    }
    fn get_u32(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_be_bytes(head.try_into().expect("4 bytes"))
    }
    fn get_u64(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_be_bytes(head.try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(1);
        b.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        b.put_u64(0x0809_0a0b_0c0d_0e0f);
        b.put_slice(&[0xAA, 0xBB]);
        assert_eq!(b.len(), 17);
        let mut r: &[u8] = &b;
        assert_eq!(r.remaining(), 17);
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.get_u16(), 0x0203);
        assert_eq!(r.get_u32(), 0x0405_0607);
        assert_eq!(r.get_u64(), 0x0809_0a0b_0c0d_0e0f);
        assert_eq!(r, &[0xAA, 0xBB]);
    }

    #[test]
    fn vec_appends_the_same_bytes_after_what_it_holds() {
        let mut b = BytesMut::new();
        let mut v = vec![0xEE];
        b.put_u8(1);
        v.put_u8(1);
        b.put_u16(0x0203);
        v.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        v.put_u32(0x0405_0607);
        b.put_u64(0x0809_0a0b_0c0d_0e0f);
        v.put_u64(0x0809_0a0b_0c0d_0e0f);
        b.put_slice(&[0xAA, 0xBB]);
        v.put_slice(&[0xAA, 0xBB]);
        assert_eq!(v[0], 0xEE);
        assert_eq!(&v[1..], &b[..]);
    }
}
