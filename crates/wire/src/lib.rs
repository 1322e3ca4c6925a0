//! # homa-wire — binary wire formats for the Homa transport
//!
//! A compact binary encoding of the protocol packets defined in
//! [`homa::packets`], used by the real-network UDP transport
//! (`homa-udp`). The format is deliberately simple and explicit,
//! smoltcp-style: fixed-layout headers with explicit byte order
//! (big-endian), no implicit padding, and validating parsers that reject
//! truncated or malformed input instead of panicking.
//!
//! ## Layout
//!
//! Every packet begins with a 1-byte type tag and the 17-byte message key
//! (origin peer: 4, sequence: 8, direction: 1, priority: 1, flags: 1,
//! reserved: 2). Type-specific fields follow; DATA payload bytes trail
//! the header.
//!
//! ```text
//!  0      1        5            13    14     15      16..18
//! +------+--------+------------+-----+------+-------+------+
//! | type | origin | seq (u64)  | dir | prio | flags | rsvd |
//! +------+--------+------------+-----+------+-------+------+
//! | type-specific fields ...                               |
//! +--------------------------------------------------------+
//! ```
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`codec`] | §4's packet formats, reduced to an explicit byte layout for UDP transport |
//! | [`error`] | parse-failure taxonomy (no paper analogue; the paper's DPDK driver trusts its NIC) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod error;

pub use codec::{decode, encode, encode_into, encoded_len, DATA_HEADER_LEN, HEADER_LEN};
pub use error::WireError;
