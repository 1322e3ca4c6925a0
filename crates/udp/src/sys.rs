//! The crate's one foreign call: `setsockopt(UDP_SEGMENT)`, which `std`
//! has no method for. With it set, the kernel cuts one `send_to` into
//! datagrams of the given size (UDP generic segmentation offload, Linux
//! 4.18 and later), so a window of DATA costs one system call.

#![allow(unsafe_code)]

use std::io;
use std::net::UdpSocket;

/// Have the kernel cut every send on `socket` longer than `size` bytes into
/// datagrams of `size` bytes, the last one shorter; 0 turns that off. An
/// error means the kernel cannot (not Linux, or older than 4.18) and sends
/// stay one datagram each.
#[cfg(target_os = "linux")]
pub(crate) fn set_udp_segment(socket: &UdpSocket, size: u16) -> io::Result<()> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    // From <netinet/udp.h>: the option and its level (IPPROTO_UDP).
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    let value = c_int::from(size);
    // SAFETY: `setsockopt` is the C library's, which `std` already links,
    // declared with its Linux signature (`socklen_t` is `u32`). The
    // descriptor is open for as long as `socket` is borrowed. The kernel
    // reads `len` bytes through `value`, and `len` is the size of the
    // `c_int` it points to, which lives until the call returns.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_UDP,
            UDP_SEGMENT,
            (&value as *const c_int).cast(),
            size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Elsewhere there is no segmentation offload to ask for.
#[cfg(not(target_os = "linux"))]
pub(crate) fn set_udp_segment(_socket: &UdpSocket, _size: u16) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

// From Linux's <errno.h>: what a send refused for its segmentation returns.
pub(crate) const EIO: i32 = 5;
pub(crate) const EINVAL: i32 = 22;
pub(crate) const EMSGSIZE: i32 = 90;

/// Whether a send made while `UDP_SEGMENT` was set failed because of it. The
/// kernel checks every such send, a datagram shorter than a segment
/// included: EIO when the route is IPsec or, before Linux 6.11, its device
/// cannot checksum a segment; EINVAL or EMSGSIZE when the path MTU is below
/// a segment. Any other error (an unreachable peer, a firewall's EPERM)
/// says nothing about segmentation.
pub(crate) fn refuses_segmentation(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(EIO | EINVAL | EMSGSIZE))
}
