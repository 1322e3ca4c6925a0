//! The crate's foreign calls: the socket options and the read `std` has no
//! method for. With `UDP_SEGMENT` set, the kernel cuts one `send_to` into
//! datagrams of the given size (UDP generic segmentation offload, Linux
//! 4.18 and later), so a window of DATA costs one system call to send. With
//! `UDP_GRO` set on the receiver, the kernel hands such a send over as it
//! came, one read of up to 45 datagrams (Linux 5.0 and later), and [`recv`]
//! reads it with the segment size the kernel reports in a control message.
//! Only this module knows the platform: elsewhere the options are
//! `Unsupported` and [`recv`] is `std`'s `recv_from`.

#![allow(unsafe_code)]

use std::io;
use std::net::SocketAddr;
#[cfg(not(target_os = "linux"))]
use std::net::UdpSocket;

#[cfg(target_os = "linux")]
pub(crate) use linux::{recv, set_udp_gro, set_udp_segment};

/// What one [`recv`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Read {
    /// Bytes read into the buffer.
    pub(crate) len: usize,
    /// The sender: every datagram of a read has the same, as the kernel
    /// coalesces one flow only.
    pub(crate) from: SocketAddr,
    /// The size the kernel coalesced the read's datagrams at: each is this
    /// long but the last, which is 1 to `segment` bytes. 0 when the read is
    /// one datagram.
    pub(crate) segment: usize,
    /// The kernel had more than the buffer held: the bytes read are a prefix.
    pub(crate) truncated: bool,
}

#[cfg(target_os = "linux")]
mod linux {
    use super::Read;
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};
    use std::os::fd::AsRawFd;

    // From <netinet/udp.h>: the options and their level (IPPROTO_UDP).
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;
    const UDP_GRO: c_int = 104;
    // From <sys/socket.h>: `recvmsg` flags and the address families.
    const MSG_TRUNC: c_int = 0x20;
    const MSG_DONTWAIT: c_int = 0x40;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    /// `struct iovec`: one buffer.
    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    /// `struct msghdr`, what `recvmsg` reads and fills in.
    #[repr(C)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    /// `struct cmsghdr`, the header of each control message; the message's
    /// data follows it, and the next header starts `len` bytes after this
    /// one, rounded up to a multiple of a `usize`.
    #[repr(C)]
    struct CmsgHdr {
        len: usize,
        level: c_int,
        kind: c_int,
    }

    #[cfg(target_pointer_width = "64")]
    const _: () = assert!(
        size_of::<MsgHdr>() == 56 && size_of::<IoVec>() == 16 && size_of::<CmsgHdr>() == 16,
        "the C structs do not have their 64-bit Linux layout"
    );

    /// A `struct sockaddr_storage`'s bytes.
    #[repr(C, align(8))]
    struct Name([u8; 128]);

    /// Room for the control messages of a read: a `UDP_GRO` one takes 24
    /// bytes, and it is the only one a socket with no other option set gets.
    #[repr(C, align(8))]
    struct Control([u8; 64]);

    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
    }

    /// Set the `SOL_UDP` option `name`, which takes an `int`, to `value`.
    fn set_udp_option(socket: &UdpSocket, name: c_int, value: c_int) -> io::Result<()> {
        // SAFETY: `setsockopt` is the C library's, which `std` already links,
        // declared with its Linux signature (`socklen_t` is `u32`). The
        // descriptor is open for as long as `socket` is borrowed. The kernel
        // reads `len` bytes through `value`, and `len` is the size of the
        // `c_int` it points to, which lives until the call returns.
        let rc = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_UDP,
                name,
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

    /// Have the kernel cut every send on `socket` longer than `size` bytes
    /// into datagrams of `size` bytes, the last one shorter; 0 turns that
    /// off. An error means the kernel cannot (older than 4.18) and sends stay
    /// one datagram each.
    pub(crate) fn set_udp_segment(socket: &UdpSocket, size: u16) -> io::Result<()> {
        set_udp_option(socket, UDP_SEGMENT, c_int::from(size))
    }

    /// Have the kernel hand `socket` a peer's segmented send as one read, its
    /// segment size in a control message, instead of cutting it up first. An
    /// error means it cannot (older than 5.0) and reads stay one datagram
    /// each. The first socket of the system to set it costs ~15 µs, and
    /// ~15 µs again when it closes; later ones ~0.3 µs.
    pub(crate) fn set_udp_gro(socket: &UdpSocket) -> io::Result<()> {
        set_udp_option(socket, UDP_GRO, 1)
    }

    /// One `recvmsg` on `socket` into `buf`, with `MSG_DONTWAIT` when
    /// `dontwait` is set: then an empty socket is `WouldBlock` at once.
    pub(crate) fn recv(socket: &UdpSocket, buf: &mut [u8], dontwait: bool) -> io::Result<Read> {
        let mut name = Name([0; 128]);
        let mut control = Control([0; 64]);
        let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
        let mut msg = MsgHdr {
            name: name.0.as_mut_ptr().cast(),
            namelen: name.0.len() as u32,
            iov: &mut iov,
            iovlen: 1,
            control: control.0.as_mut_ptr().cast(),
            controllen: control.0.len(),
            flags: 0,
        };
        let flags = if dontwait { MSG_DONTWAIT } else { 0 };
        // SAFETY: `recvmsg` is the C library's, which `std` already links,
        // declared with its Linux signature (`ssize_t` is `isize`), and `msg`
        // and `iov` have the kernel's layout (`#[repr(C)]`, sizes asserted
        // above). The descriptor is open for as long as `socket` is borrowed.
        // The kernel writes at most `iov.len` bytes through `iov.base`, which
        // is all of `buf`; at most `namelen` into `name` and `controllen` into
        // `control`, each that struct's size. Every pointer is to a local or
        // to `buf`, all of which outlive the call, and nothing else refers to
        // them while it runs.
        let n = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, flags) };
        let Ok(len) = usize::try_from(n) else { return Err(io::Error::last_os_error()) };
        let name = &name.0[..(msg.namelen as usize).min(name.0.len())];
        Ok(Read {
            len,
            from: socket_addr(name)?,
            segment: gro_segment(&control.0[..msg.controllen.min(control.0.len())]),
            truncated: msg.flags & MSG_TRUNC != 0,
        })
    }

    /// `N` bytes of `bytes` from `at`, which the caller has checked are there.
    fn take<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
        bytes[at..at + N].try_into().expect("a slice of N bytes")
    }

    /// The `sockaddr_in` or `sockaddr_in6` `recvmsg` wrote, read as `std`
    /// reads it: the port in network order, an IPv6 address's flow info and
    /// scope id as they are.
    fn socket_addr(name: &[u8]) -> io::Result<SocketAddr> {
        let family = (name.len() >= 2).then(|| u16::from_ne_bytes(take(name, 0)));
        match family {
            Some(AF_INET) if name.len() >= 16 => {
                let port = u16::from_be_bytes(take(name, 2));
                Ok(SocketAddrV4::new(Ipv4Addr::from(take::<4>(name, 4)), port).into())
            }
            Some(AF_INET6) if name.len() >= 28 => Ok(SocketAddrV6::new(
                take::<16>(name, 8).into(),
                u16::from_be_bytes(take(name, 2)),
                u32::from_ne_bytes(take(name, 4)),
                u32::from_ne_bytes(take(name, 24)),
            )
            .into()),
            _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "not an IP socket address")),
        }
    }

    /// The segment size the `UDP_GRO` control message among `control`, the
    /// control bytes of one read, carries; 0 when there is none, as for a
    /// read of one datagram. A header that claims more bytes than there are
    /// ends the walk with 0.
    fn gro_segment(control: &[u8]) -> usize {
        const HEADER: usize = size_of::<CmsgHdr>();
        const WORD: usize = size_of::<usize>();
        let mut at = 0;
        while let Some(header) = control.get(at..at + HEADER) {
            let len = usize::from_ne_bytes(take(header, 0));
            let Some(data) = at.checked_add(len).and_then(|end| control.get(at + HEADER..end))
            else {
                return 0;
            };
            let (level, kind) = (
                c_int::from_ne_bytes(take(header, WORD)),
                c_int::from_ne_bytes(take(header, WORD + 4)),
            );
            if (level, kind) == (SOL_UDP, UDP_GRO) {
                let size = data.get(..4).map_or(0, |v| c_int::from_ne_bytes(take(v, 0)));
                return usize::try_from(size).unwrap_or(0);
            }
            at += len.next_multiple_of(WORD);
        }
        0
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        /// A control message as the kernel lays one out, padded to a word.
        fn cmsg(level: c_int, kind: c_int, data: &[u8]) -> Vec<u8> {
            let len = size_of::<CmsgHdr>() + data.len();
            let mut bytes = len.to_ne_bytes().to_vec();
            bytes.extend(level.to_ne_bytes());
            bytes.extend(kind.to_ne_bytes());
            bytes.extend(data);
            bytes.resize(len.next_multiple_of(size_of::<usize>()), 0);
            bytes
        }

        fn gro(size: c_int) -> Vec<u8> {
            cmsg(SOL_UDP, UDP_GRO, &size.to_ne_bytes())
        }

        /// `IP_TOS` (level `IPPROTO_IP`, type 1): one byte, then padding.
        fn tos() -> Vec<u8> {
            cmsg(0, 1, &[0x10])
        }

        #[test]
        fn no_control_message_is_one_datagram() {
            assert_eq!(gro_segment(&[]), 0);
            assert_eq!(gro_segment(&tos()), 0, "an unrelated message is not a segment size");
        }

        #[test]
        fn the_gro_message_carries_the_segment_size() {
            assert_eq!(gro(1_446).len(), 24);
            assert_eq!(gro_segment(&gro(1_446)), 1_446);
            assert_eq!(gro_segment(&[gro(1_446), vec![0; 40]].concat()), 1_446);
        }

        #[test]
        fn an_unrelated_message_before_it_is_stepped_over() {
            assert_eq!(gro_segment(&[tos(), gro(1_400)].concat()), 1_400);
            assert_eq!(gro_segment(&[tos(), tos(), gro(7)].concat()), 7);
        }

        #[test]
        fn a_message_that_overruns_the_buffer_reads_zero() {
            let whole = gro(1_446);
            let claims = |len: usize| {
                let mut bytes = whole.clone();
                bytes[..size_of::<usize>()].copy_from_slice(&len.to_ne_bytes());
                gro_segment(&bytes)
            };
            assert_eq!(claims(whole.len() + 1), 0);
            assert_eq!(claims(usize::MAX), 0);
            // Too short for its own header, or for an `int` of data.
            assert_eq!((claims(0), claims(size_of::<CmsgHdr>() + 3)), (0, 0));
            // Cut short anywhere before the end of its data, it reads 0.
            let data_end = size_of::<CmsgHdr>() + 4;
            assert!((0..data_end).all(|cut| gro_segment(&whole[..cut]) == 0));
            // An unrelated message that overruns hides what follows it.
            let mut bytes = [tos(), gro(1_446)].concat();
            let overrun = bytes.len() + 8;
            bytes[..size_of::<usize>()].copy_from_slice(&overrun.to_ne_bytes());
            assert_eq!(gro_segment(&bytes), 0);
        }

        fn socket(addr: &str) -> UdpSocket {
            let socket = UdpSocket::bind(addr).unwrap();
            socket.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            socket
        }

        #[test]
        fn a_segmented_send_to_a_gro_socket_is_one_read() {
            let (rx, tx) = (socket("127.0.0.1:0"), socket("127.0.0.1:0"));
            set_udp_gro(&rx).unwrap();
            set_udp_segment(&tx, 100).unwrap();
            let (to, from) = (rx.local_addr().unwrap(), tx.local_addr().unwrap());
            let sent: Vec<u8> = (0..250u32).map(|i| i as u8).collect();
            tx.send_to(&sent, to).unwrap();
            let mut buf = [0u8; 1_024];
            let read = recv(&rx, &mut buf, false).unwrap();
            assert_eq!(read, Read { len: 250, from, segment: 100, truncated: false });
            assert_eq!(buf[..250], sent);
            // Nothing left: a read that must not wait does not.
            let empty = recv(&rx, &mut buf, true).unwrap_err();
            assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);
            // A buffer too short for the read: flagged, its prefix read.
            tx.send_to(&sent, to).unwrap();
            let read = recv(&rx, &mut buf[..150], false).unwrap();
            assert_eq!((read.len, read.truncated), (150, true));
        }

        #[test]
        fn a_single_datagram_reads_as_std_reads_it_over_either_family() {
            for local in ["127.0.0.1:0", "[::1]:0"] {
                // A host without IPv6 loopback has nothing to check.
                let Ok(rx) = UdpSocket::bind(local) else { continue };
                rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let tx = socket(local);
                set_udp_gro(&rx).unwrap();
                tx.send_to(b"one", rx.local_addr().unwrap()).unwrap();
                tx.send_to(b"two", rx.local_addr().unwrap()).unwrap();
                let mut buf = [0u8; 64];
                let read = recv(&rx, &mut buf, false).unwrap();
                assert_eq!(
                    read,
                    Read { len: 3, from: tx.local_addr().unwrap(), segment: 0, truncated: false }
                );
                assert_eq!(
                    rx.recv_from(&mut buf).unwrap(),
                    (3, read.from),
                    "std reads another sender"
                );
            }
        }
    }
}

/// Elsewhere there is no segmentation offload to ask for.
#[cfg(not(target_os = "linux"))]
pub(crate) fn set_udp_segment(_socket: &UdpSocket, _size: u16) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// Nor receive offload.
#[cfg(not(target_os = "linux"))]
pub(crate) fn set_udp_gro(_socket: &UdpSocket) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

/// And a read is `std`'s `recv_from`, one datagram, which a read that must
/// not wait brackets with `set_nonblocking`.
#[cfg(not(target_os = "linux"))]
pub(crate) fn recv(socket: &UdpSocket, buf: &mut [u8], dontwait: bool) -> io::Result<Read> {
    let nonblocking = |on| if dontwait { socket.set_nonblocking(on) } else { Ok(()) };
    nonblocking(true)?;
    let read = socket.recv_from(buf);
    nonblocking(false)?;
    let (len, from) = read?;
    Ok(Read { len, from, segment: 0, truncated: false })
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
