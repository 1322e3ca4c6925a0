//! Integration tests for the real-socket UDP transport.

use homa::packets::{GrantHeader, HomaPacket, PeerId};
use homa_udp::{HomaUdpNode, RunSummary, UdpConfig, UdpEvent};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pair() -> (Arc<HomaUdpNode>, Arc<HomaUdpNode>) {
    pair_with(UdpConfig::default())
}

fn pair_with(cfg: UdpConfig) -> (Arc<HomaUdpNode>, Arc<HomaUdpNode>) {
    let a = HomaUdpNode::bind(PeerId(0), "127.0.0.1:0", cfg.clone()).expect("bind a");
    let b = HomaUdpNode::bind(PeerId(1), "127.0.0.1:0", cfg).expect("bind b");
    a.add_peer(PeerId(1), b.local_addr().expect("addr"));
    b.add_peer(PeerId(0), a.local_addr().expect("addr"));
    (a, b)
}

#[test]
fn many_concurrent_messages_over_loopback() {
    let (a, b) = pair();
    let n = 20u64;
    let mut expected: std::collections::HashMap<u64, Vec<u8>> = Default::default();
    for i in 0..n {
        let len = 500 + (i as usize) * 731;
        let payload: Vec<u8> = (0..len).map(|j| ((j as u64 * (i + 1)) % 251) as u8).collect();
        expected.insert(i, payload.clone());
        a.send_message(PeerId(1), payload, i).expect("send");
    }
    for _ in 0..n {
        match b.events().recv_timeout(Duration::from_secs(10)).expect("delivery") {
            UdpEvent::Message { tag, data, .. } => {
                assert_eq!(expected.remove(&tag).expect("unique tag"), data);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(expected.is_empty());
    a.shutdown();
    b.shutdown();
}

#[test]
fn rpc_pipeline_over_loopback() {
    let (a, b) = pair();
    // Server: echo with a twist so we know the server actually ran.
    let b2 = b.clone();
    let server = std::thread::spawn(move || {
        for _ in 0..8 {
            match b2.events().recv_timeout(Duration::from_secs(10)).expect("request") {
                UdpEvent::Request { from, rpc, mut data } => {
                    data.reverse();
                    b2.respond(from, rpc, data).expect("respond");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    });
    for i in 0..8u64 {
        let payload: Vec<u8> = (0..100 + i * 37).map(|j| (j % 256) as u8).collect();
        a.call(PeerId(1), payload.clone(), i).expect("call");
        match a.events().recv_timeout(Duration::from_secs(10)).expect("response") {
            UdpEvent::Response { tag, data, .. } => {
                assert_eq!(tag, i);
                let mut want = payload;
                want.reverse();
                assert_eq!(data, want);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    server.join().expect("server thread");
    a.shutdown();
    b.shutdown();
}

/// A full-size DATA datagram: header and `MAX_PAYLOAD` bytes.
const FULL_DATAGRAM: usize = homa_wire::DATA_HEADER_LEN + homa::config::MAX_PAYLOAD as usize;

/// One 256 KiB request from a fresh client to a fresh server, checked
/// whole; returns both nodes' summaries.
fn a_256_kib_request() -> (RunSummary, RunSummary) {
    let (a, b) = pair();
    let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i * 13 % 251) as u8).collect();
    a.call(PeerId(1), payload.clone(), 1).expect("call");
    match b.events().recv_timeout(Duration::from_secs(10)).expect("request") {
        UdpEvent::Request { data, .. } => assert!(data == payload, "the request differs"),
        other => panic!("unexpected {other:?}"),
    }
    a.shutdown();
    b.shutdown();
    (a.run_summary(), b.run_summary())
}

#[test]
fn a_256_kib_request_arrives_whole_from_a_fraction_of_the_sends() {
    let (sum, _) = a_256_kib_request();
    // Segmentation offload is Linux's (4.18 on); elsewhere a send is a datagram.
    if cfg!(target_os = "linux") {
        assert!(sum.datagrams_tx > 4 * sum.tx_sends, "few datagrams per send: {sum}");
    }
}

#[test]
fn a_256_kib_request_arrives_in_a_fraction_of_the_reads() {
    let (_, sum) = a_256_kib_request();
    // Receive offload is Linux's (5.0 on); elsewhere a read is a datagram.
    if cfg!(target_os = "linux") {
        assert!(sum.datagrams_rx > 4 * sum.rx_reads, "few datagrams per read: {sum}");
    }
    assert_eq!(sum.rx_truncated, 0, "{sum}");
}

/// Segmentation is invisible on the wire: a peer that is a plain socket,
/// with no segmentation offload of its own, reads one full-size DATA
/// datagram at a time, in order, and together they are the message.
#[test]
fn a_plain_socket_peer_reads_segmented_sends_as_ordinary_datagrams() {
    let node = HomaUdpNode::bind(PeerId(0), "127.0.0.1:0", UdpConfig::default()).expect("bind");
    let peer = UdpSocket::bind("127.0.0.1:0").expect("bind the plain socket");
    peer.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    node.add_peer(PeerId(1), peer.local_addr().expect("addr"));
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
    node.send_message(PeerId(1), payload.clone(), 5).expect("send");
    let (mut got, mut buf, mut granted) = (Vec::new(), vec![0u8; 1 << 16], false);
    while got.len() < payload.len() {
        let n = peer.recv(&mut buf).expect("a datagram within 5 s");
        assert!(n <= FULL_DATAGRAM, "a {n}-byte datagram");
        let (pkt, off) = homa_wire::decode(&buf[..n]).expect("decodes");
        let HomaPacket::Data(h) = pkt else { panic!("not DATA: {pkt:?}") };
        assert_eq!(h.offset, got.len() as u64, "offsets are not contiguous");
        got.extend_from_slice(&buf[off..off + h.payload as usize]);
        // Past the unscheduled bytes, the sender waits for a grant: grant it all.
        if !granted {
            let grant = GrantHeader { key: h.key, offset: h.msg_len, prio: 0, cutoffs: None };
            let grant = homa_wire::encode(&HomaPacket::Grant(grant), &[]);
            peer.send_to(&grant, node.local_addr().expect("addr")).expect("grant");
            granted = true;
        }
    }
    assert!(got == payload, "the reassembled bytes differ");
    // ... and they were segmented sends, not one send each.
    let sum = node.run_summary();
    if cfg!(target_os = "linux") {
        assert!(sum.tx_sends < sum.datagrams_tx, "nothing was coalesced: {sum}");
    }
    node.shutdown();
}

#[test]
fn recovery_after_injected_loss() {
    let (a, b) = pair();
    // Drop every 5th data packet the receiver sees, for the first 10.
    let mut seen = 0;
    b.set_rx_drop_filter(move |p| {
        if matches!(p, HomaPacket::Data(_)) {
            seen += 1;
            seen <= 10 && seen % 5 == 0
        } else {
            false
        }
    });
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 253) as u8).collect();
    a.send_message(PeerId(1), payload.clone(), 1).expect("send");
    match b.events().recv_timeout(Duration::from_secs(15)).expect("recovered delivery") {
        UdpEvent::Message { data, .. } => assert_eq!(data, payload),
        other => panic!("unexpected {other:?}"),
    }
    a.shutdown();
    b.shutdown();
}

/// Loss inside coalesced reads: the drop filter sees each datagram of a
/// read on its own, and losing some of them loses only those. A request and
/// not a one-way: the receiver asks for its 27 gaps one per resend interval,
/// and a one-way's sender forgets it four intervals after its last byte,
/// while a client keeps its request until the response.
#[test]
fn every_seventh_data_segment_lost_and_a_256_kib_request_still_arrives() {
    let (a, b) = pair();
    let (seen, data) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (seen2, data2) = (seen.clone(), data.clone());
    b.set_rx_drop_filter(move |p| {
        seen2.fetch_add(1, Ordering::Relaxed);
        matches!(p, HomaPacket::Data(_)) && (data2.fetch_add(1, Ordering::Relaxed) + 1) % 7 == 0
    });
    let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i * 17 % 253) as u8).collect();
    a.call(PeerId(1), payload.clone(), 2).expect("call");
    match b.events().recv_timeout(Duration::from_secs(30)).expect("recovered request") {
        UdpEvent::Request { from, rpc, data } => {
            assert!(data == payload, "the request differs");
            b.respond(from, rpc, vec![1; 8]).expect("respond");
        }
        other => panic!("unexpected {other:?}"),
    }
    match a.events().recv_timeout(Duration::from_secs(10)).expect("response") {
        UdpEvent::Response { data, .. } => assert_eq!(data, [1; 8]),
        other => panic!("unexpected {other:?}"),
    }
    // Once the server's driver has stopped, the filter has seen every
    // datagram it counted.
    a.shutdown();
    b.shutdown();
    std::thread::sleep(Duration::from_millis(100));
    let sum = b.run_summary();
    let (seen, data) = (seen.load(Ordering::Relaxed), data.load(Ordering::Relaxed));
    assert_eq!(seen, sum.datagrams_rx, "the filter missed datagrams: {sum}");
    // 188 packets, and the retransmissions of the one in seven lost.
    assert!(data > 188, "nothing was retransmitted: {data} DATA, {sum}");
    // Only the first reads are coalesced: a lost packet's bytes stay in the
    // grant window until resent, so after seven losses a grant releases one
    // packet at a time.
    if cfg!(target_os = "linux") {
        assert!(sum.datagrams_rx > sum.rx_reads, "no read was coalesced: {sum}");
    }
}

/// Loss of every kind of packet, at both ends: no other test ever drops a
/// GRANT, and a merged GRANT carries several packets' worth of window.
#[test]
fn echo_rpcs_survive_one_packet_in_seven_lost_at_both_nodes() {
    // One RESEND and its answer both get through 73% of the time, so the
    // default budget of five unanswered RESENDs in a row runs out about
    // once in these 40 RPCs by bad luck alone; with 40, an `Aborted` means
    // the protocol is stuck.
    let (a, b) = pair_with(UdpConfig {
        homa: homa::HomaConfig {
            resend_interval_ns: 2_000_000,
            abort_after_resends: 40,
            ..homa::HomaConfig::default()
        },
        ..UdpConfig::default()
    });
    // One packet in seven, drawn from a seeded generator and not counted
    // off: once a single RPC is left its retry cycle is periodic, and a
    // counter could lock onto it and take the same packet every time.
    for (node, seed) in [(&a, 7), (&b, 11)] {
        let mut rng = homa_harness::SplitMix64::new(seed);
        node.set_rx_drop_filter(move |_| rng.below(7) == 0);
    }
    // The echo server. It keeps no response once the last byte is out, so a
    // lost response tail makes it ask for the request and answer it again
    // (at-least-once, §3.8); a response the client no longer wants is
    // written off as `Aborted` there, so only the client is held to none.
    let (b2, stop) = (b.clone(), Arc::new(AtomicBool::new(false)));
    let stopped = stop.clone();
    let server = std::thread::spawn(move || {
        while !stopped.load(Ordering::SeqCst) {
            if let Ok(UdpEvent::Request { from, rpc, data }) =
                b2.events().recv_timeout(Duration::from_millis(20))
            {
                b2.respond(from, rpc, data).expect("respond");
            }
        }
    });
    // 40 sizes from 1 B to 300 KB in equal ratios, four RPCs outstanding.
    let payload = |i: u64| -> Vec<u8> {
        let len = 300_000f64.powf(i as f64 / 39.0).round() as u64;
        (0..len).map(|j| ((j * (i + 3)) % 251) as u8).collect()
    };
    let (n, mut next, mut done) = (40u64, 0u64, 0u64);
    while done < n {
        while next < n && next - done < 4 {
            a.call(PeerId(1), payload(next), next).expect("call");
            next += 1;
        }
        match a.events().recv_timeout(Duration::from_secs(60)).expect("a response") {
            UdpEvent::Response { tag, data, .. } => {
                let sent = payload(tag);
                let at = data.iter().zip(&sent).position(|(a, b)| a != b);
                assert!(
                    data == sent,
                    "response {tag} differs from its request: {} bytes back for {} sent, \
                     first difference at byte {}",
                    data.len(),
                    sent.len(),
                    at.unwrap_or(data.len().min(sent.len()))
                );
                done += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    stop.store(true, Ordering::SeqCst);
    server.join().expect("server thread");
    assert_eq!(a.events_dropped() + b.events_dropped(), 0);
    // Everything either side retained drains: payloads once acknowledged
    // or lingered out, reassembly buffers once complete or written off.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (sa, sb) = (a.run_summary(), b.run_summary());
        if sa.out_payloads + sa.in_buffers + sb.out_payloads + sb.in_buffers == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "state never drained:\n{sa}\n{sb}");
        std::thread::sleep(Duration::from_millis(10));
    }
    a.shutdown();
    b.shutdown();
}
