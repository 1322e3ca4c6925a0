//! The udp workloads: two `HomaUdpNode`s on 127.0.0.1 in this process,
//! a closed-loop client on the calling thread and one echo thread.

use crate::plan::{checksum, Reply, RpcPlan};
use homa::packets::PeerId;
use homa_udp::{HomaUdpNode, UdpConfig, UdpEvent};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENT: PeerId = PeerId(0);
const SERVER: PeerId = PeerId(1);
/// An RPC with no event for this long counts as failed.
const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Where the traced build takes its timestamps. Every method defaults to
/// nothing, so the measured build, which uses [`NoProbe`], carries none.
pub trait RpcProbe: Sync {
    /// The client is about to enter `call` for request `i`.
    fn call_begin(&self, _i: usize) {}
    /// `call` returned; the RPC got sequence number `seq`.
    fn call_end(&self, _i: usize, _seq: u64) {}
    /// The client received the response to request `i`.
    fn response_seen(&self, _i: usize) {}
    /// The echo thread received request `rpc` (the client's `seq`).
    fn request_seen(&self, _rpc: u64) {}
    /// The echo thread is about to enter `respond` for `rpc`.
    fn respond_begin(&self, _rpc: u64) {}
    /// The echo thread's `respond` for `rpc` returned.
    fn respond_end(&self, _rpc: u64) {}
}

/// The probe of the measured build.
#[derive(Debug, Clone, Copy)]
pub struct NoProbe;
impl RpcProbe for NoProbe {}

/// Two nodes that know each other's addresses.
pub struct Pair {
    /// The node that issues RPCs.
    pub client: Arc<HomaUdpNode>,
    /// The node that answers them.
    pub server: Arc<HomaUdpNode>,
}

impl Pair {
    /// Bind both nodes to ephemeral loopback ports and introduce them.
    pub fn bind() -> io::Result<Pair> {
        let client = HomaUdpNode::bind(CLIENT, ("127.0.0.1", 0), UdpConfig::default())?;
        let server = HomaUdpNode::bind(SERVER, ("127.0.0.1", 0), UdpConfig::default())?;
        client.add_peer(SERVER, server.local_addr()?);
        server.add_peer(CLIENT, client.local_addr()?);
        Ok(Pair { client, server })
    }

    /// Stop both driver threads and wait until they have ended. Each
    /// driver thread holds one `Arc` of its node and leaves its loop
    /// within one poll interval of `shutdown`, so a count of one means
    /// the thread is gone. False if either is still there after 2 s.
    pub fn shutdown(self) -> bool {
        self.client.shutdown();
        self.server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(2);
        while Arc::strong_count(&self.client) > 1 || Arc::strong_count(&self.server) > 1 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        true
    }
}

/// The set-up section of a udp workload: bind two nodes, introduce them,
/// complete a first RPC, ask both to shut down. Returns wall seconds. The
/// wait for the driver threads to end is not timed: each sits out the
/// rest of a socket read timeout the kernel rounds up to a scheduler
/// tick, which says nothing about the node.
pub fn setup_once() -> io::Result<f64> {
    let start = Instant::now();
    let pair = Pair::bind()?;
    pair.client.call(SERVER, vec![0x5a; 64], 0)?;
    match pair.server.events().recv_timeout(RPC_TIMEOUT) {
        Ok(UdpEvent::Request { from, rpc, data }) => pair.server.respond(from, rpc, data)?,
        other => return Err(io::Error::other(format!("first request: {other:?}"))),
    }
    match pair.client.events().recv_timeout(RPC_TIMEOUT) {
        Ok(UdpEvent::Response { data, .. }) if data == [0x5a; 64] => {}
        other => return Err(io::Error::other(format!("first response: {other:?}"))),
    }
    pair.client.shutdown();
    pair.server.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    if !pair.shutdown() {
        return Err(io::Error::other("driver threads did not stop"));
    }
    Ok(elapsed)
}

/// The echo thread: answers every request on the server node until told
/// to stop. Blocks on the event channel; never spins.
pub struct EchoServer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl EchoServer {
    /// Start the thread. `probe` must outlive it, hence `'static`.
    pub fn start<P: RpcProbe + Send + Sync + 'static>(
        server: Arc<HomaUdpNode>,
        reply: Reply,
        probe: Arc<P>,
    ) -> EchoServer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-echo".into())
            .spawn(move || {
                let mut errors = 0u64;
                while !flag.load(Ordering::SeqCst) {
                    let Ok(ev) = server.events().recv_timeout(Duration::from_millis(20)) else {
                        continue;
                    };
                    if let UdpEvent::Request { from, rpc, data } = ev {
                        probe.request_seen(rpc);
                        let response = match reply {
                            Reply::Echo => data,
                            Reply::Checksum => checksum(&data).to_le_bytes().to_vec(),
                        };
                        probe.respond_begin(rpc);
                        if server.respond(from, rpc, response).is_err() {
                            errors += 1;
                        }
                        probe.respond_end(rpc);
                    }
                }
                errors
            })
            .expect("spawn echo thread");
        EchoServer { stop, handle }
    }

    /// Stop the thread and wait for it; returns how many `respond` calls
    /// returned an error.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("echo thread panicked")
    }
}

/// What one repeat of a plan did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepeatOutcome {
    /// RPCs issued.
    pub attempted: u64,
    /// Responses that arrived and matched their request.
    pub completed: u64,
    /// `Aborted` events, timeouts and `call` errors.
    pub failed: u64,
    /// Responses whose length or checksum did not match.
    pub mismatched: u64,
}

impl std::ops::AddAssign for RepeatOutcome {
    fn add_assign(&mut self, rep: RepeatOutcome) {
        self.attempted += rep.attempted;
        self.completed += rep.completed;
        self.failed += rep.failed;
        self.mismatched += rep.mismatched;
    }
}

/// Run `plan` once over `pair`: keep `plan.outstanding` RPCs in flight,
/// issue the next as each response arrives, check every response.
/// `tag_base` tells this repeat's responses from a stale one of an
/// earlier, timed-out repeat.
pub fn run_repeat<P: RpcProbe>(
    pair: &Pair,
    plan: &RpcPlan,
    tag_base: u64,
    probe: &P,
) -> RepeatOutcome {
    let n = plan.requests.len();
    let mut out = RepeatOutcome::default();
    let mut next = 0usize;
    let mut inflight = 0usize;
    let issue = |i: usize, out: &mut RepeatOutcome| -> bool {
        out.attempted += 1;
        probe.call_begin(i);
        match pair.client.call(SERVER, plan.payload(i).to_vec(), tag_base + i as u64) {
            Ok(seq) => {
                probe.call_end(i, seq);
                true
            }
            Err(_) => {
                out.failed += 1;
                false
            }
        }
    };
    loop {
        while next < n && inflight < plan.outstanding {
            if issue(next, &mut out) {
                inflight += 1;
            }
            next += 1;
        }
        if inflight == 0 {
            break;
        }
        match pair.client.events().recv_timeout(RPC_TIMEOUT) {
            Ok(UdpEvent::Response { tag, data, .. }) => {
                let Some(i) = tag.checked_sub(tag_base).filter(|&i| i < n as u64) else {
                    continue;
                };
                probe.response_seen(i as usize);
                let req = plan.requests[i as usize];
                let ok = match plan.reply {
                    Reply::Echo => data.len() == req.len as usize && checksum(&data) == req.sum,
                    Reply::Checksum => data == req.sum.to_le_bytes(),
                };
                if ok {
                    out.completed += 1;
                } else {
                    out.mismatched += 1;
                }
                inflight -= 1;
            }
            Ok(UdpEvent::Aborted { tag, .. }) if tag >= tag_base && tag < tag_base + n as u64 => {
                out.failed += 1;
                inflight -= 1;
            }
            Ok(_) => {}
            Err(_) => {
                // Nothing for five seconds: give up on what is in flight
                // and on the rest of the plan.
                out.failed += inflight as u64;
                break;
            }
        }
    }
    out
}
