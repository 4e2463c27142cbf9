//! Blocking, self-healing client for the HQNW protocol.
//!
//! One [`NetClient`] owns one connection plus the address list to rebuild
//! it from. Calls are synchronous — send a frame, wait for the matching
//! response — which is exactly the shape the load-generator bench needs
//! (each client thread measures its own request latency).
//!
//! # Fault behavior
//!
//! Every socket carries the [`ClientConfig`] timeouts, so a dead or
//! wedged server surfaces as the typed [`NetError::TimedOut`] instead of
//! a hang. The `*_retry` methods add the self-healing policy on top:
//!
//! * [`NetError::Busy`] and remote [`NetError::DeadlineExceeded`] retry on
//!   the same connection after a capped, jittered exponential backoff —
//!   the server answered, the connection is fine;
//! * broken or timed-out connections ([`NetError::Io`],
//!   [`NetError::TimedOut`], [`NetError::Protocol`]) reconnect and retry,
//!   but **only for idempotent requests** ([`Request::idempotent`]) — the
//!   server may or may not have executed the lost request;
//! * [`NetError::TooManyConnections`] reconnects and retries
//!   unconditionally (the request never ran);
//! * other remote errors (store faults, bad requests) are permanent and
//!   returned immediately.
//!
//! When the retry budget runs out the caller gets
//! [`NetError::RetriesExhausted`] wrapping the last underlying failure —
//! a typed give-up, not a silent one.

use crate::proto::{
    read_frame, read_hello, write_frame, write_hello, DatasetInfo, ErrorFrame, Kind, NetResponse,
    ProtocolError, Request, ServerStats, DEFAULT_MAX_FRAME,
};
use hqmr_mr::Upsample;
use hqmr_serve::{Query, QueryResult, Response};
use hqmr_store::RefinementStep;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Wire-level failure (framing, CRC, malformed body).
    Protocol(ProtocolError),
    /// The server's owning shard had a full queue — retry later.
    Busy,
    /// The server refused the connection at its admission cap.
    TooManyConnections,
    /// The server reported the per-request deadline elapsed before it
    /// could answer. The connection is still usable.
    DeadlineExceeded,
    /// A client-side timeout fired (connect, read or write, or the
    /// request deadline). The connection is desynced and is dropped.
    TimedOut,
    /// The retry budget ran out; `last` is the final underlying failure.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: usize,
        /// The failure of the last attempt.
        last: Box<NetError>,
    },
    /// Any other typed error the server returned.
    Remote(ErrorFrame),
    /// The server answered with a well-formed frame of the wrong kind or id.
    UnexpectedResponse,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Protocol(e) => write!(f, "protocol: {e}"),
            NetError::Busy => write!(f, "server busy, retry"),
            NetError::TooManyConnections => write!(f, "server at connection limit"),
            NetError::DeadlineExceeded => write!(f, "server reported deadline exceeded"),
            NetError::TimedOut => write!(f, "request timed out"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            NetError::Remote(e) => write!(f, "server error: {e}"),
            NetError::UnexpectedResponse => write!(f, "unexpected response frame"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            NetError::RetriesExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout(&e) {
            NetError::TimedOut
        } else {
            NetError::Io(e)
        }
    }
}

impl From<ProtocolError> for NetError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Io(io) => io.into(),
            other => NetError::Protocol(other),
        }
    }
}

fn remote(e: ErrorFrame) -> NetError {
    match e {
        ErrorFrame::Busy => NetError::Busy,
        ErrorFrame::TooManyConnections => NetError::TooManyConnections,
        ErrorFrame::DeadlineExceeded => NetError::DeadlineExceeded,
        other => NetError::Remote(other),
    }
}

/// Unix read/write timeouts surface as `WouldBlock`, other platforms as
/// `TimedOut`; treat both as the timeout they are.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Connection, timeout and retry policy of a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Timeout for establishing the TCP connection. `None` blocks.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout — the longest a call waits on a silent server.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Per-request deadline across write + read. Tighter than
    /// `read_timeout` when both are set. `None` leaves only the socket
    /// timeouts.
    pub request_deadline: Option<Duration>,
    /// First backoff sleep; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Whether broken connections are transparently re-dialed for
    /// idempotent requests.
    pub reconnect: bool,
    /// Seed for backoff jitter. Explicit seeds are honored verbatim
    /// (deterministic backoff for tests); [`ClientConfig::default`] derives
    /// a fresh seed per client so a fleet of default-config clients does not
    /// back off in lockstep.
    pub jitter_seed: u64,
}

/// Per-client default jitter seed: pid ⊕ a process-wide counter, scrambled.
/// A fixed default seed put every default-config client on the *same*
/// xorshift stream — after a shared fault (a server restart), the whole
/// fleet slept identical backoffs and retried in synchronized waves,
/// defeating the point of jitter. The pid decorrelates processes, the
/// counter decorrelates clients within a process, and the splitmix64
/// finalizer turns the near-identical raw inputs into well-spread streams.
fn default_jitter_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let raw = (std::process::id() as u64)
        ^ NEXT.fetch_add(1, Ordering::Relaxed).wrapping_shl(32)
        ^ 0x5EED;
    // splitmix64 finalizer.
    let mut z = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            request_deadline: None,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(50),
            reconnect: true,
            jitter_seed: default_jitter_seed(),
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Extra handle for adjusting socket options mid-call (dup'd FDs share
    /// them, so setting the timeout here covers reader and writer).
    ctrl: TcpStream,
}

/// A blocking connection to a [`NetServer`](crate::NetServer), with
/// timeouts on every socket and optional transparent reconnect.
pub struct NetClient {
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_id: u64,
    max_frame_len: usize,
    jitter: u64,
}

impl NetClient {
    /// Connects with [`ClientConfig::default`] and performs the mutual
    /// hello. An over-limit server completes the hello and answers the
    /// *first frame read* with [`NetError::TooManyConnections`]; the
    /// handshake itself stays cheap.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, NetError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit config. The resolved addresses are kept
    /// for reconnects.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: ClientConfig,
    ) -> Result<NetClient, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let conn = Self::dial(&addrs, &cfg)?;
        let jitter = cfg.jitter_seed | 1; // xorshift must not start at 0
        Ok(NetClient {
            addrs,
            cfg,
            conn: Some(conn),
            next_id: 1,
            max_frame_len: DEFAULT_MAX_FRAME,
            jitter,
        })
    }

    fn dial(addrs: &[SocketAddr], cfg: &ClientConfig) -> Result<Conn, NetError> {
        let mut last: Option<std::io::Error> = None;
        for addr in addrs {
            let dialed = match cfg.connect_timeout {
                Some(t) => TcpStream::connect_timeout(addr, t),
                None => TcpStream::connect(addr),
            };
            match dialed {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    stream.set_read_timeout(cfg.read_timeout)?;
                    stream.set_write_timeout(cfg.write_timeout)?;
                    let ctrl = stream.try_clone()?;
                    let mut conn = Conn {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: BufWriter::new(stream),
                        ctrl,
                    };
                    write_hello(&mut conn.writer)?;
                    conn.writer.flush()?;
                    read_hello(&mut conn.reader)?;
                    return Ok(conn);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("addrs nonempty").into())
    }

    /// Caps the response frames this client will accept.
    pub fn set_max_frame_len(&mut self, max: usize) {
        self.max_frame_len = max;
    }

    /// The active config.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Drops the current connection; the next call re-dials.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Sends one request and waits for its response frame — one attempt,
    /// no retry policy.
    fn call(&mut self, req: &Request) -> Result<NetResponse, NetError> {
        let deadline = self.cfg.request_deadline.map(|d| Instant::now() + d);
        if self.conn.is_none() {
            self.conn = Some(Self::dial(&self.addrs, &self.cfg)?);
        }
        let conn = self.conn.as_mut().expect("just dialed");
        let id = self.next_id;
        self.next_id += 1;
        // A server that already hung up (e.g. admission refusal) makes the
        // write fail — but its typed error frame is still sitting in the
        // receive buffer. Always try the read; prefer its answer over the
        // raw broken-pipe error.
        let wrote = write_frame(&mut conn.writer, req.kind(), id, &req.encode())
            .and_then(|()| conn.writer.flush());
        // The read honors whatever is tighter: the socket timeout or what
        // remains of the request deadline.
        if let Some(dl) = deadline {
            let remaining = dl.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.conn = None;
                return Err(NetError::TimedOut);
            }
            let t = match self.cfg.read_timeout {
                Some(rt) => rt.min(remaining),
                None => remaining,
            };
            let _ = conn.ctrl.set_read_timeout(Some(t));
        }
        let read = read_frame(&mut conn.reader, self.max_frame_len);
        if deadline.is_some() {
            let _ = conn.ctrl.set_read_timeout(self.cfg.read_timeout);
        }
        let (header, body) = match (read, wrote) {
            (Ok(frame), _) => frame,
            (Err(e), wrote) => {
                // Whatever the cause, the stream position is unknown now —
                // a late response would desync every later call.
                self.conn = None;
                return Err(match (e, wrote) {
                    (ProtocolError::Io(io), _) if is_timeout(&io) => NetError::TimedOut,
                    (_, Err(io)) => io.into(),
                    (e, Ok(())) => e.into(),
                });
            }
        };
        // Responses echo the request id; id 0 is reserved for
        // connection-scoped errors (admission refusal, desynced stream).
        if header.req_id != id && !(header.req_id == 0 && header.kind == Kind::RError) {
            self.conn = None;
            return Err(NetError::UnexpectedResponse);
        }
        let resp = NetResponse::decode(header.kind, &body)?;
        match resp {
            NetResponse::Error(e) => {
                if matches!(e, ErrorFrame::TooManyConnections) {
                    // The server hangs up after an admission refusal.
                    self.conn = None;
                }
                Err(remote(e))
            }
            other => Ok(other),
        }
    }

    /// [`call`](Self::call) under the retry policy: jittered exponential
    /// backoff, transparent reconnect for idempotent requests, typed
    /// give-up after `budget` retries.
    fn call_retrying(&mut self, req: &Request, budget: usize) -> Result<NetResponse, NetError> {
        let mut attempt = 0usize;
        loop {
            match self.call(req) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    if !self.retryable(&e, req) {
                        return Err(e);
                    }
                    if attempt >= budget {
                        return Err(NetError::RetriesExhausted {
                            attempts: attempt + 1,
                            last: Box::new(e),
                        });
                    }
                    // `call` already dropped the connection where needed;
                    // a retryable error leaves either a usable connection
                    // (Busy, DeadlineExceeded) or none (re-dialed next
                    // attempt).
                    self.backoff(attempt as u32);
                    attempt += 1;
                }
            }
        }
    }

    /// Whether the policy may retry after `e`.
    fn retryable(&self, e: &NetError, req: &Request) -> bool {
        match e {
            // The server answered; the request did not run (Busy) or was
            // abandoned (deadline). Same connection, try again.
            NetError::Busy | NetError::DeadlineExceeded => true,
            // Admission refusal: the request never ran; reconnect is
            // always safe (if permitted).
            NetError::TooManyConnections => self.cfg.reconnect,
            // Ambiguous failures: the server may have executed the
            // request. Only idempotent requests may be replayed.
            NetError::Io(_)
            | NetError::TimedOut
            | NetError::Protocol(_)
            | NetError::UnexpectedResponse => self.cfg.reconnect && req.idempotent(),
            // Permanent answers.
            NetError::Remote(_) | NetError::RetriesExhausted { .. } => false,
        }
    }

    /// Sleeps `min(cap, base·2^attempt)`, jittered to 50–100% — capped
    /// exponential backoff that decorrelates colliding clients instead of
    /// spinning the scheduler.
    fn backoff(&mut self, attempt: u32) {
        let base = self.cfg.backoff_base.max(Duration::from_micros(10));
        let exp = base.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.cfg.backoff_cap).max(Duration::from_micros(10));
        // xorshift64: cheap, deterministic per jitter_seed.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let frac = 0.5 + 0.5 * ((self.jitter >> 11) as f64 / (1u64 << 53) as f64);
        std::thread::sleep(capped.mul_f64(frac));
    }

    /// The server's dataset catalog.
    pub fn datasets(&mut self) -> Result<Vec<DatasetInfo>, NetError> {
        match self.call(&Request::List)? {
            NetResponse::Datasets(list) => Ok(list),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Runs a batch of queries against `dataset` — the remote form of
    /// [`StoreServer::serve_batch`](hqmr_serve::StoreServer::serve_batch),
    /// answers in request order. One attempt; see
    /// [`batch_retry`](Self::batch_retry) for the self-healing form.
    pub fn batch(&mut self, dataset: u32, queries: &[Query]) -> Result<Vec<Response>, NetError> {
        let req = Request::Batch {
            dataset,
            queries: queries.to_vec(),
        };
        match self.call(&req)? {
            NetResponse::Batch(rs) => Ok(rs),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// [`batch`](Self::batch) under the full retry policy: capped jittered
    /// backoff on [`NetError::Busy`]/[`NetError::DeadlineExceeded`],
    /// transparent reconnect on broken or timed-out connections, typed
    /// [`NetError::RetriesExhausted`] after `retries` retries. The bench
    /// and storm clients use this as their standard loop.
    pub fn batch_retry(
        &mut self,
        dataset: u32,
        queries: &[Query],
        retries: usize,
    ) -> Result<Vec<Response>, NetError> {
        let req = Request::Batch {
            dataset,
            queries: queries.to_vec(),
        };
        match self.call_retrying(&req, retries)? {
            NetResponse::Batch(rs) => Ok(rs),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Degraded-mode batch — the remote form of
    /// [`StoreServer::serve_batch_degraded`](hqmr_serve::StoreServer::serve_batch_degraded):
    /// corrupt chunks are filled and flagged per query instead of failing
    /// the batch. One attempt.
    pub fn batch_degraded(
        &mut self,
        dataset: u32,
        queries: &[Query],
    ) -> Result<Vec<QueryResult>, NetError> {
        let req = Request::BatchDegraded {
            dataset,
            queries: queries.to_vec(),
        };
        match self.call(&req)? {
            NetResponse::BatchDegraded(rs) => Ok(rs),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// [`batch_degraded`](Self::batch_degraded) under the retry policy —
    /// the most available read the client offers: degraded chunks are
    /// filled server-side, transport faults are retried here.
    pub fn batch_degraded_retry(
        &mut self,
        dataset: u32,
        queries: &[Query],
        retries: usize,
    ) -> Result<Vec<QueryResult>, NetError> {
        let req = Request::BatchDegraded {
            dataset,
            queries: queries.to_vec(),
        };
        match self.call_retrying(&req, retries)? {
            NetResponse::BatchDegraded(rs) => Ok(rs),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Full coarse→fine refinement of `dataset`.
    pub fn progressive(
        &mut self,
        dataset: u32,
        scheme: Upsample,
    ) -> Result<Vec<RefinementStep>, NetError> {
        let req = Request::Progressive { dataset, scheme };
        match self.call(&req)? {
            NetResponse::Progressive(steps) => Ok(steps),
            _ => Err(NetError::UnexpectedResponse),
        }
    }

    /// Server stats for one tenant: its cache window plus the
    /// server-global rejection and background-scrub counters. `take`
    /// drains the tenant's cache window (snapshot-and-reset) like
    /// [`StoreServer::take_stats`](hqmr_serve::StoreServer::take_stats);
    /// the global counters are always a peek.
    /// Deliberately not offered in a `_retry` form: `take: true` is not
    /// idempotent, and the policy would refuse to replay it anyway.
    pub fn stats(&mut self, dataset: u32, take: bool) -> Result<ServerStats, NetError> {
        let req = Request::Stats { dataset, take };
        match self.call(&req)? {
            NetResponse::Stats(s) => Ok(s),
            _ => Err(NetError::UnexpectedResponse),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jitter_seeds_are_decorrelated_per_client() {
        // Every default config in one process draws a distinct seed — two
        // clients built from defaults must not share a backoff stream.
        let seeds: Vec<u64> = (0..8)
            .map(|_| ClientConfig::default().jitter_seed)
            .collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "default-config clients share a jitter stream");
            }
        }
    }

    #[test]
    fn explicit_jitter_seed_is_preserved() {
        // Tests that pin backoff behavior rely on explicit seeds staying
        // byte-exact through the config.
        let cfg = ClientConfig {
            jitter_seed: 0x5EED,
            ..Default::default()
        };
        assert_eq!(cfg.jitter_seed, 0x5EED);
        let again = cfg.clone();
        assert_eq!(again.jitter_seed, 0x5EED);
    }
}
