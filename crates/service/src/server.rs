//! Transport loops: the daemon over TCP (`std::net`) and over stdio.
//!
//! Both speak the same framing — one JSON request per line in, one JSON
//! response per line out — and both feed the bytes of every read to one
//! push-based `LineReader`, which owns the whole line contract: lines
//! accumulate within a bounded buffer (an oversized line is drained and
//! answered with a protocol error instead of ballooning daemon memory),
//! invalid UTF-8 gets an error response rather than a disconnect, blank
//! lines are skipped, an unterminated final line still counts, injected
//! connection faults are checked once per line event, and no line is
//! answered once `Shutdown` has been served.
//!
//! TCP is served by a small fixed pool of *reactor* threads driving a
//! readiness event loop (`vendor/polling`, the epoll/poll stand-in)
//! instead of a thread per connection, so ten thousand idle sessions cost
//! ten thousand small buffers, not ten thousand stacks. Reactor 0 owns
//! the listener and deals new connections round-robin to its peers
//! through waker-poked inboxes; each connection then lives on one reactor
//! with its own reader. Per-session determinism is untouched by
//! connection interleaving because every session owns its RNG streams.
//!
//! Both transports implement group commit: all requests from one batch —
//! a reactor's readiness round, or one stdio read — are handled first
//! (each journalling its effect), then a single [`Service::flush_wal`]
//! makes the whole batch durable, and only then are the batch's replies
//! written — one fsync per batch instead of one per request, with no
//! reply ever racing ahead of its journal record. A failed flush is
//! fail-stop on both: its batch's replies are withheld and the transport
//! returns the error (over TCP every reactor first closes its
//! connections unflushed).
//!
//! The optional read deadline is enforced by the reactors' timer sweep
//! off the service [`Clock`](crate::Clock) — not `SO_RCVTIMEO` — closing
//! connections that go silent mid-session. One connection's garbage never disturbs
//! another's session state.

use crate::fault::{FaultAction, FaultPoint};
use crate::protocol::{Request, Response};
use crate::service::Service;
use polling::{Event, Interest, Poller, Waker};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// What a transport does after feeding a read to its [`LineReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Keep reading.
    Continue,
    /// Close without delivering the batch's replies — the injected
    /// network drop.
    CloseNow,
    /// Deliver the replies, then close: end of stream, or `Shutdown` was
    /// served.
    FlushThenClose,
}

/// The line contract both transports share, as a push parser: the
/// transport hands it the bytes of each read, and it answers every line
/// those bytes complete.
struct LineReader {
    /// The line cap in bytes, newline excluded.
    max: usize,
    /// Bytes of the current (incomplete) line.
    line: Vec<u8>,
    /// The current line passed the cap: discard to its newline, then
    /// answer with a protocol error.
    draining: bool,
}

impl LineReader {
    fn new(max: usize) -> LineReader {
        LineReader {
            max,
            line: Vec::new(),
            draining: false,
        }
    }

    /// Feeds the bytes of one read (`None` at end of stream), appending
    /// one reply line per answered request to `out` and counting it in
    /// `replies`.
    fn push(
        &mut self,
        service: &Service,
        read: Option<&[u8]>,
        out: &mut Vec<u8>,
        replies: &mut usize,
    ) -> Flow {
        let Some(mut rest) = read else {
            // End of stream is one last line event: an unterminated final
            // line, the error for a drain that EOF cut short, or nothing
            // pending (skipped like a blank line).
            return match self.end_line(service, out, replies) {
                Flow::Continue => Flow::FlushThenClose,
                flow => flow,
            };
        };
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            self.accumulate(&rest[..pos]);
            rest = &rest[pos + 1..];
            let flow = self.end_line(service, out, replies);
            if flow != Flow::Continue {
                return flow;
            }
        }
        self.accumulate(rest);
        Flow::Continue
    }

    /// Adds bytes to the current line within the cap; past it, drops the
    /// line and drains to its newline without buffering the flood.
    fn accumulate(&mut self, bytes: &[u8]) {
        if self.draining {
            return;
        }
        if self.line.len() + bytes.len() > self.max {
            self.line = Vec::new();
            self.draining = true;
        } else {
            self.line.extend_from_slice(bytes);
        }
    }

    /// Ends the current line: once `Shutdown` has been served, nothing;
    /// otherwise one fault check, then its reply.
    fn end_line(&mut self, service: &Service, out: &mut Vec<u8>, replies: &mut usize) -> Flow {
        if service.shutdown_requested() {
            return Flow::FlushThenClose;
        }
        // Injected connection fault: drop the link as though the network
        // did, leaving whatever the service already applied in place —
        // the at-least-once story the client retry layer is tested under.
        if let Some(FaultAction::Drop) = service.fault_plan().check(FaultPoint::ConnectionRead) {
            return Flow::CloseNow;
        }
        let line = std::mem::take(&mut self.line);
        let reply = if std::mem::take(&mut self.draining) {
            crate::protocol::encode(&Response::Error {
                message: format!("protocol line exceeds the {}-byte limit", self.max),
            })
        } else {
            match String::from_utf8(line) {
                Err(_) => crate::protocol::encode(&Response::Error {
                    message: "protocol line is not valid UTF-8".to_string(),
                }),
                Ok(line) if line.trim().is_empty() => return Flow::Continue,
                Ok(line) => service.handle_line(&line),
            }
        };
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        *replies += 1;
        if service.shutdown_requested() {
            Flow::FlushThenClose
        } else {
            Flow::Continue
        }
    }
}

/// Whether a read error means "the peer went quiet past the deadline".
fn is_deadline(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Serves the daemon over stdin/stdout (or any reader/writer pair) until
/// EOF or `Shutdown`. Each read is one group-commit batch: its requests
/// are handled, one [`Service::flush_wal`] makes their effects durable,
/// and only then are their replies written. A failed flush ends the loop
/// with its error before any of the batch's replies is written.
pub fn serve_stdio(
    service: &Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut reader = LineReader::new(service.max_line_bytes());
    let mut out = Vec::new();
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            // A deadline expiry is a normal close, not a transport error.
            Err(err) if is_deadline(&err) => return Ok(()),
            Err(err) => return Err(err),
        };
        let len = chunk.len();
        let mut replies = 0;
        let flow = reader.push(service, (len > 0).then_some(chunk), &mut out, &mut replies);
        input.consume(len);
        if replies > 0 {
            service.flush_wal()?;
        }
        if flow == Flow::CloseNow {
            return Ok(());
        }
        output.write_all(&out)?;
        output.flush()?;
        out.clear();
        if flow == Flow::FlushThenClose {
            return Ok(());
        }
    }
}

/// Poller token of the listening socket (reactor 0 only).
const TOKEN_LISTENER: usize = 0;
/// Poller token of each reactor's waker pipe.
const TOKEN_WAKER: usize = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: usize = 2;
/// Ceiling on reactor threads: connection I/O is cheap, so a handful of
/// loops saturates the network path even on wide machines.
const MAX_REACTORS: usize = 8;
/// Poll timeout when no read deadline bounds the wait. Wakers make an
/// unbounded wait safe; the cap is a belt against a lost wake ever
/// parking a reactor forever.
const IDLE_POLL_MS: u64 = 1000;

/// Locks a mutex, riding through poisoning — a panicking reactor must
/// not wedge its peers' connection hand-off.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// One connection's state on its reactor: its line reader, its reply
/// buffer and its deadline stamp.
struct Conn {
    stream: TcpStream,
    /// The connection's half of the line contract.
    reader: LineReader,
    /// Responses queued for the socket; flushed after the batch commits.
    wbuf: Vec<u8>,
    /// How much of `wbuf` has already reached the socket.
    wpos: usize,
    /// Service-clock stamp of the last byte read (read-deadline sweep).
    last_activity: u64,
    /// Whether the poller registration currently asks for writability.
    want_write: bool,
    /// Close once `wbuf` is drained (EOF seen, or `Shutdown` served).
    closing: bool,
}

impl Conn {
    fn pending(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// Reads a readable connection until `WouldBlock`, EOF or error, feeding
/// every read to the connection's [`LineReader`].
fn pump_reads(service: &Service, conn: &mut Conn, handled: &mut usize) -> Flow {
    let mut buf = [0u8; 8192];
    loop {
        let read = match conn.stream.read(&mut buf) {
            Ok(0) => None,
            Ok(n) => Some(&buf[..n]),
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Flow::Continue,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            // A transport error tears the connection down like a drop.
            Err(_) => return Flow::CloseNow,
        };
        let flow = conn.reader.push(service, read, &mut conn.wbuf, handled);
        if flow != Flow::Continue {
            return flow;
        }
    }
}

/// Writes as much queued output as the socket will take.
/// `Ok(true)` means fully drained.
fn flush_conn(conn: &mut Conn) -> io::Result<bool> {
    while conn.pending() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    Ok(true)
}

/// One event-loop thread. Reactor 0 additionally owns the listener and
/// distributes accepted connections round-robin across all reactors.
struct Reactor {
    index: usize,
    service: Arc<Service>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: BTreeMap<usize, Conn>,
    next_token: usize,
    /// Streams dealt to this reactor by reactor 0, pending adoption.
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    /// Every reactor's inbox, indexed like `wakers` (used by reactor 0).
    inboxes: Arc<Vec<Arc<Mutex<Vec<TcpStream>>>>>,
    /// Every reactor's waker, `wakers[index]` being this reactor's own.
    wakers: Arc<Vec<Waker>>,
    accepted: Arc<AtomicUsize>,
    /// The first failed journal flush, shared by every reactor: once set,
    /// all of them stop without delivering another reply.
    failure: Arc<Mutex<Option<io::Error>>>,
    /// Round-robin deal cursor (reactor 0 only).
    deal: usize,
}

impl Reactor {
    /// Registers a fresh connection on this reactor's poller.
    fn adopt(&mut self, stream: TcpStream, now: u64) {
        let token = self.next_token;
        // Registration makes the socket non-blocking as a side effect —
        // the only sanctioned path to O_NONBLOCK outside vendor/polling.
        if self
            .poller
            .register(&stream, token, Interest::READABLE)
            .is_err()
        {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn {
                stream,
                reader: LineReader::new(self.service.max_line_bytes()),
                wbuf: Vec::new(),
                wpos: 0,
                last_activity: now,
                want_write: false,
                closing: false,
            },
        );
    }

    fn drain_inbox(&mut self, now: u64) {
        let streams: Vec<TcpStream> = std::mem::take(&mut *lock(&self.inbox));
        for stream in streams {
            self.adopt(stream, now);
        }
    }

    /// Accepts every pending connection (reactor 0), dealing them
    /// round-robin: ours are adopted directly, peers get an inbox push
    /// and a wake.
    fn accept_all(&mut self, now: u64) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accepted.fetch_add(1, Ordering::Relaxed);
                    let target = self.deal % self.inboxes.len();
                    self.deal = self.deal.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream, now);
                    } else {
                        lock(&self.inboxes[target]).push(stream);
                        self.wakers[target].wake();
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    // Transient failure (ECONNABORTED, fd pressure, …):
                    // log and back off briefly so a persistent error
                    // cannot spin the loop hot, then let the next
                    // readiness round retry.
                    eprintln!("crowdfusion-serve: accept failed (retrying): {err}");
                    thread::sleep(Duration::from_millis(50));
                    return;
                }
            }
        }
    }

    /// Closes a connection: deregister, then shut the socket down so the
    /// peer sees EOF immediately (clones elsewhere cannot hold it open).
    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// How long the next wait may park: bounded by the nearest read
    /// deadline when one is configured.
    fn wait_timeout(&self, now: u64) -> Duration {
        let mut ms = IDLE_POLL_MS;
        if let Some(limit) = self.service.read_deadline_ms() {
            for conn in self.conns.values() {
                let age = now.saturating_sub(conn.last_activity);
                ms = ms.min(limit.saturating_sub(age).max(1));
            }
        }
        Duration::from_millis(ms)
    }

    /// Flush pass: pushes queued replies out, retires fully-drained
    /// closing connections, and keeps poller interest in sync with
    /// whether output is still pending.
    fn flush_pass(&mut self) {
        let mut closes: Vec<usize> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if conn.pending() {
                match flush_conn(conn) {
                    Ok(_) => {}
                    Err(_) => {
                        closes.push(token);
                        continue;
                    }
                }
            }
            if conn.closing && !conn.pending() {
                closes.push(token);
                continue;
            }
            let want = conn.pending();
            if want != conn.want_write {
                let interest = if want {
                    Interest::BOTH
                } else {
                    Interest::READABLE
                };
                if self
                    .poller
                    .reregister(&conn.stream, token, interest)
                    .is_ok()
                {
                    conn.want_write = want;
                } else {
                    closes.push(token);
                }
            }
        }
        for token in closes {
            self.close_conn(token);
        }
    }

    /// Closes every connection that has outlived the read deadline. Its
    /// sessions stay — TTL eviction owns their lifetime, not the socket.
    fn sweep_deadlines(&mut self) {
        let Some(limit) = self.service.read_deadline_ms() else {
            return;
        };
        let now = self.service.clock().now_ms();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| now.saturating_sub(conn.last_activity) > limit)
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.close_conn(token);
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut round: Vec<Event> = Vec::new();
        loop {
            let now = self.service.clock().now_ms();
            let timeout = Some(self.wait_timeout(now));
            if let Err(err) = self.poller.wait(&mut events, timeout) {
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                eprintln!(
                    "crowdfusion-serve: reactor {} poll failed: {err}",
                    self.index
                );
                break;
            }
            round.clear();
            round.extend(events.iter().copied());
            let now = self.service.clock().now_ms();
            let mut handled = 0usize;
            for event in &round {
                match event.token {
                    TOKEN_LISTENER => self.accept_all(now),
                    TOKEN_WAKER => {
                        self.wakers[self.index].clear();
                        self.drain_inbox(now);
                    }
                    token => {
                        if !event.readable {
                            continue; // writable-only: the flush pass covers it
                        }
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue; // closed earlier this round
                        };
                        conn.last_activity = now;
                        match pump_reads(&self.service, conn, &mut handled) {
                            Flow::Continue => {}
                            Flow::CloseNow => self.close_conn(token),
                            Flow::FlushThenClose => conn.closing = true,
                        }
                    }
                }
            }
            // Group commit: one sync covers every effect this batch
            // journalled, before any of its replies reaches a socket. A
            // failed sync may have lost those effects, so nothing of the
            // batch is acknowledged: every reactor stops.
            if handled > 0 {
                if let Err(err) = self.service.flush_wal() {
                    lock(&self.failure).get_or_insert(err);
                    for waker in self.wakers.iter() {
                        waker.wake();
                    }
                }
            }
            if lock(&self.failure).is_some() {
                break;
            }
            self.flush_pass();
            self.sweep_deadlines();
            if self.service.shutdown_requested() {
                // Wake the other reactors so they observe the flag.
                for waker in self.wakers.iter() {
                    waker.wake();
                }
                break;
            }
        }
        // Final drain: push out whatever queued (the `Bye`, typically) —
        // unless a journal flush failed — then close everything so idle
        // clients see EOF immediately.
        let failed = lock(&self.failure).is_some();
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if !failed {
                if let Some(conn) = self.conns.get_mut(&token) {
                    let _ = flush_conn(conn);
                }
            }
            self.close_conn(token);
        }
    }
}

/// Serves the daemon over TCP until a `Shutdown` request arrives.
/// Returns the number of connections accepted, or the error of the first
/// failed group-commit flush: that stops every reactor and closes every
/// connection without delivering another reply.
///
/// The daemon is long-lived, so the serving layer must neither leak nor
/// die: connections live as small buffered state machines on a fixed
/// pool of reactor event loops (resource use is bounded by *concurrent*
/// connections and reactor count, not lifetime totals), and a transient
/// `accept` failure (`ECONNABORTED`, fd pressure, …) is logged and
/// retried instead of tearing down every in-memory session. On shutdown
/// every still-open connection is flushed and closed, so idle clients
/// cannot keep the daemon alive.
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> io::Result<usize> {
    let reactor_count = service.threads().clamp(1, MAX_REACTORS);
    let accepted = Arc::new(AtomicUsize::new(0));
    let failure = Arc::new(Mutex::new(None));
    let mut pollers = Vec::with_capacity(reactor_count);
    let mut wakers = Vec::with_capacity(reactor_count);
    let mut inboxes = Vec::with_capacity(reactor_count);
    for _ in 0..reactor_count {
        let mut poller = Poller::new()?;
        wakers.push(Waker::new(&mut poller, TOKEN_WAKER)?);
        pollers.push(poller);
        inboxes.push(Arc::new(Mutex::new(Vec::new())));
    }
    pollers[0].register(&listener, TOKEN_LISTENER, Interest::READABLE)?;
    let wakers = Arc::new(wakers);
    let inboxes = Arc::new(inboxes);
    let mut listener = Some(listener);
    let mut handles = Vec::with_capacity(reactor_count);
    for (index, poller) in pollers.into_iter().enumerate() {
        let reactor = Reactor {
            index,
            service: Arc::clone(&service),
            poller,
            listener: if index == 0 { listener.take() } else { None },
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
            inbox: Arc::clone(&inboxes[index]),
            inboxes: Arc::clone(&inboxes),
            wakers: Arc::clone(&wakers),
            accepted: Arc::clone(&accepted),
            failure: Arc::clone(&failure),
            deal: 0,
        };
        // analyze: allow(adhoc-thread) — reactor threads are connection
        // plumbing, not computation: refinement work inside a session
        // still runs on the session's pool, so traces stay
        // schedule-independent.
        handles.push(thread::spawn(move || reactor.run()));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let failure = lock(&failure).take();
    failure.map_or_else(|| Ok(accepted.load(Ordering::Relaxed)), Err)
}

/// Retry tuning for [`Client::roundtrip_retrying`]: deterministic capped
/// exponential backoff — delay before attempt `n` (0-based) is
/// `min(base_ms << n, cap_ms)`. No jitter: the daemon serialises writes
/// behind one lock, so retry storms do not compound, and determinism is
/// worth more to the test matrix than desynchronisation.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). Minimum 1.
    pub attempts: u32,
    /// Backoff base in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base_ms: 10,
            cap_ms: 500,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (0-based; attempt 0 never
    /// waits).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        // 128-bit intermediate: `u64 << n` silently wraps for large n
        // (checked_shl only rejects the shift count, not value overflow).
        let raw = (self.base_ms as u128) << (attempt - 1).min(64);
        raw.min(self.cap_ms as u128) as u64
    }
}

/// Whether a transport error is worth a reconnect-and-retry: the kinds a
/// dropped connection or expired deadline produce. Anything else (say,
/// a malformed response) is a real bug and surfaces immediately.
fn is_retryable(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// A line-oriented TCP client for the daemon — what `loadgen`, the CI
/// smoke test and ad-hoc drivers use.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr,
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Drops the current connection and dials the daemon again.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Sends one request line and reads one response line.
    pub fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        let line = crate::protocol::encode(request);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        crate::protocol::decode(reply.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Negotiates the wire version up front. Returns the daemon's
    /// supported `(min, max)` range on success; an
    /// `UnsupportedVersion` refusal surfaces as `InvalidData`.
    pub fn hello(&mut self) -> io::Result<(u64, u64)> {
        match self.roundtrip(&Request::Hello {
            v: crate::protocol::WIRE_VERSION_MAX,
        })? {
            Response::Welcome { min, max, .. } => Ok((min, max)),
            Response::UnsupportedVersion { min, max, .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon speaks wire versions {min}..={max}"),
            )),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens sessions for `specs`, returning typed ids. The options
    /// carry the idempotency token and per-session overrides.
    pub fn open_all(
        &mut self,
        specs: Vec<crowdfusion_core::session::EntitySpec>,
        options: OpenOptions,
    ) -> io::Result<Vec<crowdfusion_core::session::OpenedSession>> {
        match self.roundtrip(&Request::Open {
            request: options.request,
            entities: specs,
            k: options.k,
            budget: options.budget,
            pc: options.pc,
        })? {
            Response::Opened { sessions } => Ok(sessions),
            Response::Error { message } => Err(protocol_error(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens one session and returns its typed handle — the entry into
    /// the `client.open(..)?.select()?` chain.
    pub fn open(
        &mut self,
        spec: crowdfusion_core::session::EntitySpec,
        options: OpenOptions,
    ) -> io::Result<Session<'_>> {
        let opened = self.open_all(vec![spec], options)?;
        let id = opened
            .first()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "daemon opened no session"))?
            .session;
        Ok(Session { client: self, id })
    }

    /// A typed handle onto an already-open session id (e.g. one of an
    /// [`Client::open_all`] batch, or a session another client opened).
    pub fn session(&mut self, id: u64) -> Session<'_> {
        Session { client: self, id }
    }

    /// [`Client::roundtrip`] under at-least-once delivery: on a dropped
    /// connection or expired deadline, reconnects and resends after the
    /// policy's capped backoff. Only safe for requests that are
    /// idempotent on redelivery — reads, `Select` on an open round,
    /// `Absorb` (session-level dedup absorbs the repeat), and `Open`
    /// carrying an idempotency token. A caller retrying a token-less
    /// `Open` gets duplicate sessions, by design.
    pub fn roundtrip_retrying(
        &mut self,
        request: &Request,
        policy: RetryPolicy,
    ) -> io::Result<Response> {
        let attempts = policy.attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            let delay = policy.delay_ms(attempt);
            if delay > 0 {
                thread::sleep(Duration::from_millis(delay));
            }
            if last.is_some() {
                // The old connection is dead; a failed redial counts as
                // this attempt's failure and backs off again.
                if let Err(err) = self.reconnect() {
                    last = Some(err);
                    continue;
                }
            }
            match self.roundtrip(request) {
                Ok(response) => return Ok(response),
                Err(err) if is_retryable(&err) && attempt + 1 < attempts => {
                    last = Some(err);
                }
                Err(err) => return Err(err),
            }
        }
        Err(last.expect("retry loop exits early unless every attempt failed"))
    }
}

/// A daemon error response surfaced through the typed client API.
fn protocol_error(message: String) -> io::Error {
    io::Error::other(message)
}

/// A response of the wrong shape — a daemon bug or a framing mix-up,
/// never retried.
fn unexpected(response: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response {response:?}"),
    )
}

/// Per-open options for the typed client API: the idempotency token and
/// the per-session overrides the wire `Open` carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    /// Idempotency token for at-least-once delivery.
    pub request: Option<u64>,
    /// Tasks-per-round override.
    pub k: Option<usize>,
    /// Budget override.
    pub budget: Option<usize>,
    /// Crowd-accuracy override.
    pub pc: Option<f64>,
}

impl OpenOptions {
    /// Sets the idempotency token.
    pub fn request(mut self, token: u64) -> Self {
        self.request = Some(token);
        self
    }
}

/// What a typed `select` produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Selected {
    /// An open round: answer these tasks via [`Session::absorb`].
    Round {
        /// 1-based round number the round will close as.
        round: usize,
        /// Published tasks in selection order.
        tasks: Vec<crowdfusion_core::session::PublishedTask>,
    },
    /// The session stopped selecting for good.
    Exhausted {
        /// Rounds closed over the session's lifetime.
        rounds: usize,
        /// Judgments spent.
        spent: usize,
    },
}

/// One `absorb` call's ingestion report, typed.
#[derive(Debug, Clone, PartialEq)]
pub struct Absorbed {
    /// Answers applied.
    pub accepted: usize,
    /// Duplicates / late answers dropped.
    pub duplicates: usize,
    /// Open-round answers still outstanding.
    pub pending: usize,
    /// The closed round's record when this call completed the round.
    pub closed: Option<crowdfusion_core::round::RoundPoint>,
}

/// A typed handle on one daemon session: the session id plus the client
/// connection, so the open → select → absorb loop reads as method calls
/// instead of hand-built `Request` values.
pub struct Session<'c> {
    client: &'c mut Client,
    id: u64,
}

impl Session<'_> {
    /// The daemon-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Returns the open round (idempotent) or selects the next one.
    pub fn select(&mut self) -> io::Result<Selected> {
        match self
            .client
            .roundtrip(&Request::Select { session: self.id })?
        {
            Response::Round { round, tasks, .. } => Ok(Selected::Round { round, tasks }),
            Response::Exhausted { rounds, spent, .. } => Ok(Selected::Exhausted { rounds, spent }),
            Response::Error { message } => Err(protocol_error(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams crowd answers into the open round.
    pub fn absorb(&mut self, answers: &[(u64, bool)]) -> io::Result<Absorbed> {
        let answers = answers
            .iter()
            .map(|&(task, value)| crate::protocol::WireAnswer { task, value })
            .collect();
        match self.client.roundtrip(&Request::Absorb {
            session: self.id,
            answers,
        })? {
            Response::Absorbed {
                accepted,
                duplicates,
                pending,
                closed,
                ..
            } => Ok(Absorbed {
                accepted,
                duplicates,
                pending,
                closed,
            }),
            Response::Error { message } => Err(protocol_error(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// Per-session bookkeeping, raw (the full wire `Status` payload).
    pub fn status(&mut self) -> io::Result<Response> {
        match self
            .client
            .roundtrip(&Request::Status { session: self.id })?
        {
            status @ Response::Status { .. } => Ok(status),
            Response::Error { message } => Err(protocol_error(message)),
            other => Err(unexpected(&other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::service::{SelectorChoice, ServiceConfig};
    use crowdfusion_core::round::RoundConfig;

    fn service_one() -> Service {
        Service::new(ServiceConfig::new(
            1,
            RoundConfig::new(2, 4, 0.8).unwrap(),
            1,
            SelectorChoice::Random,
        ))
        .unwrap()
    }

    fn run_lines(service: &Service, input: &[u8]) -> Vec<String> {
        let mut output = Vec::new();
        serve_stdio(service, input, &mut output).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn stdio_loop_answers_line_per_line_and_stops_on_shutdown() {
        let service = service_one();
        let input = format!(
            "{}\n\n{}\n{}\n{}\n",
            crate::protocol::encode(&Request::Metrics),
            crate::protocol::encode(&Request::Shutdown),
            // Never reached: the loop stops after Bye.
            crate::protocol::encode(&Request::Metrics),
            crate::protocol::encode(&Request::Metrics),
        );
        let lines = run_lines(&service, input.as_bytes());
        assert_eq!(lines.len(), 2, "metrics + bye, then stop: {lines:?}");
        assert_eq!(
            crate::protocol::decode::<Response>(&lines[1]).unwrap(),
            Response::Bye
        );
    }

    #[test]
    fn oversized_lines_get_an_error_and_the_connection_survives() {
        let mut config = ServiceConfig::new(
            1,
            RoundConfig::new(2, 4, 0.8).unwrap(),
            1,
            SelectorChoice::Random,
        );
        config.max_line_bytes = 64;
        let service = Service::new(config).unwrap();
        // A line far past the cap (and past any single fill_buf chunk),
        // followed by a legitimate request on the SAME stream.
        let mut input = vec![b'x'; 1 << 16];
        input.push(b'\n');
        input.extend_from_slice(crate::protocol::encode(&Request::Metrics).as_bytes());
        input.push(b'\n');
        let lines = run_lines(&service, &input);
        assert_eq!(lines.len(), 2);
        let Response::Error { message } = crate::protocol::decode::<Response>(&lines[0]).unwrap()
        else {
            panic!("oversized line must answer with an error: {lines:?}");
        };
        assert!(message.contains("64-byte"), "got {message:?}");
        assert!(matches!(
            crate::protocol::decode::<Response>(&lines[1]).unwrap(),
            Response::Metrics { .. }
        ));
    }

    #[test]
    fn oversized_line_exactly_at_the_cap_boundary_is_kept() {
        let mut config = ServiceConfig::new(
            1,
            RoundConfig::new(2, 4, 0.8).unwrap(),
            1,
            SelectorChoice::Random,
        );
        let probe = crate::protocol::encode(&Request::Metrics);
        config.max_line_bytes = probe.len();
        let service = Service::new(config).unwrap();
        // Exactly at the cap: allowed. One byte over: rejected.
        let input = format!("{probe}\n {probe}\n");
        let lines = run_lines(&service, input.as_bytes());
        assert_eq!(lines.len(), 2);
        assert!(matches!(
            crate::protocol::decode::<Response>(&lines[0]).unwrap(),
            Response::Metrics { .. }
        ));
        assert!(matches!(
            crate::protocol::decode::<Response>(&lines[1]).unwrap(),
            Response::Error { .. }
        ));
    }

    #[test]
    fn invalid_utf8_gets_an_error_not_a_disconnect() {
        let service = service_one();
        let mut input = vec![0xff, 0xfe, b'{', 0x80];
        input.push(b'\n');
        input.extend_from_slice(crate::protocol::encode(&Request::Metrics).as_bytes());
        input.push(b'\n');
        let lines = run_lines(&service, &input);
        assert_eq!(lines.len(), 2);
        let Response::Error { message } = crate::protocol::decode::<Response>(&lines[0]).unwrap()
        else {
            panic!("binary junk must answer with an error");
        };
        assert!(message.contains("UTF-8"));
        assert!(matches!(
            crate::protocol::decode::<Response>(&lines[1]).unwrap(),
            Response::Metrics { .. }
        ));
    }

    #[test]
    fn unterminated_final_line_still_answers() {
        let service = service_one();
        let lines = run_lines(
            &service,
            crate::protocol::encode(&Request::Metrics).as_bytes(),
        );
        assert_eq!(lines.len(), 1);
        assert!(matches!(
            crate::protocol::decode::<Response>(&lines[0]).unwrap(),
            Response::Metrics { .. }
        ));
    }

    #[test]
    fn stdio_group_commit_syncs_before_it_replies() {
        // A group-committed batch is acknowledged only once its sync
        // lands: a crash in that sync ends the loop with nothing written.
        let dir = std::env::temp_dir().join(format!(
            "crowdfusion-server-group-commit-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServiceConfig::new(
            1,
            RoundConfig::new(2, 4, 0.8).unwrap(),
            1,
            SelectorChoice::Random,
        );
        let mut durability = crate::durable::DurabilityConfig::new(&dir);
        durability.group_commit = true;
        config.durability = Some(durability);
        config.faults =
            crate::fault::FaultPlan::none().on(FaultPoint::JournalSync, 1, FaultAction::Crash);
        let service = Service::new(config).unwrap();
        let open = crate::protocol::encode(&Request::Open {
            request: None,
            entities: vec![crowdfusion_core::session::EntitySpec::simple(
                "t",
                vec![0.4, 0.7],
                vec![true, false],
            )],
            k: None,
            budget: None,
            pc: None,
        });
        let mut output = Vec::new();
        let err = serve_stdio(&service, format!("{open}\n").as_bytes(), &mut output).unwrap_err();
        assert_eq!(
            crate::fault::as_simulated_crash(&err).map(|crash| crash.point),
            Some(FaultPoint::JournalSync)
        );
        assert!(output.is_empty(), "replied before the sync: {output:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_policy_backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            attempts: 8,
            base_ms: 10,
            cap_ms: 70,
        };
        let delays: Vec<u64> = (0..6).map(|a| policy.delay_ms(a)).collect();
        assert_eq!(delays, vec![0, 10, 20, 40, 70, 70]);
        // Huge attempt numbers saturate instead of overflowing.
        assert_eq!(policy.delay_ms(200), 70);
    }

    #[test]
    fn retryable_kinds_are_the_connection_failures() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(is_retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
        for kind in [io::ErrorKind::InvalidData, io::ErrorKind::NotFound] {
            assert!(!is_retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
    }
}
