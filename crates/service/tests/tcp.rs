//! TCP transport smoke: a daemon on a loopback socket serves multiple
//! concurrent connections, survives injected connection drops via the
//! client's retry layer, enforces read deadlines, and stops cleanly on
//! `Shutdown`.

use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::session::EntitySpec;
use crowdfusion_service::protocol::{Request, Response};
use crowdfusion_service::service::{SelectorChoice, ServiceConfig};
use crowdfusion_service::{
    serve_tcp, Client, FaultAction, FaultPlan, FaultPoint, OpenOptions, RetryPolicy, Selected,
    Service,
};
use std::net::TcpListener;
use std::sync::Arc;

fn config() -> ServiceConfig {
    ServiceConfig::new(
        5,
        RoundConfig::new(2, 4, 0.8).unwrap(),
        2,
        SelectorChoice::Random,
    )
}

fn spawn_daemon(
    service: Arc<Service>,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<usize>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || serve_tcp(service, listener));
    (addr, daemon)
}

fn spec() -> EntitySpec {
    EntitySpec::simple("t", vec![0.4, 0.7], vec![true, false])
}

#[test]
fn tcp_daemon_serves_concurrent_clients_and_shuts_down() {
    let service = Arc::new(Service::new(config()).unwrap());
    let (addr, daemon) = spawn_daemon(service);

    // Client 1 opens a session and drives one round — the typed
    // `open → select → absorb` chain, after a version handshake.
    let mut one = Client::connect(addr).unwrap();
    assert_eq!(one.hello().unwrap(), (1, 1));
    let mut session = one.open(spec(), OpenOptions::default()).unwrap();
    let id = session.id();
    let Selected::Round { tasks, .. } = session.select().unwrap() else {
        panic!("select failed");
    };

    // Client 2, concurrently connected, absorbs the round — sessions are
    // shared daemon state, not per-connection state.
    let mut two = Client::connect(addr).unwrap();
    let answers: Vec<(u64, bool)> = tasks.iter().map(|t| (t.id, true)).collect();
    let report = two.session(id).absorb(&answers).unwrap();
    assert_eq!(report.pending, 0);

    // Client 1 sees the absorbed round.
    let Response::Status { rounds, spent, .. } = one.session(id).status().unwrap() else {
        panic!("status failed");
    };
    assert_eq!((rounds, spent), (1, 2));

    // Shutdown stops the daemon; the serve thread joins.
    assert_eq!(two.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
    let accepted = daemon.join().unwrap().unwrap();
    assert!(accepted >= 2, "both clients accepted, got {accepted}");
}

#[test]
fn client_retry_rides_out_injected_connection_drops() {
    // The daemon drops the connection on the 2nd and 3rd line reads; the
    // retrying client reconnects and redelivers. The redelivered requests
    // are all idempotent (a token-carrying Open, then a Select on the
    // resulting open round), so the session ends up exactly once.
    let mut config = config();
    config.faults = FaultPlan::none()
        .on(FaultPoint::ConnectionRead, 2, FaultAction::Drop)
        .on(FaultPoint::ConnectionRead, 3, FaultAction::Drop);
    let service = Arc::new(Service::new(config).unwrap());
    let (addr, daemon) = spawn_daemon(Arc::clone(&service));
    let policy = RetryPolicy {
        attempts: 5,
        base_ms: 1,
        cap_ms: 5,
    };

    let mut client = Client::connect(addr).unwrap();
    let open = Request::Open {
        request: Some(77),
        entities: vec![spec()],
        k: None,
        budget: None,
        pc: None,
    };
    let Response::Opened { sessions } = client.roundtrip_retrying(&open, policy).unwrap() else {
        panic!("open failed");
    };
    let id = sessions[0].session;
    // This roundtrip eats both drops (each drop costs one reconnect).
    let Response::Round { tasks, .. } = client
        .roundtrip_retrying(&Request::Select { session: id }, policy)
        .unwrap()
    else {
        panic!("select failed");
    };
    assert_eq!(tasks.len(), 2);
    // Exactly one session exists despite the redeliveries.
    let Response::Metrics { metrics } = client
        .roundtrip_retrying(&Request::Metrics, policy)
        .unwrap()
    else {
        panic!("metrics failed");
    };
    assert_eq!(metrics.sessions, 1);
    assert_eq!(service.fault_plan().fired(), 2, "both drops must fire");

    assert_eq!(
        client
            .roundtrip_retrying(&Request::Shutdown, policy)
            .unwrap(),
        Response::Bye
    );
    daemon.join().unwrap().unwrap();
}

#[test]
fn silent_connections_are_closed_at_the_read_deadline() {
    let mut config = config();
    config.read_deadline_ms = Some(50);
    let service = Arc::new(Service::new(config).unwrap());
    let (addr, daemon) = spawn_daemon(service);

    // A client that connects and never speaks: the daemon hangs up.
    let mut silent = Client::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let err = silent.roundtrip(&Request::Metrics).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::BrokenPipe
        ),
        "expected a closed connection, got {err:?}"
    );

    // A fresh, prompt connection is served normally.
    let mut prompt = Client::connect(addr).unwrap();
    assert!(matches!(
        prompt.roundtrip(&Request::Metrics).unwrap(),
        Response::Metrics { .. }
    ));
    assert_eq!(prompt.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join().unwrap().unwrap();
}

#[test]
fn mid_line_silence_is_reaped_at_the_deadline() {
    // A peer that trickles half a request and stalls must not park a
    // reactor slot forever: the loop's timer sweeps it at the deadline
    // exactly like a peer that never spoke, and the partial line is
    // discarded unanswered.
    use std::io::{Read, Write};

    let mut config = config();
    config.read_deadline_ms = Some(50);
    let service = Arc::new(Service::new(config).unwrap());
    let (addr, daemon) = spawn_daemon(service);

    let mut stalled = std::net::TcpStream::connect(addr).unwrap();
    stalled.write_all(b"{\"Metr").unwrap(); // no terminating newline
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut buf = [0u8; 64];
    match stalled.read(&mut buf) {
        Ok(0) => {} // clean EOF: the daemon hung up without replying
        Ok(n) => panic!("daemon answered a partial line with {:?}", &buf[..n]),
        Err(err) => assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "expected a closed connection, got {err:?}"
        ),
    }

    let mut prompt = Client::connect(addr).unwrap();
    assert_eq!(prompt.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join().unwrap().unwrap();
}

#[test]
fn nothing_behind_shutdown_in_the_same_read_is_answered() {
    // One write carries `Shutdown` and two more requests. The daemon
    // answers `Bye` and stops there: the `Open` behind it is neither
    // answered nor applied after the final snapshot.
    use crowdfusion_service::protocol::encode;
    use std::io::{Read, Write};

    let service = Arc::new(Service::new(config()).unwrap());
    let (addr, daemon) = spawn_daemon(Arc::clone(&service));
    let open = Request::Open {
        request: None,
        entities: vec![spec()],
        k: None,
        budget: None,
        pc: None,
    };
    let script = format!(
        "{}\n{}\n{}\n",
        encode(&Request::Shutdown),
        encode(&open),
        encode(&Request::Metrics)
    );
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(script.as_bytes()).unwrap();
    let mut replies = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&buf[..n]),
            // Unread bytes at the daemon's close turn its FIN into a reset.
            Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(err) => panic!("reading the replies failed: {err}"),
        }
    }
    daemon.join().unwrap().unwrap();
    assert_eq!(
        String::from_utf8(replies).unwrap(),
        format!("{}\n", encode(&Response::Bye))
    );
    let Response::Metrics { metrics } = service.handle(Request::Metrics) else {
        panic!("metrics failed");
    };
    assert_eq!(metrics.sessions, 0);
}

#[test]
fn shutdown_closes_every_connection_socket() {
    // PR 7's handler-exit contract, re-verified on the event loop: when
    // the daemon stops, every live socket gets a transport-level
    // shutdown, so an idle peer observes EOF promptly instead of
    // blocking on a dead connection.
    use std::io::Read;

    let service = Arc::new(Service::new(config()).unwrap());
    let (addr, daemon) = spawn_daemon(service);

    // An idle bystander connection, and a second client that stops the
    // daemon.
    let mut idle = std::net::TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut driver = Client::connect(addr).unwrap();
    assert_eq!(driver.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
    daemon.join().unwrap().unwrap();

    // The bystander's read resolves (EOF or reset) rather than hanging
    // until its own timeout: the daemon shut the socket down on exit.
    let mut buf = [0u8; 16];
    match idle.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected bytes on an idle connection: {:?}", &buf[..n]),
        Err(err) => assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "expected a closed connection, got {err:?}"
        ),
    }
}

#[test]
fn a_failed_group_commit_sync_acknowledges_nothing_and_stops_the_daemon() {
    // The batch carrying one `Open` fails its fsync. The journal may have
    // lost the effect, so the daemon never answers `Opened`: it closes
    // the connection and `serve_tcp` returns the failure instead of
    // serving on over a poisoned journal.
    use crowdfusion_service::fault::as_simulated_crash;
    use crowdfusion_service::protocol::encode;
    use crowdfusion_service::DurabilityConfig;
    use std::io::{Read, Write};

    let dir = std::env::temp_dir().join(format!(
        "crowdfusion-tcp-sync-failure-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = config();
    let mut durability = DurabilityConfig::new(&dir);
    durability.group_commit = true;
    config.durability = Some(durability);
    config.faults = FaultPlan::none().on(FaultPoint::JournalSync, 1, FaultAction::Crash);
    let (addr, daemon) = spawn_daemon(Arc::new(Service::new(config).unwrap()));

    let open = Request::Open {
        request: None,
        entities: vec![spec()],
        k: None,
        budget: None,
        pc: None,
    };
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("{}\n", encode(&open)).as_bytes())
        .unwrap();
    let mut replies = Vec::new();
    stream
        .read_to_end(&mut replies)
        .expect("the daemon closes the connection");
    assert!(
        replies.is_empty(),
        "acknowledged over a failed sync: {}",
        String::from_utf8_lossy(&replies)
    );
    let err = daemon.join().unwrap().unwrap_err();
    assert_eq!(
        as_simulated_crash(&err).map(|crash| crash.point),
        Some(FaultPoint::JournalSync)
    );
    std::fs::remove_dir_all(&dir).ok();
}
