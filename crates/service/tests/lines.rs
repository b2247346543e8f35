//! The line contract, fuzzed over arbitrary read splits. Scripts mix
//! well-formed requests (bare and enveloped), malformed JSON, blank
//! lines, lines at and one byte past the cap, lines several KiB long,
//! invalid UTF-8, an optional `Shutdown` and an optional unterminated
//! final line. Each script is cut into random chunks and must get the
//! same replies over stdio and over TCP as a fresh service fed one
//! `\n`-split segment at a time.

use crowdfusion_core::round::RoundConfig;
use crowdfusion_core::session::EntitySpec;
use crowdfusion_service::protocol::{encode, Request, Response};
use crowdfusion_service::service::{SelectorChoice, ServiceConfig};
use crowdfusion_service::{serve_stdio, serve_tcp, Client, Service};
use proptest::prelude::*;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const MAX_LINE: usize = 128;

fn config() -> ServiceConfig {
    let mut config = ServiceConfig::new(
        11,
        RoundConfig::new(2, 4, 0.8).unwrap(),
        1,
        SelectorChoice::Random,
    );
    config.max_line_bytes = MAX_LINE;
    config
}

/// One script line of kind `kind`; `arg` picks the session, the length
/// or the bytes within the kind.
fn script_line(kind: usize, arg: usize) -> Vec<u8> {
    let session = (arg % 3) as u64;
    let request = match kind % 4 {
        0 => Request::Metrics,
        1 => Request::Status { session },
        2 => Request::Select { session },
        _ => Request::Open {
            request: None,
            entities: vec![EntitySpec::simple("t", vec![0.4, 0.7], vec![true, false])],
            k: None,
            budget: None,
            pc: None,
        },
    };
    match kind {
        0..=3 => encode(&request).into_bytes(),
        4..=7 => format!("{{\"v\": 1, \"body\": {}}}", encode(&request)).into_bytes(),
        8 => [&b"{not json"[..], b"{\"Select\": {\"session\": ", b"[1, 2"][arg % 3].to_vec(),
        9 => Vec::new(),
        10 => b" \t  "[..1 + arg % 4].to_vec(),
        // A request padded to exactly the cap, or one byte past it.
        11 | 12 => {
            let width = MAX_LINE + (kind - 11);
            format!("{:>width$}", encode(&Request::Metrics)).into_bytes()
        }
        13 => vec![b'x'; 1024 + arg % 5000],
        _ => vec![0xff, 0xfe, b'{', 0x80 | (arg % 64) as u8],
    }
}

/// The oracle: a fresh service fed each `\n`-split segment on its own.
fn oracle(script: &[u8]) -> Vec<u8> {
    let service = Service::new(config()).unwrap();
    let mut out = Vec::new();
    for segment in script.split(|&b| b == b'\n') {
        let reply = if segment.len() > MAX_LINE {
            encode(&Response::Error {
                message: format!("protocol line exceeds the {MAX_LINE}-byte limit"),
            })
        } else {
            match std::str::from_utf8(segment) {
                Err(_) => encode(&Response::Error {
                    message: "protocol line is not valid UTF-8".to_string(),
                }),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => service.handle_line(line),
            }
        };
        out.extend_from_slice(reply.as_bytes());
        out.push(b'\n');
        if service.shutdown_requested() {
            break;
        }
    }
    out
}

/// Cuts `script` into chunks of 1 byte up to the whole script, sized by
/// a xorshift stream from `seed`.
fn chunks(script: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let longest = match next() % 4 {
        0 => 3,
        1 => 64,
        2 => script.len(),
        _ => usize::MAX,
    };
    let mut out = Vec::new();
    let mut rest = script;
    while !rest.is_empty() {
        let take = if longest == usize::MAX {
            rest.len()
        } else {
            1 + next() % longest.min(rest.len())
        };
        out.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    out
}

/// A reader that yields exactly the given chunks, one per `fill_buf`.
struct Chunked {
    chunks: Vec<Vec<u8>>,
    next: usize,
    pos: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Chunked {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.next < self.chunks.len() && self.pos == self.chunks[self.next].len() {
            self.next += 1;
            self.pos = 0;
        }
        Ok(match self.chunks.get(self.next) {
            Some(chunk) => &chunk[self.pos..],
            None => &[],
        })
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

fn over_stdio(chunks: Vec<Vec<u8>>) -> Vec<u8> {
    let service = Service::new(config()).unwrap();
    let input = Chunked {
        chunks,
        next: 0,
        pos: 0,
    };
    let mut output = Vec::new();
    serve_stdio(&service, input, &mut output).unwrap();
    output
}

fn over_tcp(chunks: &[Vec<u8>]) -> Vec<u8> {
    let service = Arc::new(Service::new(config()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_tcp(service, listener))
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for chunk in chunks {
        // After `Bye` the daemon closes; the rest of the script is moot.
        if stream.write_all(chunk).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => replies.extend_from_slice(&buf[..n]),
            // Unread bytes at the daemon's close turn its FIN into a reset.
            Err(err) if err.kind() == io::ErrorKind::ConnectionReset => break,
            Err(err) => panic!("reading the replies failed: {err}"),
        }
    }
    if !service.shutdown_requested() {
        let mut stop = Client::connect(addr).unwrap();
        assert_eq!(stop.roundtrip(&Request::Shutdown).unwrap(), Response::Bye);
    }
    daemon.join().unwrap().unwrap();
    replies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stdio_and_tcp_answer_every_split_like_the_line_oracle(
        lines in proptest::collection::vec((0usize..15, 0usize..10_000), 1..14),
        // Past the last line (about half the cases): no `Shutdown`.
        shutdown_at in 0usize..28,
        newline_at_end in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut script = Vec::new();
        for (at, &(kind, arg)) in lines.iter().enumerate() {
            if shutdown_at == at {
                script.extend_from_slice(encode(&Request::Shutdown).as_bytes());
                script.push(b'\n');
            }
            script.extend_from_slice(&script_line(kind, arg));
            script.push(b'\n');
        }
        if !newline_at_end {
            script.pop();
        }
        let expected = oracle(&script);
        let chunks = chunks(&script, seed);
        let stdio = over_stdio(chunks.clone());
        prop_assert_eq!(
            String::from_utf8_lossy(&stdio),
            String::from_utf8_lossy(&expected),
            "stdio, {} chunks",
            chunks.len()
        );
        let tcp = over_tcp(&chunks);
        prop_assert_eq!(
            String::from_utf8_lossy(&tcp),
            String::from_utf8_lossy(&expected),
            "tcp, {} chunks",
            chunks.len()
        );
    }
}
