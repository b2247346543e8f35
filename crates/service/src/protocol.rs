//! The `crowdfusion-serve` wire protocol: line-delimited JSON over TCP or
//! stdio.
//!
//! Every request and every response is one JSON document on one line.
//! Verbs mirror the session lifecycle: `open` registers entities (priors
//! built on the pool), `select` returns the next task batch under the
//! session budget, `absorb` streams crowd answers in — partial batches,
//! out of order, duplicates rejected — `snapshot`/`restore` persist the
//! whole daemon, and `status`/`metrics`/`trace` read the bookkeeping out.
//!
//! Encoding follows the vendored serde stand-in's conventions: unit enum
//! variants are their name as a string (`"Metrics"`), struct variants are
//! a single-key object (`{"Select": {"session": 0}}`).
//!
//! # Versioned framing
//!
//! The wire is versioned: a client may wrap any request in an envelope,
//! `{"v": 1, "body": {"Select": {"session": 0}}}`, and the daemon
//! answers in the same envelope. A client may also negotiate up front
//! with [`Request::Hello`] and gets [`Response::Welcome`] naming the
//! agreed version plus the daemon's supported range. An envelope naming
//! a version outside the range gets a structured
//! [`Response::UnsupportedVersion`], never a silent drop.
//!
//! Bare (un-enveloped) lines are the pre-versioning wire format and are
//! accepted as version 1 for one release; their replies are bare too, so
//! byte-for-byte compatibility with old clients is preserved. A
//! top-level `"v"` key is what distinguishes an envelope — bare requests
//! are single-key objects named after a capitalised variant, so the two
//! framings cannot collide.

use crowdfusion_core::round::RoundPoint;
use crowdfusion_core::session::{EntitySpec, OpenedSession, PublishedTask, RegistryMetrics};
use crowdfusion_core::system::ExperimentTrace;
use serde::{Deserialize, Serialize, Value};

/// Oldest wire version this daemon still speaks.
pub const WIRE_VERSION_MIN: u64 = 1;
/// Newest wire version this daemon speaks.
pub const WIRE_VERSION_MAX: u64 = 1;

/// One streamed crowd answer: the published task id and the judgment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireAnswer {
    /// The task id from a `Round` response.
    pub task: u64,
    /// The crowd judgment.
    pub value: bool,
}

/// A client request (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Protocol negotiation: the client names the wire version it wants
    /// to speak; the daemon answers `Welcome` (agreed) or
    /// `UnsupportedVersion` (with the supported range).
    Hello {
        /// The wire version the client proposes.
        v: u64,
    },
    /// Registers entities as new sessions; priors are built in parallel on
    /// the daemon's worker pool. `k`/`budget`/`pc` override the daemon's
    /// per-session defaults when present.
    Open {
        /// Idempotency token for at-least-once delivery: a retried `Open`
        /// carrying the same id returns the original `Opened` response
        /// instead of opening duplicate sessions. `None` opts out (every
        /// call opens fresh sessions, as before this field existed).
        request: Option<u64>,
        /// Wire-format entity specs, one session each.
        entities: Vec<EntitySpec>,
        /// Tasks per round override.
        k: Option<usize>,
        /// Per-session budget override.
        budget: Option<usize>,
        /// Assumed crowd accuracy override.
        pc: Option<f64>,
    },
    /// Returns the session's open round (idempotent) or selects the next
    /// one under its budget.
    Select {
        /// Target session id.
        session: u64,
    },
    /// Streams crowd answers into the session's open round — any subset,
    /// any order; duplicates and late answers are counted and dropped.
    Absorb {
        /// Target session id.
        session: u64,
        /// The answers.
        answers: Vec<WireAnswer>,
    },
    /// Serialises every session (posterior, budget ledger, RNG state, the
    /// open round's partial answers) to a file on the daemon's disk.
    Snapshot {
        /// Destination path.
        path: String,
    },
    /// Replaces the daemon's sessions with a snapshot file's contents.
    Restore {
        /// Source path.
        path: String,
    },
    /// Global budget mode only: admit the highest-marginal-gain idle
    /// session's next round against the shared budget. Answered with
    /// `Round` (the admitted session's tasks), `NoWork` (nothing
    /// schedulable or budget exhausted) or `Error` (per-session daemons
    /// reject the verb).
    Schedule {
        /// Idempotency token for at-least-once delivery: a retried
        /// `Schedule` carrying the same id re-reads the originally
        /// admitted session instead of admitting (and charging) twice.
        request: Option<u64>,
    },
    /// The shared-budget ledger and the scheduler's next pick (aggregate
    /// per-session figures when the scheduler is off).
    BudgetStatus,
    /// Per-session bookkeeping: entropy, rounds, budget spent.
    Status {
        /// Target session id.
        session: u64,
    },
    /// Aggregate bookkeeping over all sessions.
    Metrics,
    /// The registry-wide quality-vs-cost trace (offline-comparable).
    Trace,
    /// Stops the daemon after this response.
    Shutdown,
}

/// A daemon response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Hello` accepted: the connection speaks version `v`.
    Welcome {
        /// The agreed wire version.
        v: u64,
        /// Oldest version the daemon speaks.
        min: u64,
        /// Newest version the daemon speaks.
        max: u64,
    },
    /// The client asked for a wire version the daemon does not speak.
    UnsupportedVersion {
        /// The version the client asked for.
        requested: u64,
        /// Oldest version the daemon speaks.
        min: u64,
        /// Newest version the daemon speaks.
        max: u64,
    },
    /// Sessions opened, in spec order, with their crowd answer seeds.
    Opened {
        /// One summary per opened session.
        sessions: Vec<OpenedSession>,
    },
    /// The session's open round: answer these tasks via `Absorb`.
    Round {
        /// Session id.
        session: u64,
        /// 1-based round number the round will close as.
        round: usize,
        /// Published tasks in selection order.
        tasks: Vec<PublishedTask>,
    },
    /// The session's budget is exhausted (or its selector stopped); no
    /// further rounds will open.
    Exhausted {
        /// Session id.
        session: u64,
        /// Rounds closed over the session's lifetime.
        rounds: usize,
        /// Judgments spent.
        spent: usize,
    },
    /// Ingestion report for one `Absorb` call.
    Absorbed {
        /// Session id.
        session: u64,
        /// Answers applied.
        accepted: usize,
        /// Duplicates / late answers dropped.
        duplicates: usize,
        /// Open-round answers still outstanding.
        pending: usize,
        /// The closed round's record when this call completed the round.
        closed: Option<RoundPoint>,
    },
    /// Snapshot written.
    Snapshotted {
        /// Destination path.
        path: String,
        /// Sessions serialised.
        sessions: u64,
    },
    /// Snapshot loaded; the daemon's sessions were replaced.
    Restored {
        /// Source path.
        path: String,
        /// Sessions restored.
        sessions: u64,
    },
    /// Per-session bookkeeping.
    Status {
        /// Session id.
        session: u64,
        /// Entity name.
        name: String,
        /// Number of facts.
        facts: usize,
        /// Rounds closed.
        rounds: usize,
        /// Judgments spent.
        spent: usize,
        /// Budget remaining.
        remaining: usize,
        /// Open-round answers outstanding (0 when no round is open).
        pending: usize,
        /// Whether the session stopped selecting for good.
        exhausted: bool,
        /// Posterior utility `Q(F)`.
        utility: f64,
        /// Posterior entropy in bits.
        entropy: f64,
    },
    /// Aggregate metrics.
    Metrics {
        /// The registry-wide counters.
        metrics: RegistryMetrics,
    },
    /// The registry-wide quality-vs-cost trace.
    Trace {
        /// Assembled exactly like the offline runners assemble theirs.
        trace: ExperimentTrace,
    },
    /// `Schedule` found nothing to admit: every session is busy or
    /// exhausted, or the shared budget is spent.
    NoWork {
        /// Judgments left in the shared budget.
        remaining: u64,
    },
    /// Global mode refused a direct `Select` because it is not that
    /// session's turn: admission goes strictly in marginal-gain order.
    Deferred {
        /// The session the client asked for.
        session: u64,
        /// The session the scheduler would admit next (`None` when the
        /// budget is exhausted or nothing is schedulable).
        preferred: Option<u64>,
    },
    /// The budget ledger (`BudgetStatus`).
    Budget {
        /// `"global"` or `"per-session"`.
        mode: String,
        /// Total judgments granted (summed session budgets when
        /// per-session).
        budget: u64,
        /// Judgments charged so far.
        spent: u64,
        /// Judgments left.
        remaining: u64,
        /// Global mode: the session the scheduler would admit next.
        next_session: Option<u64>,
        /// Global mode: that session's gain, bit-encoded (see
        /// [`crowdfusion_core::sched::gain_bits`]).
        next_gain_bits: Option<u64>,
    },
    /// The request failed; nothing was changed unless stated otherwise.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Acknowledges `Shutdown`; the daemon stops.
    Bye,
}

/// Encodes a protocol message as its wire line (no trailing newline).
pub fn encode<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).expect("protocol types serialise infallibly")
}

/// Decodes one wire line.
pub fn decode<T: serde::Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("malformed protocol line: {e}"))
}

/// How a request line was framed; replies echo the same framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// A bare pre-versioning line, accepted as version 1 for one
    /// release; the reply is bare too.
    Legacy,
    /// A `{"v": N, "body": …}` envelope; the reply carries the same
    /// version.
    Versioned(u64),
}

impl Framing {
    /// The wire version this framing speaks.
    pub fn version(self) -> u64 {
        match self {
            Framing::Legacy => 1,
            Framing::Versioned(v) => v,
        }
    }
}

/// Whether `v` is a wire version this build speaks.
pub fn version_supported(v: u64) -> bool {
    (WIRE_VERSION_MIN..=WIRE_VERSION_MAX).contains(&v)
}

/// The structured refusal for a version outside the supported range.
pub fn unsupported_version(requested: u64) -> Response {
    Response::UnsupportedVersion {
        requested,
        min: WIRE_VERSION_MIN,
        max: WIRE_VERSION_MAX,
    }
}

/// Decodes one request line, envelope-aware. Returns the framing the
/// reply must use plus either the request or the ready-made error
/// response (malformed line, unsupported version, envelope without a
/// body). The error side never loses the framing: a well-formed envelope
/// with a bad body is still answered in that envelope.
pub fn decode_framed(line: &str) -> (Framing, Result<Request, Response>) {
    let value: Value = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(e) => {
            return (
                Framing::Legacy,
                Err(Response::Error {
                    message: format!("malformed protocol line: {e}"),
                }),
            )
        }
    };
    let (framing, body) = match value.get_field("v") {
        // No top-level "v": a bare legacy line (request variants are
        // capitalised, so the keys cannot collide).
        None => (Framing::Legacy, &value),
        Some(version_field) => {
            let version = match version_field {
                Value::Int(v) if *v >= 0 => *v as u64,
                Value::UInt(v) => *v,
                other => {
                    return (
                        Framing::Versioned(WIRE_VERSION_MAX),
                        Err(Response::Error {
                            message: format!(
                                "envelope \"v\" must be an integer, got {}",
                                other.kind()
                            ),
                        }),
                    )
                }
            };
            if !version_supported(version) {
                return (
                    Framing::Versioned(WIRE_VERSION_MAX),
                    Err(unsupported_version(version)),
                );
            }
            let framing = Framing::Versioned(version);
            let Some(body) = value.get_field("body") else {
                return (
                    framing,
                    Err(Response::Error {
                        message: "envelope is missing its \"body\" field".to_string(),
                    }),
                );
            };
            (framing, body)
        }
    };
    let decoded = Request::from_value(body).map_err(|e| Response::Error {
        message: format!("malformed protocol line: {e}"),
    });
    (framing, decoded)
}

/// Encodes a response under the framing its request arrived in.
pub fn encode_framed(framing: Framing, response: &Response) -> String {
    match framing {
        Framing::Legacy => encode(response),
        Framing::Versioned(v) => {
            let envelope = Value::Map(vec![
                ("v".to_string(), response_version_value(v)),
                ("body".to_string(), response.to_value()),
            ]);
            encode(&envelope)
        }
    }
}

/// The envelope's version field, kept canonical (small unsigned values
/// normalise to `Int` in the vendored value model).
fn response_version_value(v: u64) -> Value {
    match i64::try_from(v) {
        Ok(v) => Value::Int(v),
        Err(_) => Value::UInt(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_wire() {
        let requests = vec![
            Request::Open {
                request: Some(7),
                entities: vec![EntitySpec::simple("b", vec![0.5, 0.7], vec![true, false])],
                k: Some(2),
                budget: None,
                pc: Some(0.8),
            },
            Request::Select { session: 3 },
            Request::Absorb {
                session: 3,
                answers: vec![WireAnswer {
                    task: 9,
                    value: true,
                }],
            },
            Request::Snapshot {
                path: "/tmp/x.json".into(),
            },
            Request::Restore {
                path: "/tmp/x.json".into(),
            },
            Request::Status { session: 0 },
            Request::Schedule { request: Some(12) },
            Request::Schedule { request: None },
            Request::BudgetStatus,
            Request::Metrics,
            Request::Trace,
            Request::Shutdown,
        ];
        for request in requests {
            let line = encode(&request);
            assert!(!line.contains('\n'), "one line per message: {line:?}");
            let back: Request = decode(&line).unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn responses_roundtrip_through_the_wire() {
        let responses = vec![
            Response::Error {
                message: "nope".into(),
            },
            Response::Bye,
            Response::Absorbed {
                session: 1,
                accepted: 2,
                duplicates: 1,
                pending: 0,
                closed: None,
            },
            Response::NoWork { remaining: 4 },
            Response::Deferred {
                session: 2,
                preferred: Some(0),
            },
            Response::Budget {
                mode: "global".into(),
                budget: 40,
                spent: 13,
                remaining: 27,
                next_session: Some(1),
                next_gain_bits: Some(crowdfusion_core::sched::gain_bits(0.42)),
            },
        ];
        for response in responses {
            let back: Response = decode(&encode(&response)).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn open_lines_from_before_request_ids_still_decode() {
        // Clients predating the `request` field omit it entirely; the
        // missing field must read back as `None`, not a decode error.
        let line = r#"{"Open": {"entities": [], "k": 2, "budget": null, "pc": null}}"#;
        let back: Request = decode(line).unwrap();
        assert_eq!(
            back,
            Request::Open {
                request: None,
                entities: vec![],
                k: Some(2),
                budget: None,
                pc: None,
            }
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(decode::<Request>("{not json").is_err());
        assert!(decode::<Request>("{\"Frobnicate\": {}}").is_err());
        // Bare lines that parse as JSON but not as a request: the framed
        // decoder reuses its parsed value, and must still give the error
        // text a direct decode gives.
        for line in [
            r#"{"Frobnicate": {}}"#,
            r#"{"Select": {"session": "three"}}"#,
            "[1, 2]",
        ] {
            let (framing, decoded) = decode_framed(line);
            assert_eq!(framing, Framing::Legacy);
            assert_eq!(
                decoded.unwrap_err(),
                Response::Error {
                    message: decode::<Request>(line).unwrap_err()
                },
                "{line}"
            );
        }
    }

    #[test]
    fn bare_lines_from_old_clients_still_speak_version_one() {
        // Pinned pre-envelope client bytes: these exact lines worked
        // before versioning shipped and must keep working for one
        // release, answered bare (no envelope) so old readers parse.
        for line in [
            r#"{"Select": {"session": 3}}"#,
            r#""Metrics""#,
            r#"{"Open": {"entities": [], "k": 2, "budget": null, "pc": null}}"#,
        ] {
            let (framing, decoded) = decode_framed(line);
            assert_eq!(framing, Framing::Legacy);
            assert_eq!(framing.version(), 1);
            decoded.unwrap_or_else(|e| panic!("legacy line {line:?} must decode, got {e:?}"));
        }
        assert_eq!(
            encode_framed(Framing::Legacy, &Response::Bye),
            encode(&Response::Bye),
            "legacy replies must stay byte-identical to the old wire"
        );
    }

    #[test]
    fn enveloped_lines_round_trip_with_their_version() {
        let line = r#"{"v": 1, "body": {"Select": {"session": 3}}}"#;
        let (framing, decoded) = decode_framed(line);
        assert_eq!(framing, Framing::Versioned(1));
        assert_eq!(decoded.unwrap(), Request::Select { session: 3 });
        let reply = encode_framed(framing, &Response::Bye);
        let value: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(value.get_field("v"), Some(&Value::Int(1)));
        assert_eq!(
            Response::from_value(value.get_field("body").unwrap()).unwrap(),
            Response::Bye
        );
    }

    #[test]
    fn unknown_versions_get_the_supported_range_back() {
        let line = r#"{"v": 9, "body": "Metrics"}"#;
        let (framing, decoded) = decode_framed(line);
        assert_eq!(framing, Framing::Versioned(WIRE_VERSION_MAX));
        assert_eq!(
            decoded.unwrap_err(),
            Response::UnsupportedVersion {
                requested: 9,
                min: WIRE_VERSION_MIN,
                max: WIRE_VERSION_MAX,
            }
        );
    }

    #[test]
    fn broken_envelopes_keep_their_framing() {
        // A well-formed envelope with a bad body is answered *in* the
        // envelope — the client committed to versioned framing.
        let (framing, decoded) = decode_framed(r#"{"v": 1, "body": {"Frobnicate": {}}}"#);
        assert_eq!(framing, Framing::Versioned(1));
        assert!(matches!(decoded, Err(Response::Error { .. })));
        let (framing, decoded) = decode_framed(r#"{"v": 1}"#);
        assert_eq!(framing, Framing::Versioned(1));
        let Err(Response::Error { message }) = decoded else {
            panic!("missing body must error");
        };
        assert!(message.contains("body"), "got {message:?}");
        // A non-integer version cannot pick a framing version; the reply
        // uses the newest the daemon speaks.
        let (framing, decoded) = decode_framed(r#"{"v": "one", "body": "Metrics"}"#);
        assert_eq!(framing, Framing::Versioned(WIRE_VERSION_MAX));
        assert!(matches!(decoded, Err(Response::Error { .. })));
    }
}
