//! The write-ahead answer journal.
//!
//! Every mutating effect the service applies — opening sessions, closing
//! a selection, absorbing an answer batch, evicting idle sessions — is
//! journalled *before* it touches in-memory state. A record is one frame:
//!
//! ```text
//! [u32 payload-len LE] [u32 crc32(payload) LE] [payload: JSON Record]
//! ```
//!
//! Appends are fsync-batched (`sync_every`); a crash can therefore lose a
//! suffix of recent records, and a torn `write(2)` can leave a partial
//! frame at the tail. [`read_journal`] handles both the same way: it
//! keeps the longest prefix of well-formed frames with strictly
//! increasing sequence numbers and reports everything after it as torn.
//! The writer then truncates the file to that prefix, so garbage never
//! sits under fresh appends.
//!
//! Payloads are JSON rather than a packed binary layout on purpose: the
//! snapshot beside the journal is already JSON, the vendored serde stack
//! is the one codec every wire type supports, and a human can read a
//! journal with `xxd | less` when debugging a recovery. The frame header
//! supplies what JSON alone cannot — torn-tail detection (length) and
//! bit-rot detection (checksum).

use crate::fault::{FaultAction, FaultPlan, FaultPoint, SimulatedCrash};
use crate::protocol::WireAnswer;
use crowdfusion_core::session::EntitySpec;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Upper bound on one record's payload. Anything larger in a header is
/// corruption (no legitimate effect serialises to 64 MiB), so the reader
/// can reject it without attempting the allocation.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// Bytes of frame header preceding each payload.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// One journalled mutation. Mirrors the mutating verbs of the wire
/// protocol, minus read-only bookkeeping; `Evict` has no wire verb — it
/// records TTL sweeps so replay never consults a clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Effect {
    /// Sessions opened from a batch of entity specs.
    Open {
        /// The client's idempotency token, if it sent one.
        request: Option<u64>,
        /// The specs, in session order.
        entities: Vec<EntitySpec>,
        /// Tasks-per-round override.
        k: Option<usize>,
        /// Budget override.
        budget: Option<usize>,
        /// Assumed-accuracy override.
        pc: Option<f64>,
    },
    /// A round selection that mutated the session (opened a round or
    /// marked it exhausted). Idempotent re-reads of an open round are not
    /// journalled.
    Select {
        /// Target session.
        session: u64,
    },
    /// An answer batch absorbed into the session's open round.
    Absorb {
        /// Target session.
        session: u64,
        /// The batch, exactly as received.
        answers: Vec<WireAnswer>,
    },
    /// Sessions evicted by a TTL sweep.
    Evict {
        /// The evicted session ids, ascending.
        sessions: Vec<u64>,
    },
    /// A selection admitted by the global budget scheduler. Replays as a
    /// capped select: the session may open a round of at most `cap`
    /// tasks, where `cap` was the global budget remaining at admission
    /// time. Charging is derived from the opened round during replay, so
    /// the ledger needs no record of its own.
    Schedule {
        /// The client's idempotency token, if it sent one.
        request: Option<u64>,
        /// The admitted session.
        session: u64,
        /// Global budget remaining at admission (caps the round size).
        cap: usize,
    },
}

/// One journal record: a monotonically increasing sequence number plus
/// the effect. The sequence is the recovery cursor — a snapshot stores
/// the last sequence it covers, and replay skips records at or below it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Strictly increasing, starting at 1 for a fresh journal.
    pub seq: u64,
    /// The mutation.
    pub effect: Effect,
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise. The
/// journal checksums one small payload per record; table lookup would be
/// noise next to the fsync.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let low_bit_set = crc & 1 != 0;
            crc >>= 1;
            if low_bit_set {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// Encodes one record as its on-disk frame.
pub fn encode_frame(record: &Record) -> Vec<u8> {
    let payload = crate::protocol::encode(record).into_bytes();
    assert!(
        payload.len() as u64 <= MAX_RECORD_BYTES as u64,
        "journal record exceeds MAX_RECORD_BYTES"
    );
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// What [`read_journal`] recovered.
#[derive(Debug)]
pub struct JournalContents {
    /// The longest well-formed strictly-increasing-seq prefix.
    pub records: Vec<Record>,
    /// Byte length of that prefix — truncate the file here before
    /// appending.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (torn tail or bit rot).
    pub torn: bool,
}

/// Reads a journal file, keeping the longest valid prefix. A missing
/// file is an empty journal (first boot); every corruption mode — short
/// header, impossible length, short payload, checksum mismatch, broken
/// JSON, non-increasing sequence — ends the prefix at the previous
/// record boundary and flags `torn`.
pub fn read_journal(path: &Path) -> std::io::Result<JournalContents> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalContents {
                records: Vec::new(),
                valid_len: 0,
                torn: false,
            })
        }
        Err(err) => return Err(err),
    };

    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut last_seq = 0u64;
    let torn = loop {
        let remaining = &bytes[offset..];
        if remaining.is_empty() {
            break false;
        }
        if remaining.len() < FRAME_HEADER_BYTES as usize {
            break true;
        }
        let len = u32::from_le_bytes([remaining[0], remaining[1], remaining[2], remaining[3]]);
        let expected_crc =
            u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
        if len > MAX_RECORD_BYTES {
            break true;
        }
        let frame_end = FRAME_HEADER_BYTES as usize + len as usize;
        if remaining.len() < frame_end {
            break true;
        }
        let payload = &remaining[FRAME_HEADER_BYTES as usize..frame_end];
        if crc32(payload) != expected_crc {
            break true;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break true;
        };
        let Ok(record) = crate::protocol::decode::<Record>(text) else {
            break true;
        };
        if record.seq <= last_seq {
            break true;
        }
        last_seq = record.seq;
        records.push(record);
        offset += frame_end;
    };

    Ok(JournalContents {
        records,
        valid_len: offset as u64,
        torn,
    })
}

/// Appends framed records to a journal file with batched fsync.
///
/// Failure discipline: if an append's bytes cannot all be written, the
/// writer rolls the file back to the last good frame boundary so later
/// appends stay readable; if even the rollback fails, the writer poisons
/// itself and every subsequent operation errors — better a loudly dead
/// journal than one silently interleaving good frames with garbage. A
/// failed fsync poisons it too: the kernel may already have dropped the
/// dirty pages, so a later fsync could report success over lost frames.
pub struct JournalWriter {
    file: File,
    /// Bytes of well-formed frames currently on disk.
    len: u64,
    /// Appends since the last fsync.
    pending: usize,
    sync_every: usize,
    faults: FaultPlan,
    poisoned: bool,
}

impl JournalWriter {
    /// Opens (creating if absent) the journal at `path`, trusting
    /// `valid_len` from a prior [`read_journal`]: the file is truncated
    /// there, discarding any torn tail, and appends continue from it.
    /// `sync_every` = 1 fsyncs every record; larger values batch.
    pub fn open(
        path: &Path,
        valid_len: u64,
        sync_every: usize,
        faults: FaultPlan,
    ) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(JournalWriter {
            file,
            len: valid_len,
            pending: 0,
            sync_every: sync_every.max(1),
            faults,
            poisoned: false,
        })
    }

    /// Bytes of well-formed frames on disk (not counting an in-flight
    /// torn write).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Appends one record. The record is durable once this returns and a
    /// subsequent [`JournalWriter::sync`] (or batched fsync) completes.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        self.live()?;
        let frame = encode_frame(record);
        match self.faults.check(FaultPoint::JournalAppend) {
            None => {}
            Some(FaultAction::Crash) => {
                return Err(SimulatedCrash {
                    point: FaultPoint::JournalAppend,
                }
                .into())
            }
            Some(FaultAction::Torn { keep_bytes }) => {
                // Persist a prefix of the frame — what a power cut
                // mid-write leaves behind — then die.
                let keep = keep_bytes.min(frame.len());
                self.file.write_all(&frame[..keep])?;
                self.file.sync_data()?;
                return Err(SimulatedCrash {
                    point: FaultPoint::JournalAppend,
                }
                .into());
            }
            Some(other) => panic!("journal append cannot honour {other:?}"),
        }
        if let Err(err) = self.file.write_all(&frame) {
            self.rollback_to_len();
            return Err(err);
        }
        self.len += frame.len() as u64;
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any batched appends to disk. Any failure poisons the
    /// writer.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.live()?;
        if self.pending == 0 {
            return Ok(());
        }
        let synced = self
            .faults
            .crash_if_scheduled(FaultPoint::JournalSync)
            .map_err(std::io::Error::from)
            .and_then(|()| self.file.sync_data());
        self.poisoned = synced.is_err();
        synced?;
        self.pending = 0;
        Ok(())
    }

    /// Empties the journal — called right after a snapshot becomes
    /// durable, making the snapshot the new recovery base.
    pub fn truncate_all(&mut self) -> std::io::Result<()> {
        self.live()?;
        self.faults
            .crash_if_scheduled(FaultPoint::JournalTruncate)?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.len = 0;
        self.pending = 0;
        Ok(())
    }

    /// Refuses every operation once an unrecoverable write or fsync
    /// error has poisoned the writer.
    fn live(&self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "journal writer poisoned by an earlier unrecoverable write or fsync error",
            ));
        }
        Ok(())
    }

    /// After a failed write: drop the partial frame so the file ends at a
    /// record boundary. If the file cannot be restored, poison the writer.
    fn rollback_to_len(&mut self) {
        let restored = self
            .file
            .set_len(self.len)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.len)).map(|_| ()));
        if restored.is_err() {
            self.poisoned = true;
        }
    }
}

/// Reads the raw bytes of a journal file (testing / diagnostics).
pub fn raw_bytes(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

    fn temp_journal() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowdfusion-journal-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records(n: u64) -> Vec<Record> {
        (1..=n)
            .map(|seq| Record {
                seq,
                effect: match seq % 3 {
                    0 => Effect::Select { session: seq },
                    1 => Effect::Absorb {
                        session: seq,
                        answers: vec![
                            WireAnswer {
                                task: seq << 32,
                                value: seq % 2 == 0,
                            },
                            WireAnswer {
                                task: (seq << 32) | 1,
                                value: true,
                            },
                        ],
                    },
                    _ => Effect::Evict {
                        sessions: vec![seq, seq + 1],
                    },
                },
            })
            .collect()
    }

    fn write_all(path: &Path, records: &[Record]) {
        let mut writer = JournalWriter::open(path, 0, 1, FaultPlan::none()).unwrap();
        for record in records {
            writer.append(record).unwrap();
        }
        writer.sync().unwrap();
    }

    #[test]
    fn schedule_effect_roundtrips_and_old_frames_still_decode() {
        let path = temp_journal();
        let records = vec![
            Record {
                seq: 1,
                effect: Effect::Select { session: 3 },
            },
            Record {
                seq: 2,
                effect: Effect::Schedule {
                    request: Some(0xBEEF),
                    session: 3,
                    cap: 11,
                },
            },
            Record {
                seq: 3,
                effect: Effect::Schedule {
                    request: None,
                    session: 4,
                    cap: 2,
                },
            },
        ];
        write_all(&path, &records);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records, records);
        assert!(!contents.torn);

        // A journal written before the scheduler existed (no Schedule
        // frames) must still read back unchanged.
        let legacy_path = temp_journal();
        let legacy = sample_records(6);
        assert!(legacy
            .iter()
            .all(|r| !matches!(r.effect, Effect::Schedule { .. })));
        write_all(&legacy_path, &legacy);
        assert_eq!(read_journal(&legacy_path).unwrap().records, legacy);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn missing_file_is_an_empty_journal() {
        let path = temp_journal();
        let contents = read_journal(&path).unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(contents.valid_len, 0);
        assert!(!contents.torn);
    }

    #[test]
    fn records_roundtrip_through_the_file() {
        let path = temp_journal();
        let records = sample_records(9);
        write_all(&path, &records);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records, records);
        assert!(!contents.torn);
        assert_eq!(contents.valid_len, raw_bytes(&path).unwrap().len() as u64);
    }

    #[test]
    fn every_truncation_point_recovers_the_full_frame_prefix() {
        // The byte-level torn-tail sweep: chop the journal at EVERY byte
        // length and check recovery keeps exactly the fully contained
        // frames, flagging torn unless the cut is a frame boundary.
        let path = temp_journal();
        let records = sample_records(4);
        write_all(&path, &records);
        let full = raw_bytes(&path).unwrap();

        let mut boundaries = vec![0u64];
        let mut at = 0u64;
        for record in &records {
            at += FRAME_HEADER_BYTES + crate::protocol::encode(record).len() as u64;
            boundaries.push(at);
        }
        assert_eq!(*boundaries.last().unwrap(), full.len() as u64);

        let torn_path = temp_journal();
        for cut in 0..=full.len() {
            std::fs::write(&torn_path, &full[..cut]).unwrap();
            let contents = read_journal(&torn_path).unwrap();
            let expect_frames = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(contents.records.len(), expect_frames, "cut at byte {cut}");
            assert_eq!(contents.records[..], records[..expect_frames]);
            assert_eq!(contents.valid_len, boundaries[expect_frames]);
            let at_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(contents.torn, !at_boundary, "cut at byte {cut}");
        }
    }

    #[test]
    fn corrupted_payload_byte_ends_the_prefix() {
        let path = temp_journal();
        let records = sample_records(3);
        write_all(&path, &records);
        let mut bytes = raw_bytes(&path).unwrap();
        // Flip one bit inside the second record's payload.
        let second_start = FRAME_HEADER_BYTES as usize + crate::protocol::encode(&records[0]).len();
        bytes[second_start + FRAME_HEADER_BYTES as usize + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records, records[..1]);
        assert!(contents.torn);
        assert_eq!(contents.valid_len, second_start as u64);
    }

    #[test]
    fn absurd_length_header_is_corruption_not_allocation() {
        let path = temp_journal();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.records.is_empty());
        assert!(contents.torn);
    }

    #[test]
    fn non_increasing_seq_ends_the_prefix() {
        let path = temp_journal();
        let mut writer = JournalWriter::open(&path, 0, 1, FaultPlan::none()).unwrap();
        writer
            .append(&Record {
                seq: 5,
                effect: Effect::Select { session: 0 },
            })
            .unwrap();
        writer
            .append(&Record {
                seq: 5,
                effect: Effect::Select { session: 1 },
            })
            .unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert!(contents.torn);
    }

    #[test]
    fn reopening_truncates_the_torn_tail_under_new_appends() {
        let path = temp_journal();
        let records = sample_records(3);
        write_all(&path, &records);
        // Tear the last frame.
        let bytes = raw_bytes(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let contents = read_journal(&path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.records.len(), 2);

        let mut writer =
            JournalWriter::open(&path, contents.valid_len, 1, FaultPlan::none()).unwrap();
        let next = Record {
            seq: 99,
            effect: Effect::Evict { sessions: vec![1] },
        };
        writer.append(&next).unwrap();

        let reread = read_journal(&path).unwrap();
        assert!(!reread.torn);
        assert_eq!(reread.records.len(), 3);
        assert_eq!(reread.records[2], next);
    }

    #[test]
    fn torn_fault_leaves_a_partial_frame_recovery_drops() {
        let path = temp_journal();
        let plan = FaultPlan::none().on(
            FaultPoint::JournalAppend,
            2,
            FaultAction::Torn { keep_bytes: 5 },
        );
        let mut writer = JournalWriter::open(&path, 0, 1, plan).unwrap();
        let records = sample_records(2);
        writer.append(&records[0]).unwrap();
        let err = writer.append(&records[1]).unwrap_err();
        assert!(crate::fault::is_simulated_crash(&err));

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records, records[..1]);
        assert!(contents.torn, "5 stray bytes must register as torn");
    }

    #[test]
    fn a_failed_sync_poisons_the_writer() {
        let path = temp_journal();
        let plan = FaultPlan::none().on(FaultPoint::JournalSync, 1, FaultAction::Crash);
        let mut writer = JournalWriter::open(&path, 0, usize::MAX, plan).unwrap();
        let records = sample_records(2);
        writer.append(&records[0]).unwrap();
        let err = writer.sync().unwrap_err();
        assert!(crate::fault::is_simulated_crash(&err));
        // The pages behind the failed fsync may be gone: neither a retried
        // sync nor a fresh append may report success.
        assert!(writer.sync().is_err());
        assert!(writer.append(&records[1]).is_err());
        assert!(writer.truncate_all().is_err());
    }

    #[test]
    fn truncate_all_resets_to_an_empty_journal() {
        let path = temp_journal();
        let records = sample_records(3);
        let mut writer = JournalWriter::open(&path, 0, 2, FaultPlan::none()).unwrap();
        for record in &records {
            writer.append(record).unwrap();
        }
        writer.truncate_all().unwrap();
        assert_eq!(writer.len_bytes(), 0);
        let contents = read_journal(&path).unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.torn);

        // And the journal is still appendable afterwards.
        writer
            .append(&Record {
                seq: 1,
                effect: Effect::Select { session: 7 },
            })
            .unwrap();
        writer.sync().unwrap();
        assert_eq!(read_journal(&path).unwrap().records.len(), 1);
    }
}
