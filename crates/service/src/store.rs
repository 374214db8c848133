//! Durable checkpoint store: the on-disk half of the service's
//! checkpoint map (`--checkpoint-dir`), built so the daemon survives
//! its own fail-stop.
//!
//! # Layout
//!
//! One record file per checkpoint, `ckpt-<seq:016x>.blob`, where `seq`
//! is a monotonically increasing admission number (the recovery sort
//! key). A record wraps the already-versioned-and-checksummed
//! [`Checkpoint`] wire blob with the request id and problem source,
//! under its own magic/version/checksum header (see `encode_record`).
//! A separate versioned index file (`index.ftsynidx`) records the
//! committed id→seq set plus the next sequence number.
//!
//! # Atomicity and fsync discipline
//!
//! Every file (record and index alike) is written to a `.tmp` sibling,
//! fsynced, renamed into place, and the directory fsynced — a reader
//! never observes a half-written file under its final name. Mutations
//! order blob-then-index on persist and blob-then-index on remove, so
//! a fail-stop between the two steps leaves either an *orphan* record
//! (persisted blob the index missed — adopted on recovery) or a
//! *dangling* index entry (removed blob the index still names —
//! dropped on recovery). Both are healed, never fatal.
//!
//! # Recovery
//!
//! [`CheckpointStore::open`] scans the directory, validates every
//! record end-to-end (wrapper checksum, then a full
//! [`Checkpoint::decode`] of the inner blob, exercising the same
//! magic/version/fingerprint refusals a resume would), and reports a
//! [`Recovery`]: valid checkpoints to re-offer, corrupt or partial
//! files moved to a `quarantine/` subdirectory with a structured
//! reason, and bookkeeping notes (stale tmps, superseded duplicates,
//! dangling index entries). Damage is *contained*: a bad blob is
//! quarantined and reported, and recovery of the rest proceeds.
//!
//! # Fault injection
//!
//! Named crash points (`crash_point`) let the conformance harness
//! fail-stop the real daemon at the exact seams the atomicity argument
//! depends on (before a rename, between blob and index, after commit).

use crate::ProblemSource;
use ftsyn::{blob_checksum, Checkpoint};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic bytes of a store record file.
const RECORD_MAGIC: &[u8; 8] = b"FTSYNSTO";

/// Store record format version.
pub const RECORD_FORMAT_VERSION: u32 = 1;

/// Magic bytes of the store index file.
const INDEX_MAGIC: &[u8; 8] = b"FTSYNIDX";

/// Store index format version.
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// File name of the index inside the store directory.
const INDEX_FILE: &str = "index.ftsynidx";

/// Subdirectory corrupt records are moved into.
const QUARANTINE_DIR: &str = "quarantine";

/// A structured store failure: the filesystem operation that failed
/// and where. Store failures degrade durability (the in-memory map is
/// still correct) — callers report them and continue.
#[derive(Debug)]
pub struct StoreError {
    /// What the store was doing (`"create dir"`, `"write"`, …).
    pub op: &'static str,
    /// The path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub error: std::io::Error,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint store: {} {}: {}",
            self.op,
            self.path.display(),
            self.error
        )
    }
}

impl std::error::Error for StoreError {}

/// A checkpoint brought back by recovery, ready to re-offer.
#[derive(Clone, Debug)]
pub struct RecoveredCheckpoint {
    /// Request id the checkpoint was parked under.
    pub id: String,
    /// Problem source a resume rebuilds the problem from.
    pub source: ProblemSource,
    /// The encoded [`Checkpoint`] wire blob (already validated).
    pub blob: Vec<u8>,
    /// Tableau nodes in the checkpoint (from the validating decode).
    pub nodes: usize,
}

/// What [`CheckpointStore::open`] found: the survivors, the damage,
/// and the bookkeeping it healed.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Valid checkpoints, in admission (sequence) order.
    pub recovered: Vec<RecoveredCheckpoint>,
    /// `(file name, reason)` for every record moved to `quarantine/`.
    pub quarantined: Vec<(String, String)>,
    /// Healed bookkeeping: stale tmps removed, superseded duplicate
    /// records dropped, index entries whose record was missing.
    pub notes: Vec<String>,
}

/// The on-disk store. All methods take `&mut self`; the service
/// serializes access behind its checkpoint-map mutex.
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: u64,
    /// id → (seq, record path) for every committed record.
    files: HashMap<String, (u64, PathBuf)>,
}

/// Fail-stop injection for the crash-recovery conformance harness:
/// when `FTSYN_CRASH_POINT` names this point, the process dies here —
/// no unwinding, no destructors, exactly the state already on disk.
fn crash_point(name: &str) {
    if std::env::var("FTSYN_CRASH_POINT").as_deref() == Ok(name) {
        eprintln!("crash injection: fail-stop at {name}");
        std::process::abort();
    }
}

fn io_err<'p>(op: &'static str, path: &'p Path) -> impl FnOnce(std::io::Error) -> StoreError + 'p {
    move |error| StoreError {
        op,
        path: path.to_path_buf(),
        error,
    }
}

/// Flushes directory metadata (the rename) to disk. Best-effort: some
/// filesystems refuse to fsync a directory handle, and the rename
/// itself is already atomic.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` under `dir/name` atomically: tmp sibling → fsync →
/// rename → directory fsync. `pre_rename` names the injection point
/// right before the rename (tmp durable, final name absent).
fn write_atomic(dir: &Path, name: &str, bytes: &[u8], pre_rename: &str) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    {
        let mut f = File::create(&tmp).map_err(io_err("create", &tmp))?;
        f.write_all(bytes).map_err(io_err("write", &tmp))?;
        f.sync_all().map_err(io_err("fsync", &tmp))?;
    }
    crash_point(pre_rename);
    fs::rename(&tmp, &target).map_err(io_err("rename", &target))?;
    sync_dir(dir);
    Ok(())
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Minimal structured reader for record/index decoding; errors are
/// human-readable reasons destined for the quarantine report.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err("truncated".to_owned());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| "non-UTF-8 string".to_owned())
    }
}

/// Checks a `magic | version | checksum | payload` header and returns
/// the verified payload.
fn checked_payload<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    what: &str,
) -> Result<&'a [u8], String> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(magic.len())? != magic {
        return Err(format!("not a {what} (bad magic)"));
    }
    let found = r.u32()?;
    if found != version {
        return Err(format!(
            "unsupported {what} version {found} (this build reads {version})"
        ));
    }
    let stored = r.u64()?;
    let payload = &bytes[r.pos..];
    let computed = blob_checksum(payload);
    if stored != computed {
        return Err(format!(
            "{what} checksum {computed:#018x} does not match stored {stored:#018x}"
        ));
    }
    Ok(payload)
}

fn with_header(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(magic);
    put_u32(&mut out, version);
    put_u64(&mut out, blob_checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Encodes one record file: id, problem source, and the checkpoint
/// wire blob, under the record header.
fn encode_record(id: &str, source: &ProblemSource, blob: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(blob.len() + id.len() + 64);
    put_bytes(&mut p, id.as_bytes());
    let (kind, text) = match source {
        ProblemSource::Corpus(name) => (0u8, name.as_str()),
        ProblemSource::Spec(text) => (1, text.as_str()),
    };
    p.push(kind);
    put_bytes(&mut p, text.as_bytes());
    put_bytes(&mut p, blob);
    with_header(RECORD_MAGIC, RECORD_FORMAT_VERSION, &p)
}

/// Decodes and fully validates one record file, including a
/// [`Checkpoint::decode`] of the inner blob (the same refusals a
/// resume would hit). The error string is the quarantine reason.
fn decode_record(bytes: &[u8]) -> Result<RecoveredCheckpoint, String> {
    let payload = checked_payload(bytes, RECORD_MAGIC, RECORD_FORMAT_VERSION, "store record")?;
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let id = r.string()?;
    if id.is_empty() {
        return Err("record has an empty request id".to_owned());
    }
    let kind = r.take(1)?[0];
    let text = r.string()?;
    let source = match kind {
        0 => ProblemSource::Corpus(text),
        1 => ProblemSource::Spec(text),
        other => return Err(format!("unknown problem-source kind {other}")),
    };
    let blob = r.bytes()?.to_vec();
    if r.pos != payload.len() {
        return Err("trailing bytes after the record payload".to_owned());
    }
    let nodes = Checkpoint::decode(&blob)
        .map_err(|e| format!("inner checkpoint blob rejected: {e}"))?
        .tableau_nodes();
    Ok(RecoveredCheckpoint {
        id,
        source,
        blob,
        nodes,
    })
}

fn record_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.blob")
}

/// Parses the sequence number out of a `ckpt-<seq>.blob` file name.
fn parse_record_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".blob")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

impl CheckpointStore {
    /// Opens (or creates) the store at `dir`, running full recovery:
    /// scan, validate, quarantine, heal the index. Only I/O failures on
    /// the directory itself are fatal; damaged records never are.
    pub fn open(dir: &Path) -> Result<(CheckpointStore, Recovery), StoreError> {
        fs::create_dir_all(dir).map_err(io_err("create dir", dir))?;
        let mut recovery = Recovery::default();

        // The committed set according to the index, if it is readable.
        // The index is advisory — the scan below is ground truth for
        // which records exist — but it distinguishes a dangling entry
        // (heal silently) from an orphan record (adopt).
        let mut index_ids: Option<Vec<(u64, String)>> = None;
        let mut index_next_seq = 0u64;
        let index_path = dir.join(INDEX_FILE);
        match fs::read(&index_path) {
            Ok(bytes) => match decode_index(&bytes) {
                Ok((next_seq, ids)) => {
                    index_next_seq = next_seq;
                    index_ids = Some(ids);
                }
                Err(reason) => {
                    quarantine(dir, INDEX_FILE, &reason, &mut recovery);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => {
                return Err(StoreError {
                    op: "read",
                    path: index_path,
                    error,
                })
            }
        }

        // Scan the directory: clean stale tmps, validate every record,
        // quarantine damage.
        let mut records: Vec<(u64, String, RecoveredCheckpoint)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(io_err("read dir", dir))?;
        for entry in entries {
            let entry = entry.map_err(io_err("read dir", dir))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // A tmp never reached its rename: the write it belonged
                // to was not committed, so the bytes carry no promise.
                let _ = fs::remove_file(entry.path());
                recovery.notes.push(format!("removed stale tmp {name}"));
                continue;
            }
            let Some(seq) = parse_record_name(&name) else {
                continue; // the index, quarantine/, or foreign files
            };
            let bytes = match fs::read(entry.path()) {
                Ok(b) => b,
                Err(e) => {
                    quarantine(dir, &name, &format!("unreadable: {e}"), &mut recovery);
                    continue;
                }
            };
            match decode_record(&bytes) {
                Ok(rec) => records.push((seq, name, rec)),
                Err(reason) => quarantine(dir, &name, &reason, &mut recovery),
            }
        }
        records.sort_by_key(|(seq, ..)| *seq);

        // Duplicate ids keep the highest sequence number: a replace
        // that crashed between writing the new record and deleting the
        // old one resolves to the newer checkpoint.
        let mut files: HashMap<String, (u64, PathBuf)> = HashMap::new();
        let mut survivors: Vec<(u64, RecoveredCheckpoint)> = Vec::new();
        for (seq, name, rec) in records {
            if let Some((old_seq, old_path)) = files.get(&rec.id) {
                let old_name = record_name(*old_seq);
                let _ = fs::remove_file(old_path);
                survivors.retain(|(s, _)| s != old_seq);
                recovery
                    .notes
                    .push(format!("dropped superseded record {old_name}"));
            }
            files.insert(rec.id.clone(), (seq, dir.join(&name)));
            survivors.push((seq, rec));
        }
        survivors.sort_by_key(|(seq, _)| *seq);

        // Dangling index entries (record deleted, index rewrite lost to
        // the crash) are healed by the index rewrite below.
        if let Some(ids) = index_ids {
            for (seq, id) in ids {
                if files.get(&id).map(|(s, _)| *s) != Some(seq) {
                    recovery
                        .notes
                        .push(format!("dropped dangling index entry {id} (seq {seq})"));
                }
            }
        }

        let max_seq = files.values().map(|(s, _)| *s).max();
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
            next_seq: index_next_seq.max(max_seq.map_or(0, |s| s + 1)),
            files,
        };
        // Rewrite the index to match the healed reality, so the next
        // recovery starts from a clean committed set.
        store.write_index()?;
        recovery.recovered = survivors.into_iter().map(|(_, rec)| rec).collect();
        Ok((store, recovery))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Persists a checkpoint blob under `id`, replacing any record the
    /// id already has. Ordering: new record durable → old record
    /// removed → index rewritten; every intermediate state recovers.
    pub fn persist(
        &mut self,
        id: &str,
        source: &ProblemSource,
        blob: &[u8],
    ) -> Result<(), StoreError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = record_name(seq);
        let record = encode_record(id, source, blob);
        write_atomic(&self.dir, &name, &record, "ckpt-blob-pre-rename")?;
        crash_point("ckpt-blob-durable");
        if let Some((_, old_path)) = self.files.remove(id) {
            let _ = fs::remove_file(old_path);
        }
        self.files
            .insert(id.to_owned(), (seq, self.dir.join(&name)));
        self.write_index()?;
        crash_point("ckpt-store-complete");
        Ok(())
    }

    /// Removes the record for `id` (a consumed or discarded
    /// checkpoint). Record first, then index; a crash in between
    /// leaves a dangling index entry recovery heals.
    pub fn remove(&mut self, id: &str) -> Result<(), StoreError> {
        let Some((_, path)) = self.files.remove(id) else {
            return Ok(());
        };
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => {
                return Err(StoreError {
                    op: "remove",
                    path,
                    error,
                })
            }
        }
        crash_point("ckpt-remove-before-index");
        self.write_index()
    }

    fn write_index(&self) -> Result<(), StoreError> {
        let mut entries: Vec<(&u64, &String)> =
            self.files.iter().map(|(id, (seq, _))| (seq, id)).collect();
        entries.sort();
        let mut p = Vec::new();
        put_u64(&mut p, self.next_seq);
        put_u32(&mut p, entries.len() as u32);
        for (seq, id) in entries {
            put_u64(&mut p, *seq);
            put_bytes(&mut p, id.as_bytes());
        }
        let bytes = with_header(INDEX_MAGIC, INDEX_FORMAT_VERSION, &p);
        write_atomic(&self.dir, INDEX_FILE, &bytes, "ckpt-index-pre-rename")
    }
}

/// Decodes the index into `(next_seq, [(seq, id)])`.
fn decode_index(bytes: &[u8]) -> Result<(u64, Vec<(u64, String)>), String> {
    let payload = checked_payload(bytes, INDEX_MAGIC, INDEX_FORMAT_VERSION, "store index")?;
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let next_seq = r.u64()?;
    let count = r.u32()? as usize;
    let mut ids = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let seq = r.u64()?;
        let id = r.string()?;
        ids.push((seq, id));
    }
    if r.pos != payload.len() {
        return Err("trailing bytes after the index payload".to_owned());
    }
    Ok((next_seq, ids))
}

/// Moves a damaged file into `quarantine/` and records the structured
/// reason. Never fails recovery: if even the move fails, the file is
/// left behind and the failure itself is reported.
fn quarantine(dir: &Path, name: &str, reason: &str, recovery: &mut Recovery) {
    let qdir = dir.join(QUARANTINE_DIR);
    let moved = fs::create_dir_all(&qdir)
        .and_then(|()| fs::rename(dir.join(name), qdir.join(name)))
        .is_ok();
    let reason = if moved {
        reason.to_owned()
    } else {
        format!("{reason} (left in place: quarantine move failed)")
    };
    recovery.quarantined.push((name.to_owned(), reason));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static N: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "ftsyn-store-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A real checkpoint blob from an aborted governed build.
    fn real_blob() -> Vec<u8> {
        let mut problem = crate::corpus::problem("mutex2-failstop-masking").unwrap();
        let gov = ftsyn::Governor::with_budget(ftsyn::Budget {
            max_states: Some(12),
            ..ftsyn::Budget::unlimited()
        });
        let (outcome, _) = ftsyn::synthesize_session(
            &mut problem,
            ftsyn::ThreadPlan::uniform(1),
            Some(&gov),
            ftsyn::SynthesisSession::default(),
        )
        .unwrap();
        match outcome {
            ftsyn::SynthesisOutcome::Aborted(a) => a.checkpoint.unwrap().encode(),
            other => panic!("expected an abort, got {other:?}"),
        }
    }

    fn source() -> ProblemSource {
        ProblemSource::Corpus("mutex2-failstop-masking".to_owned())
    }

    #[test]
    fn persist_survives_reopen_byte_identically() {
        let scratch = Scratch::new("roundtrip");
        let blob = real_blob();
        let (mut store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert!(recovery.recovered.is_empty());
        assert!(recovery.quarantined.is_empty());
        store.persist("r1", &source(), &blob).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);

        let (store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert_eq!(store.len(), 1);
        assert!(
            recovery.quarantined.is_empty(),
            "{:?}",
            recovery.quarantined
        );
        let rec = &recovery.recovered[0];
        assert_eq!(rec.id, "r1");
        assert_eq!(rec.source, source());
        assert_eq!(rec.blob, blob, "the blob round-trips byte-identically");
        assert!(rec.nodes > 0);
    }

    #[test]
    fn replace_keeps_only_the_newest_record_for_an_id() {
        let scratch = Scratch::new("replace");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("r1", &source(), &blob).unwrap();
        store.persist("r1", &source(), &blob).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);
        let (_, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert_eq!(recovery.recovered.len(), 1);
    }

    #[test]
    fn remove_is_durable_and_idempotent() {
        let scratch = Scratch::new("remove");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("r1", &source(), &blob).unwrap();
        store.remove("r1").unwrap();
        store.remove("r1").unwrap();
        assert!(store.is_empty());
        drop(store);
        let (_, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert!(recovery.recovered.is_empty());
        assert!(recovery.quarantined.is_empty());
    }

    /// An orphan record (present on disk, absent from the index — the
    /// crash window between blob rename and index rewrite) is adopted.
    #[test]
    fn orphan_records_are_adopted() {
        let scratch = Scratch::new("orphan");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("kept", &source(), &blob).unwrap();
        // Simulate the crash: write a record directly, bypassing the
        // index.
        let record = encode_record("orphan", &source(), &blob);
        write_atomic(&scratch.0, &record_name(99), &record, "-").unwrap();
        drop(store);

        let (store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert_eq!(store.len(), 2);
        let ids: Vec<&str> = recovery.recovered.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["kept", "orphan"], "admission order, orphan adopted");
        // next_seq moved past the orphan's sequence number.
        assert!(store.next_seq > 99);
    }

    /// Torn, truncated, or garbage records are quarantined with a
    /// structured reason; recovery of the rest proceeds.
    #[test]
    fn damaged_records_are_quarantined_not_fatal() {
        let scratch = Scratch::new("quarantine");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("good", &source(), &blob).unwrap();

        // Torn record: a valid prefix of a real record.
        let record = encode_record("torn", &source(), &blob);
        fs::write(scratch.0.join(record_name(50)), &record[..record.len() / 2]).unwrap();
        // Garbage record.
        fs::write(scratch.0.join(record_name(51)), b"not a record").unwrap();
        // Record whose wrapper is valid but whose inner blob is damaged.
        let mut bad_blob = blob.clone();
        let n = bad_blob.len();
        bad_blob[n / 2] ^= 1;
        let record = encode_record("badblob", &source(), &bad_blob);
        fs::write(scratch.0.join(record_name(52)), record).unwrap();
        // A stale tmp from an interrupted write.
        fs::write(scratch.0.join("ckpt-00000000000000ff.blob.tmp"), b"half").unwrap();
        drop(store);

        let (store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert_eq!(store.len(), 1, "only the good record survives");
        assert_eq!(recovery.recovered[0].id, "good");
        assert_eq!(recovery.quarantined.len(), 3, "{:?}", recovery.quarantined);
        let reasons: HashMap<&str, &str> = recovery
            .quarantined
            .iter()
            .map(|(f, r)| (f.as_str(), r.as_str()))
            .collect();
        assert!(reasons[record_name(50).as_str()].contains("checksum"));
        assert!(reasons[record_name(51).as_str()].contains("bad magic"));
        assert!(reasons[record_name(52).as_str()].contains("inner checkpoint blob rejected"));
        assert!(recovery.notes.iter().any(|n| n.contains("stale tmp")));
        // The damage is preserved for post-mortem, out of the way.
        assert!(scratch
            .0
            .join(QUARANTINE_DIR)
            .join(record_name(51))
            .exists());

        // Recovery healed the index: a second open is clean.
        drop(store);
        let (_, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert!(recovery.quarantined.is_empty());
        assert_eq!(recovery.recovered.len(), 1);
    }

    /// A corrupt index is quarantined; the scan still recovers every
    /// valid record (the index is advisory, records are ground truth).
    #[test]
    fn corrupt_index_does_not_lose_records() {
        let scratch = Scratch::new("badindex");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("r1", &source(), &blob).unwrap();
        drop(store);
        fs::write(scratch.0.join(INDEX_FILE), b"scrambled").unwrap();

        let (store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(recovery.recovered[0].id, "r1");
        assert_eq!(recovery.quarantined.len(), 1);
        assert_eq!(recovery.quarantined[0].0, INDEX_FILE);
    }

    /// A dangling index entry (record removed, index rewrite lost) is
    /// healed silently with a note.
    #[test]
    fn dangling_index_entries_are_healed() {
        let scratch = Scratch::new("dangling");
        let blob = real_blob();
        let (mut store, _) = CheckpointStore::open(&scratch.0).unwrap();
        store.persist("gone", &source(), &blob).unwrap();
        // Simulate the crash between record delete and index rewrite.
        let (_, path) = store.files["gone"].clone();
        fs::remove_file(path).unwrap();
        drop(store);

        let (store, recovery) = CheckpointStore::open(&scratch.0).unwrap();
        assert!(store.is_empty());
        assert!(recovery
            .notes
            .iter()
            .any(|n| n.contains("dangling index entry")));
    }
}
