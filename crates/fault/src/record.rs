//! A durable, append-only record log with FNV-64 checksummed lines and
//! atomic tmp+rename segment rotation — the storage substrate under the
//! engine's sweep journal.
//!
//! Layout under the log directory:
//!
//! ```text
//! <dir>/segment-0000.log    sealed (atomically renamed into place)
//! <dir>/segment-0001.log    sealed
//! <dir>/active.log          currently appended, flushed per record
//! ```
//!
//! Each record is one line, `"<fnv64:016x> <payload>\n"`, payload
//! newline-free (use [`escape`]/[`unescape`] to embed multi-line text).
//! [`encode`] and [`verify`] are the line format's one writer and one
//! checker; the engine's disk cache stores its entries in the same
//! lines. Readers walk sealed segments in order then the active tail, and
//! stop at the first corrupt or truncated record — a torn tail from a
//! crash loses at most the record being written, never earlier history.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use hetrta_api::wire::fnv64;

/// Errors from opening, appending to, or reading a record log.
#[derive(Debug)]
pub enum RecordError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// A payload handed to [`RecordLog::append`] contained a newline.
    PayloadNewline,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Io(message) => write!(f, "record log I/O: {message}"),
            RecordError::PayloadNewline => {
                write!(f, "record payload must be newline-free (escape it first)")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<std::io::Error> for RecordError {
    fn from(error: std::io::Error) -> RecordError {
        RecordError::Io(error.to_string())
    }
}

/// Name of the unsealed tail file.
const ACTIVE: &str = "active.log";

/// A checksummed append-only log over a directory of segments.
#[derive(Debug)]
pub struct RecordLog {
    dir: PathBuf,
    writer: Option<BufWriter<fs::File>>,
    next_segment: u32,
    appended: u64,
}

impl RecordLog {
    /// Opens (creating if needed) the log at `dir` for appending.
    /// Existing sealed segments are preserved; new appends go to the
    /// active tail.
    pub fn open(dir: &Path) -> Result<RecordLog, RecordError> {
        fs::create_dir_all(dir)?;
        let next_segment = sealed_segments(dir)?
            .last()
            .and_then(|path| segment_index(path))
            .map_or(0, |index| index + 1);
        Ok(RecordLog {
            dir: dir.to_owned(),
            writer: None,
            next_segment,
            appended: 0,
        })
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended through this handle (not counting prior runs).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one checksummed record and flushes it to the OS. The
    /// payload must be newline-free — embed structured text with
    /// [`escape`].
    pub fn append(&mut self, payload: &str) -> Result<(), RecordError> {
        if payload.contains('\n') {
            return Err(RecordError::PayloadNewline);
        }
        if self.writer.is_none() {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(ACTIVE))?;
            self.writer = Some(BufWriter::new(file));
        }
        let writer = self.writer.as_mut().expect("writer just ensured");
        writer.write_all(encode(payload).as_bytes())?;
        writer.flush()?;
        self.appended += 1;
        Ok(())
    }

    /// Seals the active tail: fsyncs it, then atomically renames it to
    /// the next `segment-NNNN.log`. A no-op when nothing is active.
    /// Subsequent appends start a fresh tail.
    pub fn seal(&mut self) -> Result<(), RecordError> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        let file = writer
            .into_inner()
            .map_err(|e| RecordError::Io(e.to_string()))?;
        file.sync_all()?;
        drop(file);
        let sealed = self
            .dir
            .join(format!("segment-{:04}.log", self.next_segment));
        fs::rename(self.dir.join(ACTIVE), sealed)?;
        self.next_segment += 1;
        Ok(())
    }

    /// Reads every valid record payload in order: sealed segments first,
    /// then the active tail. Reading stops at the first record whose
    /// checksum or shape doesn't verify — a torn tail truncates the
    /// replay rather than corrupting it.
    pub fn read_all(dir: &Path) -> Result<Vec<String>, RecordError> {
        let mut records = Vec::new();
        if !dir.exists() {
            return Ok(records);
        }
        for path in sealed_segments(dir)? {
            if !read_file_records(&path, &mut records)? {
                return Ok(records);
            }
        }
        let active = dir.join(ACTIVE);
        if active.exists() {
            read_file_records(&active, &mut records)?;
        }
        Ok(records)
    }
}

/// Reads records from one file into `out`; returns `false` when a
/// corrupt record stopped the scan early.
fn read_file_records(path: &Path, out: &mut Vec<String>) -> Result<bool, RecordError> {
    let bytes = fs::read(path)?;
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        let Some(payload) = verify(line) else {
            return Ok(false);
        };
        out.push(payload.to_owned());
    }
    Ok(true)
}

/// One record line, `"<fnv64:016x> <payload>\n"`. The payload must be
/// newline-free.
#[must_use]
pub fn encode(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv64(payload.as_bytes()))
}

/// The payload of one record line (without its trailing newline), or
/// `None` when the checksum, the separator or the UTF-8 does not
/// verify.
#[must_use]
pub fn verify(line: &[u8]) -> Option<&str> {
    let (sum, payload) = line.split_at_checked(16)?;
    let payload = payload.strip_prefix(b" ")?;
    let sum = u64::from_str_radix(std::str::from_utf8(sum).ok()?, 16).ok()?;
    if sum != fnv64(payload) {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// Sealed segment paths under `dir`, in index order.
fn sealed_segments(dir: &Path) -> Result<Vec<PathBuf>, RecordError> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| segment_index(path).is_some())
        .collect();
    segments.sort();
    Ok(segments)
}

/// Parses `segment-NNNN.log` into its index; `None` for other files.
fn segment_index(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let rest = name.strip_prefix("segment-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Escapes arbitrary text into a newline-free payload: `\` becomes
/// `\\` and newline becomes the two characters `\n`.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Inverts [`escape`]. Unknown escape sequences pass through verbatim
/// (the checksum already vouches for the record; this never fails).
#[must_use]
pub fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hetrta-record-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_across_seals() {
        let dir = temp_dir("roundtrip");
        let mut log = RecordLog::open(&dir).unwrap();
        log.append("alpha 1").unwrap();
        log.append("beta 2").unwrap();
        log.seal().unwrap();
        log.append("gamma 3").unwrap();
        assert_eq!(log.appended(), 3);
        drop(log);

        assert_eq!(
            RecordLog::read_all(&dir).unwrap(),
            vec!["alpha 1", "beta 2", "gamma 3"]
        );

        // Re-opening appends after the sealed segments.
        let mut log = RecordLog::open(&dir).unwrap();
        log.append("delta 4").unwrap();
        log.seal().unwrap();
        drop(log);
        assert_eq!(
            RecordLog::read_all(&dir).unwrap(),
            vec!["alpha 1", "beta 2", "gamma 3", "delta 4"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_replay_without_error() {
        let dir = temp_dir("torn");
        let mut log = RecordLog::open(&dir).unwrap();
        log.append("good 1").unwrap();
        log.append("good 2").unwrap();
        drop(log);

        // Tear the tail mid-record, as a crash during append would.
        let active = dir.join(ACTIVE);
        let text = fs::read_to_string(&active).unwrap();
        fs::write(&active, &text[..text.len() - 5]).unwrap();

        assert_eq!(RecordLog::read_all(&dir).unwrap(), vec!["good 1"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let dir = temp_dir("corrupt");
        let mut log = RecordLog::open(&dir).unwrap();
        log.append("kept").unwrap();
        log.append("mangled").unwrap();
        log.append("unreachable").unwrap();
        drop(log);

        let active = dir.join(ACTIVE);
        let text = fs::read_to_string(&active).unwrap();
        let flipped: String = text.replacen("mangled", "mangLed", 1);
        fs::write(&active, flipped).unwrap();

        assert_eq!(RecordLog::read_all(&dir).unwrap(), vec!["kept"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_corruption_stops_replay() {
        let dir = temp_dir("utf8");
        let mut log = RecordLog::open(&dir).unwrap();
        log.append("kept").unwrap();
        log.append("flipped").unwrap();
        drop(log);

        let active = dir.join(ACTIVE);
        let mut bytes = fs::read(&active).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = 0xFF;
        fs::write(&active, bytes).unwrap();

        assert_eq!(RecordLog::read_all(&dir).unwrap(), vec!["kept"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newline_payload_rejected() {
        let dir = temp_dir("newline");
        let mut log = RecordLog::open(&dir).unwrap();
        assert!(matches!(
            log.append("two\nlines"),
            Err(RecordError::PayloadNewline)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_roundtrips() {
        for text in [
            "plain",
            "with\nnewline",
            "back\\slash",
            "both\\\nmixed\n\\",
            "",
        ] {
            let escaped = escape(text);
            assert!(!escaped.contains('\n'));
            assert_eq!(unescape(&escaped), text);
        }
    }

    #[test]
    fn encode_verify_roundtrip_and_reject_defects() {
        let line = encode("results.v2 00ff sim 17");
        let body = line.strip_suffix('\n').unwrap();
        assert_eq!(verify(body.as_bytes()), Some("results.v2 00ff sim 17"));
        assert_eq!(verify(b""), None);
        assert_eq!(verify(&body.as_bytes()[..20]), None, "truncated");
        let mut flipped = body.as_bytes().to_vec();
        flipped[30] ^= 4;
        assert_eq!(verify(&flipped), None, "flipped byte");
        assert_eq!(verify(body.replacen(' ', "_", 1).as_bytes()), None);
    }

    #[test]
    fn missing_dir_reads_empty() {
        let dir = temp_dir("missing");
        assert!(RecordLog::read_all(&dir).unwrap().is_empty());
    }
}
