//! Length-delimited binary frames with magic, version and checksum — the
//! wire layer under every serialized outcome, aggregate update, and the
//! `hetrta serve` protocol.
//!
//! A frame is:
//!
//! ```text
//! "HRTA"  version:u16be  kind:u8  len:u32be  payload[len]  fnv64(payload):u64be
//! ```
//!
//! in the style of the disk cache's `magic \n payload \n checksum` entry
//! files, binary and length-delimited so frames can be streamed over a
//! socket. The robustness contract mirrors the disk cache's: corrupt,
//! truncated, version-bumped or oversized frames decode to a **typed
//! [`WireError`]** — never a panic, never silent garbage — so a peer
//! speaking a newer (or broken) dialect degrades to a clean protocol
//! error.

use std::io::{Read, Write};

/// The four magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"HRTA";

/// Wire format version; bumping it orphans (never misreads) frames
/// written by older builds. Version 2: aggregate updates name their cell
/// shape and carry one token per cell statistic.
pub const WIRE_VERSION: u16 = 2;

/// Upper bound on a frame's payload length. A garbage length field must
/// not make a reader allocate gigabytes before the checksum can reject
/// the frame.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Frame kind tag of an encoded [`AnalysisOutcome`](crate::AnalysisOutcome).
pub const KIND_OUTCOME: u8 = 0x10;

/// Bytes before the payload: magic (4) + version (2) + kind (1) + len (4).
const HEADER_LEN: usize = 11;

/// Bytes after the payload: the FNV-1a checksum.
const TRAILER_LEN: usize = 8;

/// FNV-1a over the payload bytes — the same per-frame corruption check
/// the disk cache applies per entry.
#[must_use]
pub fn fnv64(payload: &[u8]) -> u64 {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in payload {
        state ^= u64::from(byte);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Why a frame (or its payload) failed to decode. Every defect an
/// untrusted byte stream can exhibit maps to exactly one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended cleanly at a frame boundary (a peer hung up).
    Eof,
    /// The first four bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// The frame was written by a different format version.
    Version {
        /// Version found in the frame.
        got: u16,
        /// Version this build speaks.
        want: u16,
    },
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// Declared length.
        len: u32,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// The payload bytes do not match the frame's checksum.
    Checksum,
    /// The frame is intact but its payload does not parse.
    Malformed(String),
    /// An I/O error underneath the frame layer.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "stream closed"),
            WireError::BadMagic => write!(f, "bad frame magic (not a hetrta wire stream)"),
            WireError::Version { got, want } => {
                write!(
                    f,
                    "wire version mismatch: frame v{got}, this build speaks v{want}"
                )
            }
            WireError::Oversize { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
                )
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Checksum => write!(f, "frame checksum mismatch (corrupt payload)"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one frame into a buffer.
#[must_use]
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_be_bytes(),
    );
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_be_bytes());
    out
}

/// Validates a header and returns `(kind, payload_len)`.
fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), WireError> {
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::Version {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let kind = header[6];
    let len = u32::from_be_bytes([header[7], header[8], header[9], header[10]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize { len });
    }
    Ok((kind, len as usize))
}

/// Decodes one complete frame from a buffer, returning its kind and a
/// view of the verified payload. The buffer must hold exactly one frame;
/// trailing bytes are refused (a buffer is not a stream).
///
/// # Errors
///
/// Every defect maps to its [`WireError`] variant; nothing panics.
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (kind, len) = decode_header(&header)?;
    let total = HEADER_LEN + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    if buf.len() > total {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after the frame",
            buf.len() - total
        )));
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let mut checksum = [0u8; TRAILER_LEN];
    checksum.copy_from_slice(&buf[HEADER_LEN + len..total]);
    if u64::from_be_bytes(checksum) != fnv64(payload) {
        return Err(WireError::Checksum);
    }
    Ok((kind, payload))
}

/// Injection seam for deterministic wire-fault testing.
///
/// The frame layer stays fault-free by default: [`write_frame`] and
/// [`read_frame`] never consult a plan. Codecs that opt in (the dist
/// coordinator/worker link under `--chaos`) thread a plan through
/// [`write_frame_with`] / [`read_frame_with`], and the receiving side
/// must degrade to a typed [`WireError`] — the same contract untrusted
/// bytes already get. Implemented by `hetrta-fault`'s `FaultPlan`.
pub trait FrameFaults: Send + Sync {
    /// May mutate one encoded outgoing frame in place (truncation, a
    /// bitflip corrupting payload or checksum). Returns `true` when a
    /// fault was injected.
    fn corrupt_frame(&self, frame: &mut Vec<u8>) -> bool;

    /// An artificial delay to impose before reading the next frame (a
    /// stalled peer), or `None` to read immediately.
    fn read_stall(&self) -> Option<std::time::Duration>;
}

/// Writes one frame to a stream.
///
/// # Errors
///
/// [`WireError::Io`] when the underlying write fails.
pub fn write_frame<W: Write>(writer: &mut W, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    write_frame_with(writer, kind, payload, None)
}

/// [`write_frame`] with an optional fault-injection plan applied to the
/// encoded bytes (the wire analogue of a lossy link).
///
/// # Errors
///
/// [`WireError::Io`] when the underlying write fails.
pub fn write_frame_with<W: Write>(
    writer: &mut W,
    kind: u8,
    payload: &[u8],
    faults: Option<&dyn FrameFaults>,
) -> Result<(), WireError> {
    let mut frame = encode_frame(kind, payload);
    if let Some(faults) = faults {
        faults.corrupt_frame(&mut frame);
    }
    writer
        .write_all(&frame)
        .and_then(|()| writer.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Reads one frame from a stream, returning its kind and verified
/// payload.
///
/// A clean end-of-stream *at a frame boundary* is [`WireError::Eof`]
/// (the peer hung up between frames); an end-of-stream *inside* a frame
/// is [`WireError::Truncated`].
///
/// # Errors
///
/// Every defect maps to its [`WireError`] variant; nothing panics.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<(u8, Vec<u8>), WireError> {
    read_frame_with(reader, None)
}

/// [`read_frame`] with an optional fault-injection plan consulted before
/// the read (a stalled-peer delay). Corruption is injected on the *write*
/// side ([`write_frame_with`]) so the reader exercises its real decode
/// path against the defective bytes.
///
/// # Errors
///
/// Every defect maps to its [`WireError`] variant; nothing panics.
pub fn read_frame_with<R: Read>(
    reader: &mut R,
    faults: Option<&dyn FrameFaults>,
) -> Result<(u8, Vec<u8>), WireError> {
    if let Some(stall) = faults.and_then(FrameFaults::read_stall) {
        std::thread::sleep(stall);
    }
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Eof
                } else {
                    WireError::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let (kind, len) = decode_header(&header)?;
    let mut rest = vec![0u8; len + TRAILER_LEN];
    reader.read_exact(&mut rest).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    })?;
    let payload = &rest[..len];
    let mut checksum = [0u8; TRAILER_LEN];
    checksum.copy_from_slice(&rest[len..]);
    if u64::from_be_bytes(checksum) != fnv64(payload) {
        return Err(WireError::Checksum);
    }
    rest.truncate(len);
    Ok((kind, rest))
}

// ---------------------------------------------------------------------------
// Shared payload helpers
// ---------------------------------------------------------------------------
//
// Every textual payload in the workspace — the engine's spec/event/update
// codecs, the serve request/reply protocol, the dist coordinator frames —
// parses with the same few primitives: typed `Malformed` construction,
// number parsing that names the field, f64s as sixteen-hex-digit bit
// patterns (so floats survive the wire bitwise), and a whitespace token
// cursor that rejects both truncated and over-long lines.

/// Builds a [`WireError::Malformed`] — the one-liner every payload codec
/// reaches for.
pub fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Parses a number, mapping failure to a [`WireError::Malformed`] that
/// names the field (`what`).
///
/// # Errors
///
/// [`WireError::Malformed`] when `s` does not parse as `T`.
pub fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, WireError> {
    s.parse()
        .map_err(|_| malformed(format!("unparseable {what} `{s}`")))
}

/// Interprets a frame payload as UTF-8 text, naming the frame (`what`) on
/// failure.
///
/// # Errors
///
/// [`WireError::Malformed`] when the payload is not valid UTF-8.
pub fn text_payload(payload: &[u8], what: &str) -> Result<String, WireError> {
    String::from_utf8(payload.to_vec())
        .map_err(|_| malformed(format!("{what} payload is not utf-8")))
}

/// Renders an `f64` as its sixteen-hex-digit bit pattern — the bitwise
/// float encoding every textual codec in the workspace uses.
#[must_use]
pub fn fbits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses one [`fbits`] pattern back to the identical `f64`.
///
/// # Errors
///
/// [`WireError::Malformed`] unless `s` is exactly 16 hex digits.
pub fn parse_fbits(s: &str) -> Result<f64, WireError> {
    if s.len() != 16 {
        return Err(malformed(format!("float bits `{s}` are not 16 hex digits")));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("unparseable float bits `{s}`")))
}

/// [`fbits`] for optional floats: `None` travels as `-`.
#[must_use]
pub fn opt_fbits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".into(), fbits)
}

/// Parses one [`opt_fbits`] field.
///
/// # Errors
///
/// [`WireError::Malformed`] unless `s` is `-` or 16 hex digits.
pub fn parse_opt_fbits(s: &str) -> Result<Option<f64>, WireError> {
    if s == "-" {
        Ok(None)
    } else {
        parse_fbits(s).map(Some)
    }
}

/// Space-separated token cursor with typed errors for missing fields —
/// `what` names the line being parsed in every error message.
#[derive(Debug)]
pub struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
    what: &'static str,
}

impl<'a> Tokens<'a> {
    /// A cursor over the whitespace-separated tokens of `line`.
    #[must_use]
    pub fn new(line: &'a str, what: &'static str) -> Self {
        Tokens {
            iter: line.split_whitespace(),
            what,
        }
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] when the line ran out of fields.
    #[allow(clippy::should_implement_trait)] // fallible by design: Result, not Option
    pub fn next(&mut self) -> Result<&'a str, WireError> {
        self.iter
            .next()
            .ok_or_else(|| malformed(format!("truncated {} line", self.what)))
    }

    /// Consumes the cursor, refusing trailing fields — a line with more
    /// tokens than its schema is as defective as a truncated one.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] naming the first trailing field.
    pub fn finish(mut self) -> Result<(), WireError> {
        match self.iter.next() {
            None => Ok(()),
            Some(extra) => Err(malformed(format!(
                "trailing field `{extra}` on {} line",
                self.what
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_helpers_roundtrip_and_reject() {
        for x in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, 0.1 + 0.2] {
            let bits = fbits(x);
            assert_eq!(parse_fbits(&bits).unwrap().to_bits(), x.to_bits());
            assert_eq!(
                parse_opt_fbits(&opt_fbits(Some(x)))
                    .unwrap()
                    .map(f64::to_bits),
                Some(x.to_bits())
            );
        }
        assert_eq!(parse_opt_fbits(&opt_fbits(None)).unwrap(), None);
        for bad in ["", "zz", "0123", &"f".repeat(17)] {
            assert!(matches!(parse_fbits(bad), Err(WireError::Malformed(_))));
        }
        assert_eq!(parse_num::<u32>("17", "count").unwrap(), 17);
        assert!(matches!(
            parse_num::<u32>("many", "count"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            text_payload(&[0xFF, 0xFE], "blob"),
            Err(WireError::Malformed(_))
        ));

        let mut tokens = Tokens::new("alpha 7", "test");
        assert_eq!(tokens.next().unwrap(), "alpha");
        assert_eq!(tokens.next().unwrap(), "7");
        assert!(matches!(tokens.next(), Err(WireError::Malformed(_))));
        assert!(Tokens::new("a", "t")
            .finish()
            .unwrap_err()
            .to_string()
            .contains("trailing"));
        let mut exact = Tokens::new("one", "t");
        exact.next().unwrap();
        exact.finish().unwrap();
    }

    #[test]
    fn buffer_roundtrip() {
        let frame = encode_frame(0x42, b"hello frames");
        let (kind, payload) = decode_frame(&frame).unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(payload, b"hello frames");
        // Empty payloads are legal frames.
        let empty = encode_frame(0x01, b"");
        assert_eq!(decode_frame(&empty).unwrap(), (0x01, &b""[..]));
    }

    #[test]
    fn stream_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x07, b"first").unwrap();
        write_frame(&mut buf, 0x08, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), (0x07, b"first".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), (0x08, b"second".to_vec()));
        assert_eq!(read_frame(&mut cursor), Err(WireError::Eof));
    }

    #[test]
    fn every_defect_is_typed() {
        let good = encode_frame(0x11, b"payload bytes");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_frame(&bad_magic), Err(WireError::BadMagic));

        let mut bumped = good.clone();
        bumped[5] = 99;
        assert_eq!(
            decode_frame(&bumped),
            Err(WireError::Version {
                got: 99,
                want: WIRE_VERSION
            })
        );

        let mut corrupt = good.clone();
        let flip = HEADER_LEN + 2;
        corrupt[flip] ^= 0xFF;
        assert_eq!(decode_frame(&corrupt), Err(WireError::Checksum));

        assert_eq!(decode_frame(&good[..5]), Err(WireError::Truncated));
        assert_eq!(
            decode_frame(&good[..good.len() - 3]),
            Err(WireError::Truncated)
        );

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            decode_frame(&trailing),
            Err(WireError::Malformed(_))
        ));

        let mut oversize = good;
        oversize[7..11].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_frame(&oversize),
            Err(WireError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn stream_defects_are_typed_too() {
        let good = encode_frame(0x22, b"stream payload");
        // Truncation mid-header and mid-payload.
        for cut in [3, HEADER_LEN + 4] {
            let mut cursor = std::io::Cursor::new(good[..cut].to_vec());
            assert_eq!(read_frame(&mut cursor), Err(WireError::Truncated));
        }
        // Corruption.
        let mut corrupt = good.clone();
        corrupt[HEADER_LEN] ^= 0x01;
        let mut cursor = std::io::Cursor::new(corrupt);
        assert_eq!(read_frame(&mut cursor), Err(WireError::Checksum));
        // Version bump.
        let mut bumped = good;
        bumped[4] = 0xAB;
        let mut cursor = std::io::Cursor::new(bumped);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Version { .. })
        ));
    }

    #[test]
    fn errors_render_human_readably() {
        for (err, needle) in [
            (WireError::BadMagic, "magic"),
            (WireError::Version { got: 2, want: 1 }, "v2"),
            (WireError::Checksum, "checksum"),
            (WireError::Truncated, "truncated"),
            (WireError::Eof, "closed"),
            (WireError::Oversize { len: 1 }, "bound"),
            (WireError::Malformed("x".into()), "x"),
            (WireError::Io("broken pipe".into()), "broken pipe"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
