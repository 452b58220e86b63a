//! Crash-safe persistence.
//!
//! `knowledge.json` is the agent's only durable state, so losing it to
//! a crash mid-write (or to a corrupted disk block) silently destroys
//! everything the agent learned. This module makes every save atomic
//! and every load corruption-tolerant:
//!
//! * **Atomic write** — the payload is written to a sibling temp file,
//!   fsynced, and renamed over the target, so readers only ever see a
//!   complete old file or a complete new file.
//! * **Checksum envelope** — a JSON payload is wrapped in
//!   `{"checksum": "<fnv64 hex>", "body": <payload>}`, a binary one
//!   behind a magic, length and checksum header ([`save_atomic_bytes`]),
//!   so truncation and bit-rot are *detected* at load, not discovered as
//!   subtly wrong behaviour later.
//! * **`.bak` rotation** — the previous good file is kept as `<path>.bak`
//!   and loads fall back to it when the primary fails verification.
//!
//! Both envelopes share one writer (`write_atomic`) and one reader
//! (`read_with_backup`); they differ only in how they wrap and verify.
//!
//! Files written before this module existed (plain payloads with no
//! envelope) still load: a top-level object without the envelope keys is
//! treated as the payload itself.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for
/// detecting truncation and corruption (this is an integrity check,
/// not a cryptographic one).
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// `path` with `suffix` appended to its file name.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// The `<path>.bak` sibling used for rotation and recovery.
pub fn backup_path(path: &Path) -> PathBuf {
    sibling(path, ".bak")
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Wrap `payload` (which must be valid JSON) in a checksum envelope.
fn envelope(payload: &str) -> io::Result<String> {
    let body = serde_json::parse(payload)
        .map_err(|e| invalid(format!("payload is not valid json: {e}")))?;
    let canonical = serde_json::to_string(&body)
        .map_err(|e| invalid(format!("payload does not re-serialize: {e}")))?;
    let checksum = format!("{:016x}", fnv64(canonical.as_bytes()));
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("checksum".to_string(), serde_json::Value::String(checksum));
    obj.insert("body".to_string(), body);
    serde_json::to_string_pretty(&serde_json::Value::Object(obj))
        .map_err(|e| invalid(format!("envelope does not serialize: {e}")))
}

/// The one write path of both envelopes: temp file + fsync, rotate the
/// current file to `<path>.bak`, rename the temp file into place. A
/// crash at any point leaves either the old file or the new file intact
/// on disk.
fn write_atomic(path: &Path, wrapped: &[u8]) -> io::Result<()> {
    let tmp = sibling(path, ".tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(wrapped)?;
        f.sync_all()?;
    }
    if path.exists() {
        std::fs::rename(path, backup_path(path))?;
    }
    std::fs::rename(&tmp, path)
}

/// The one read path of both envelopes: read and `verify` the primary,
/// falling back to `<path>.bak` when it is missing, truncated, or fails
/// verification (an `InvalidData` error prefixed with the file's path).
/// The primary's error is kept when the backup also fails, since that
/// is the more useful diagnosis (a missing primary stays
/// [`io::ErrorKind::NotFound`]).
fn read_with_backup<T>(path: &Path, verify: fn(Vec<u8>) -> Result<T, String>) -> io::Result<T> {
    let read = |p: &Path| {
        let raw = std::fs::read(p)?;
        verify(raw).map_err(|e| invalid(format!("{}: {e}", p.display())))
    };
    read(path).or_else(|primary_err| read(&backup_path(path)).map_err(|_| primary_err))
}

/// Atomically persist `payload` (a JSON document) to `path` in the
/// checksum envelope (see `write_atomic`).
pub fn save_atomic(path: &Path, payload: &str) -> io::Result<()> {
    write_atomic(path, envelope(payload)?.as_bytes())
}

/// Verify one JSON file's bytes, returning the payload JSON.
fn verify_json(raw: Vec<u8>) -> Result<String, String> {
    let raw = String::from_utf8(raw).map_err(|e| format!("not valid utf-8: {e}"))?;
    let value = serde_json::parse(&raw).map_err(|e| format!("not valid json: {e}"))?;
    let serde_json::Value::Object(mut obj) = value else {
        // Non-object JSON can't be an envelope; treat as a legacy payload.
        return Ok(raw);
    };
    let (Some(serde_json::Value::String(expected)), Some(body)) =
        (obj.remove("checksum"), obj.remove("body"))
    else {
        // Legacy plain file written before checksum envelopes existed.
        return Ok(raw);
    };
    let canonical =
        serde_json::to_string(&body).map_err(|e| format!("body does not re-serialize: {e}"))?;
    let actual = format!("{:016x}", fnv64(canonical.as_bytes()));
    if actual != expected {
        return Err(format!(
            "checksum mismatch (stored {expected}, computed {actual})"
        ));
    }
    Ok(canonical)
}

/// Load the JSON payload from `path`, falling back to `<path>.bak` (see
/// `read_with_backup`).
pub fn load_with_backup(path: &Path) -> io::Result<String> {
    read_with_backup(path, verify_json)
}

/// Magic prefix of the binary checksum envelope (see
/// [`save_atomic_bytes`]). Versioned: bump the trailing digit on any
/// layout change.
const BIN_MAGIC: &[u8; 8] = b"IRABINE1";

/// Atomically persist a binary `payload` to `path` in the binary
/// checksum envelope (see `write_atomic`).
///
/// Layout: `[magic 8B][payload_len u64 LE][fnv64(payload) u64 LE][payload]`.
pub fn save_atomic_bytes(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut wrapped = Vec::with_capacity(payload.len() + 24);
    wrapped.extend_from_slice(BIN_MAGIC);
    wrapped.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    wrapped.extend_from_slice(&fnv64(payload).to_le_bytes());
    wrapped.extend_from_slice(payload);
    write_atomic(path, &wrapped)
}

/// Verify one binary envelope, returning the payload bytes.
fn verify_bytes(mut raw: Vec<u8>) -> Result<Vec<u8>, String> {
    if raw.len() < 24 || &raw[..8] != BIN_MAGIC {
        return Err("not a binary envelope (bad or truncated header)".into());
    }
    let len = u64::from_le_bytes(raw[8..16].try_into().unwrap()) as usize;
    let expected = u64::from_le_bytes(raw[16..24].try_into().unwrap());
    let payload = raw.split_off(24);
    if payload.len() != len {
        return Err(format!(
            "payload length mismatch (header says {len}, file has {})",
            payload.len()
        ));
    }
    let actual = fnv64(&payload);
    if actual != expected {
        return Err(format!(
            "checksum mismatch (stored {expected:016x}, computed {actual:016x})"
        ));
    }
    Ok(payload)
}

/// Load the binary payload from `path`, falling back to `<path>.bak`
/// (see `read_with_backup`).
pub fn load_bytes_with_backup(path: &Path) -> io::Result<Vec<u8>> {
    read_with_backup(path, verify_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ira-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(backup_path(&path)).ok();
        path
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_preserves_the_payload() {
        let path = temp_path("round.json");
        save_atomic(&path, r#"{"answer": 42, "who": "agent"}"#).unwrap();
        let back = load_with_backup(&path).unwrap();
        let value = serde_json::parse(&back).unwrap();
        assert_eq!(serde_json::to_string(&value).unwrap(), back);
        assert!(back.contains("42"));
    }

    #[test]
    fn saved_files_carry_a_verifiable_checksum() {
        let path = temp_path("sum.json");
        save_atomic(&path, r#"{"k": "v"}"#).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.contains("\"checksum\""));
        assert!(raw.contains("\"body\""));
    }

    #[test]
    fn rewrite_rotates_the_previous_file_to_bak() {
        let path = temp_path("rot.json");
        save_atomic(&path, r#"{"version": 1}"#).unwrap();
        save_atomic(&path, r#"{"version": 2}"#).unwrap();
        assert!(load_with_backup(&path).unwrap().contains('2'));
        let bak = load_with_backup(&backup_path(&path)).unwrap();
        assert!(
            bak.contains('1'),
            "previous generation must survive as .bak"
        );
    }

    #[test]
    fn truncated_primary_falls_back_to_bak() {
        let path = temp_path("trunc.json");
        save_atomic(&path, r#"{"generation": 1}"#).unwrap();
        save_atomic(&path, r#"{"generation": 2}"#).unwrap();
        // Simulate a crash mid-write / disk corruption: cut the file.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let recovered = load_with_backup(&path).unwrap();
        assert!(
            recovered.contains('1'),
            "must recover generation 1 from .bak"
        );
    }

    #[test]
    fn bitflip_fails_the_checksum_and_falls_back() {
        let path = temp_path("flip.json");
        save_atomic(&path, r#"{"value": "aaaa"}"#).unwrap();
        save_atomic(&path, r#"{"value": "bbbb"}"#).unwrap();
        // Corrupt the body while keeping the file syntactically valid.
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, raw.replace("bbbb", "cccc")).unwrap();
        let recovered = load_with_backup(&path).unwrap();
        assert!(
            recovered.contains("aaaa"),
            "checksum mismatch must trigger fallback"
        );
    }

    #[test]
    fn missing_file_and_backup_is_an_error() {
        let path = temp_path("absent.json");
        assert!(load_with_backup(&path).is_err());
    }

    #[test]
    fn legacy_plain_files_still_load() {
        let path = temp_path("legacy.json");
        std::fs::write(&path, r#"{"old": "format"}"#).unwrap();
        let payload = load_with_backup(&path).unwrap();
        assert!(payload.contains("old"));
    }

    #[test]
    fn binary_round_trip_preserves_bytes() {
        let path = temp_path("bin.graph");
        let payload: Vec<u8> = (0..=255u8).collect();
        save_atomic_bytes(&path, &payload).unwrap();
        assert_eq!(load_bytes_with_backup(&path).unwrap(), payload);
    }

    #[test]
    fn binary_rewrite_rotates_to_bak_and_truncation_falls_back() {
        let path = temp_path("binrot.graph");
        save_atomic_bytes(&path, b"generation-one").unwrap();
        save_atomic_bytes(&path, b"generation-two").unwrap();
        assert_eq!(load_bytes_with_backup(&path).unwrap(), b"generation-two");
        // Truncate the primary, as a crash mid-write would.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert_eq!(
            load_bytes_with_backup(&path).unwrap(),
            b"generation-one",
            "must recover the previous generation from .bak"
        );
    }

    #[test]
    fn binary_bitflip_fails_checksum_and_falls_back() {
        let path = temp_path("binflip.graph");
        save_atomic_bytes(&path, b"aaaa-payload").unwrap();
        save_atomic_bytes(&path, b"bbbb-payload").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        assert_eq!(load_bytes_with_backup(&path).unwrap(), b"aaaa-payload");
    }

    #[test]
    fn binary_bad_magic_and_missing_file_are_errors() {
        let path = temp_path("binmagic.graph");
        std::fs::write(&path, b"NOTMAGIC-and-some-payload-bytes!").unwrap();
        assert!(load_bytes_with_backup(&path).is_err());
        let absent = temp_path("binabsent.graph");
        assert!(load_bytes_with_backup(&absent).is_err());
    }
}
