//! Crash-consistent epoch commits: double-slot checkpoint headers.
//!
//! A checkpoint *family* is a pair of shadow data files plus one tiny
//! header file. Epoch generation `g` writes its data into slot file
//! `g % 2` (never touching the previously committed slot), then — only
//! after every writer's data is durably down — publishes the epoch by
//! writing a checksummed 16-byte record into the header at slot offset
//! `(g % 2) * 16`. A reader picks the record with a valid checksum and
//! the highest generation, so at every instant the family reads as
//! *old-or-new, never torn*:
//!
//! - crash before the header write: the header still names `g - 1`,
//!   whose slot file is untouched;
//! - torn header write (the OST persisted only a prefix of the record):
//!   the checksum no longer matches the generation bytes, the record is
//!   ignored, and the other slot — holding `g - 1` — wins;
//! - crash after the header write: `g` is fully durable by protocol
//!   order, so naming it is safe.
//!
//! The header record is `[gen: u64 LE][gen ^ MAGIC: u64 LE]`. An
//! all-zero (never-written) slot is invalid because `0 ^ MAGIC != 0`.
//! The crash workload's driver decides *when* to commit (after the
//! generation's world has returned, out of any world); this module only
//! provides the naming scheme and the commit/recover primitives.

use flexio_pfs::{FileHandle, PfsError};

/// Checksum salt for header records. Any fixed odd-ish constant works;
/// this one is the splitmix64 increment, consistent with the fault
/// injector's hashing family.
pub const EPOCH_MAGIC: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bytes per header slot record.
pub const SLOT_BYTES: u64 = 16;

/// Path of a family's header file.
pub fn header_path(base: &str) -> String {
    format!("{base}.epoch")
}

/// Path of the shadow data file epoch `gen` writes into.
pub fn slot_path(base: &str, gen: u64) -> String {
    format!("{base}.slot{}", gen % 2)
}

fn encode_slot(gen: u64) -> [u8; SLOT_BYTES as usize] {
    let mut rec = [0u8; SLOT_BYTES as usize];
    rec[..8].copy_from_slice(&gen.to_le_bytes());
    rec[8..].copy_from_slice(&(gen ^ EPOCH_MAGIC).to_le_bytes());
    rec
}

fn decode_slot(rec: &[u8]) -> Option<u64> {
    let gen = u64::from_le_bytes(rec[..8].try_into().unwrap());
    let sum = u64::from_le_bytes(rec[8..16].try_into().unwrap());
    (gen ^ EPOCH_MAGIC == sum).then_some(gen)
}

/// Publish epoch `gen` on the family's header handle: write the
/// checksummed record into slot `(gen % 2) * 16` via the nonblocking
/// path. Call only after the epoch's data is durably down on
/// [`slot_path`]`(base, gen)`. Returns the completion time; a
/// [`PfsErrorKind::TornWrite`] means the record may be half-persisted —
/// which the checksum masks for readers — and a retry re-publishes it.
///
/// [`PfsErrorKind::TornWrite`]: flexio_pfs::PfsErrorKind::TornWrite
pub fn commit_epoch(hdr: &FileHandle, now: u64, gen: u64) -> Result<u64, PfsError> {
    let rec = encode_slot(gen);
    hdr.pwritev_nb(now, (gen % 2) * SLOT_BYTES, &[&rec]).wait(now)
}

/// Recover the committed generation from a family's header handle: the
/// valid-checksum record with the highest generation, or `None` if no
/// epoch was ever committed. Never reports a torn epoch — an invalid
/// record is skipped, not an error.
pub fn read_committed(hdr: &FileHandle, now: u64) -> Result<(u64, Option<u64>), PfsError> {
    let mut buf = [0u8; 2 * SLOT_BYTES as usize];
    let t = hdr.read(now, 0, &mut buf)?;
    let a = decode_slot(&buf[..SLOT_BYTES as usize]);
    let b = decode_slot(&buf[SLOT_BYTES as usize..]);
    let gen = match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    Ok((t, gen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexio_pfs::{FaultPlan, Pfs, PfsConfig};

    #[test]
    fn fresh_header_reads_uncommitted() {
        let pfs = Pfs::new(PfsConfig::test_tiny());
        let h = pfs.open(&header_path("ckpt"), 0);
        let (_, gen) = read_committed(&h, 0).unwrap();
        assert_eq!(gen, None, "all-zero slots must not decode as gen 0");
    }

    #[test]
    fn commit_sequence_alternates_slots_and_reads_latest() {
        let pfs = Pfs::new(PfsConfig::test_tiny());
        let h = pfs.open(&header_path("ckpt"), 0);
        let mut t = 0;
        for gen in 0..5u64 {
            t = commit_epoch(&h, t, gen).unwrap();
            let (t2, got) = read_committed(&h, t).unwrap();
            assert_eq!(got, Some(gen), "latest committed epoch must win");
            t = t2;
        }
        assert_eq!(slot_path("ckpt", 4), "ckpt.slot0");
        assert_eq!(slot_path("ckpt", 5), "ckpt.slot1");
    }

    #[test]
    fn gen_zero_is_a_valid_commit() {
        let pfs = Pfs::new(PfsConfig::test_tiny());
        let h = pfs.open(&header_path("ckpt"), 0);
        commit_epoch(&h, 0, 0).unwrap();
        let (_, gen) = read_committed(&h, 0).unwrap();
        assert_eq!(gen, Some(0));
    }

    #[test]
    fn torn_header_write_falls_back_to_previous_epoch() {
        // Publish epochs under a 50% torn-write plan. A torn publish of
        // gen g scribbles a checksum-invalid prefix over gen g-2's slot,
        // so readers must still see gen g-1 — old-or-new, never torn.
        let pfs = Pfs::with_faults(
            PfsConfig::test_tiny(),
            FaultPlan { seed: 7, torn_rate: 0.5, ..FaultPlan::default() },
        );
        let h = pfs.open(&header_path("ckpt"), 0);
        // Establish gen 0 durably (retrying a torn publish heals it).
        let mut t = 0u64;
        let mut landed = false;
        for _ in 0..64 {
            match commit_epoch(&h, t, 0) {
                Ok(fin) => {
                    t = fin;
                    landed = true;
                    break;
                }
                Err(e) => t = e.at,
            }
        }
        assert!(landed, "gen 0 should heal within 64 retries at rate 0.5");
        let mut committed = 0u64;
        let mut saw_tear = false;
        for gen in 1..40u64 {
            match commit_epoch(&h, t, gen) {
                Ok(fin) => {
                    t = fin;
                    committed = gen;
                    let (t2, got) = read_committed(&h, t).unwrap();
                    assert_eq!(got, Some(gen));
                    t = t2;
                }
                Err(e) => {
                    assert_eq!(e.kind, flexio_pfs::PfsErrorKind::TornWrite);
                    saw_tear = true;
                    let (_, got) = read_committed(&h, e.at).unwrap();
                    assert_eq!(
                        got,
                        Some(committed),
                        "torn publish of gen {gen} must fall back to gen {committed}"
                    );
                    break;
                }
            }
        }
        assert!(saw_tear, "rate 0.5 must tear within 40 publishes");
    }

    #[test]
    fn corrupt_slot_is_skipped_not_fatal() {
        let pfs = Pfs::new(PfsConfig::test_tiny());
        let h = pfs.open(&header_path("ckpt"), 0);
        let mut t = commit_epoch(&h, 0, 2).unwrap();
        t = commit_epoch(&h, t, 3).unwrap();
        // Scribble over gen 3's slot (offset 16): simulated partial record.
        t = h.write(t, SLOT_BYTES, &[0xde, 0xad]).unwrap();
        let (_, gen) = read_committed(&h, t).unwrap();
        assert_eq!(gen, Some(2), "corrupt slot must yield the surviving epoch");
    }
}
