//! CRC-framed append-only record segments.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! ┌───────┬─────────┬───────────┬─────────┐
//! │ magic │ len u32 │ crc32 u32 │ payload │
//! │ 0xA7  │         │ (payload) │         │
//! └───────┴─────────┴───────────┴─────────┘
//! ```
//!
//! Recovery rule: on open, records are replayed until the first frame that
//! fails magic/length/CRC validation; everything after a torn write is
//! discarded (single-writer, crash-consistent append model — the same
//! contract as a WAL tail).

use crate::fault::{injected_io, AppendFault, FaultPlan};
use crate::stats::stats;
use crate::{Result, StoreError};
use mws_crypto::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

const MAGIC: u8 = 0xa7;
const HEADER: usize = 1 + 4 + 4;

/// Maximum payload size (16 MiB) — guards against reading a garbage length.
const MAX_RECORD: usize = 16 << 20;

/// Byte-level storage behind a segment.
#[derive(Debug)]
enum SegmentStorage {
    /// Volatile in-memory buffer.
    Memory(Vec<u8>),
    /// File-backed storage.
    File(File),
}

/// An append-only segment of framed records.
#[derive(Debug)]
pub struct Segment {
    storage: SegmentStorage,
    /// Logical end-of-log (bytes of valid frames).
    len: u64,
    /// Injected-failure schedule (chaos testing); `None` in production.
    faults: Option<FaultPlan>,
}

impl Segment {
    /// Opens an in-memory segment.
    pub fn memory() -> Self {
        Self {
            storage: SegmentStorage::Memory(Vec::new()),
            len: 0,
            faults: None,
        }
    }

    /// Opens (or creates) a file segment, scanning to find the valid tail.
    pub fn open_file(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut seg = Self {
            storage: SegmentStorage::File(file),
            len: 0,
            faults: None,
        };
        // Find the valid prefix by replaying.
        let bytes = seg.read_all()?;
        seg.len = valid_prefix_len(&bytes);
        let discarded = bytes.len() as u64 - seg.len;
        if discarded > 0 {
            stats().torn_tails.inc();
            stats().torn_tail_bytes.add(discarded);
            mws_obs::warn!(
                target: "mws_store",
                "torn WAL tail discarded on open",
                discarded_bytes = discarded,
                valid_bytes = seg.len,
            );
        }
        Ok(seg)
    }

    /// Attaches a fault-injection schedule; subsequent appends and syncs
    /// consult it. The handle is shared — the caller keeps a clone to steer
    /// the schedule.
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Total bytes of valid frames.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        match &mut self.storage {
            SegmentStorage::Memory(buf) => Ok(buf.clone()),
            SegmentStorage::File(f) => {
                let mut buf = Vec::new();
                f.seek(SeekFrom::Start(0))?;
                f.read_to_end(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// Appends one record, returning its byte offset.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if payload.len() > MAX_RECORD {
            return Err(StoreError::Codec("record exceeds MAX_RECORD"));
        }
        let offset = self.len;
        let mut frame = Vec::with_capacity(HEADER + payload.len());
        frame.push(MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match self.faults.as_ref().map(|f| f.on_append()) {
            Some(Some(AppendFault::Fail)) => {
                stats().append_errors.inc();
                return Err(injected_io("append failed before write"));
            }
            Some(Some(AppendFault::Tear)) => {
                // Crash mid-write: a partial frame lands on the medium, the
                // logical length does NOT advance, and the caller sees an
                // error. A later reopen must discard this torn tail.
                let torn = &frame[..HEADER.min(frame.len() - 1).max(1)];
                match &mut self.storage {
                    SegmentStorage::Memory(buf) => {
                        buf.truncate(self.len as usize);
                        buf.extend_from_slice(torn);
                    }
                    SegmentStorage::File(f) => {
                        f.seek(SeekFrom::Start(self.len))?;
                        f.write_all(torn)?;
                        f.flush()?;
                    }
                }
                stats().append_errors.inc();
                return Err(injected_io("append torn mid-frame"));
            }
            _ => {}
        }
        let start = Instant::now();
        let wrote = (|| -> Result<()> {
            match &mut self.storage {
                SegmentStorage::Memory(buf) => {
                    buf.truncate(self.len as usize); // drop any torn tail
                    buf.extend_from_slice(&frame);
                }
                SegmentStorage::File(f) => {
                    f.seek(SeekFrom::Start(self.len))?;
                    f.write_all(&frame)?;
                }
            }
            Ok(())
        })();
        if let Err(e) = wrote {
            stats().append_errors.inc();
            return Err(e);
        }
        stats().appends.inc();
        stats().wal_append_us.record_duration(start.elapsed());
        #[cfg(debug_assertions)]
        crate::cost::append();
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Flushes file-backed storage to the OS (durability point).
    pub fn sync(&mut self) -> Result<()> {
        if let Some(f) = &self.faults {
            if f.on_sync() {
                stats().fsync_errors.inc();
                return Err(injected_io("fsync failed"));
            }
        }
        if let SegmentStorage::File(f) = &mut self.storage {
            let start = Instant::now();
            let flushed = f.flush().and_then(|()| f.sync_data());
            if let Err(e) = flushed {
                stats().fsync_errors.inc();
                return Err(e.into());
            }
            stats().wal_fsync_us.record_duration(start.elapsed());
            #[cfg(debug_assertions)]
            crate::cost::fsync();
        }
        Ok(())
    }

    /// Iterates `(offset, payload)` over all valid records.
    pub fn iter(&mut self) -> Result<Vec<(u64, Vec<u8>)>> {
        let bytes = self.read_all()?;
        let bytes = &bytes[..(self.len as usize).min(bytes.len())];
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            match decode_frame(bytes, pos) {
                Some((payload, next)) => {
                    out.push((pos as u64, payload));
                    pos = next;
                }
                None => break,
            }
        }
        Ok(out)
    }
}

/// Decodes the frame starting at `pos`; returns `(payload, next_pos)`.
fn decode_frame(bytes: &[u8], pos: usize) -> Option<(Vec<u8>, usize)> {
    if pos + HEADER > bytes.len() || bytes[pos] != MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().ok()?) as usize;
    if len > MAX_RECORD || pos + HEADER + len > bytes.len() {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().ok()?);
    let payload = &bytes[pos + HEADER..pos + HEADER + len];
    if crc32(payload) != crc {
        return None;
    }
    Some((payload.to_vec(), pos + HEADER + len))
}

/// Length of the valid frame prefix (recovery scan).
fn valid_prefix_len(bytes: &[u8]) -> u64 {
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_frame(bytes, pos) {
            Some((_, next)) => pos = next,
            None => break,
        }
    }
    pos as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_memory() {
        let mut seg = Segment::memory();
        let o1 = seg.append(b"first").unwrap();
        let o2 = seg.append(b"second record").unwrap();
        let all = seg.iter().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], (o1, b"first".to_vec()));
        assert_eq!(all[1], (o2, b"second record".to_vec()));
    }

    #[test]
    fn empty_record_roundtrips() {
        let mut seg = Segment::memory();
        let o = seg.append(b"").unwrap();
        assert_eq!(seg.iter().unwrap(), [(o, Vec::new())]);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut seg = Segment::memory();
        assert!(matches!(
            seg.append(&vec![0u8; MAX_RECORD + 1]),
            Err(StoreError::Codec(_))
        ));
    }

    #[test]
    fn file_segment_persists() {
        let dir = std::env::temp_dir().join(format!("mws-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.seg");
        let _ = std::fs::remove_file(&path);
        {
            let mut seg = Segment::open_file(&path).unwrap();
            seg.append(b"alpha").unwrap();
            seg.append(b"beta").unwrap();
            seg.sync().unwrap();
        }
        let mut seg = Segment::open_file(&path).unwrap();
        let all = seg.iter().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].1, b"beta");
        // Appending after reopen continues the log.
        seg.append(b"gamma").unwrap();
        assert_eq!(seg.iter().unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_recovery() {
        let dir = std::env::temp_dir().join(format!("mws-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.seg");
        let _ = std::fs::remove_file(&path);
        {
            let mut seg = Segment::open_file(&path).unwrap();
            seg.append(b"good one").unwrap();
            seg.append(b"good two").unwrap();
            seg.sync().unwrap();
        }
        // Simulate a torn write: append garbage bytes directly.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[MAGIC, 0xff, 0xff, 0x00, 0x00, 1, 2, 3])
                .unwrap();
        }
        let mut seg = Segment::open_file(&path).unwrap();
        let all = seg.iter().unwrap();
        assert_eq!(all.len(), 2, "torn tail discarded");
        // New appends overwrite the torn tail cleanly.
        seg.append(b"good three").unwrap();
        assert_eq!(seg.iter().unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_detected() {
        let dir = std::env::temp_dir().join(format!("mws-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t3.seg");
        let _ = std::fs::remove_file(&path);
        {
            let mut seg = Segment::open_file(&path).unwrap();
            seg.append(b"payload-under-test").unwrap();
            seg.sync().unwrap();
        }
        // Flip a payload byte on disk.
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let n = bytes.len();
            bytes[n - 3] ^= 0x40;
            std::fs::write(&path, bytes).unwrap();
        }
        let mut seg = Segment::open_file(&path).unwrap();
        assert_eq!(seg.iter().unwrap().len(), 0, "bad CRC drops the record");
        std::fs::remove_file(&path).unwrap();
    }
}
