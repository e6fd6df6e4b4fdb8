//! Message segmentation — paper §VIII future work.
//!
//! "Another future feature would be to divide a message into segments, where
//! each segment has a different attribute assigned. In such a case a message
//! may provide three parts … total consumption in a day, error notifications
//! and events. Each part may be important to different service providers,
//! and a case may arise where sharing of this information would break
//! confidentiality."
//!
//! Each segment's plaintext is framed with a group header
//! (`group_id ‖ index ‖ total`) before encryption, so an RC that receives
//! several segments of one reading can reassemble them — and an RC entitled
//! to only one attribute learns nothing about the others (each segment is
//! encrypted under its own attribute key).

use mws_crypto::Rng;
use mws_wire::{WireReader, WireWriter};

/// Identifies one multi-segment message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentGroup {
    /// Random group identifier.
    pub group_id: [u8; 12],
    /// Originating device.
    pub sd_id: String,
    /// Number of segments.
    pub total: u32,
}

/// A decoded segment frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentFrame {
    /// Group identifier.
    pub group_id: [u8; 12],
    /// Originating device.
    pub sd_id: String,
    /// Index within the group.
    pub index: u32,
    /// Group size.
    pub total: u32,
    /// Segment payload.
    pub payload: Vec<u8>,
}

impl SegmentGroup {
    /// Starts a new group of `total` segments.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, sd_id: &str, total: usize) -> Self {
        let mut group_id = [0u8; 12];
        rng.fill_bytes(&mut group_id);
        Self {
            group_id,
            sd_id: sd_id.to_string(),
            total: total as u32,
        }
    }

    /// Frames one segment's plaintext.
    pub fn frame_segment(&self, index: usize, payload: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bytes(&self.group_id)
            .string(&self.sd_id)
            .u32(index as u32)
            .u32(self.total)
            .bytes(payload);
        w.finish()
    }
}

impl SegmentFrame {
    /// Parses a framed segment (the inverse of
    /// [`SegmentGroup::frame_segment`]).
    pub fn parse(framed: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(framed);
        let gid = r.bytes().ok()?;
        let group_id: [u8; 12] = gid.try_into().ok()?;
        let sd_id = r.string().ok()?;
        let index = r.u32().ok()?;
        let total = r.u32().ok()?;
        let payload = r.bytes().ok()?;
        r.finish().ok()?;
        if index >= total {
            return None;
        }
        Some(Self {
            group_id,
            sd_id,
            index,
            total,
            payload,
        })
    }
}

/// Reassembles segment frames into complete groups.
///
/// Call [`Reassembler::add`] with every decrypted frame; complete groups are
/// returned as `(group, ordered payloads)` once all members arrive.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: std::collections::HashMap<[u8; 12], Vec<Option<SegmentFrame>>>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a frame; returns the completed group's payloads when this frame
    /// was the last missing member.
    pub fn add(&mut self, frame: SegmentFrame) -> Option<Vec<Vec<u8>>> {
        let slots = self
            .pending
            .entry(frame.group_id)
            .or_insert_with(|| vec![None; frame.total as usize]);
        if slots.len() != frame.total as usize {
            return None; // inconsistent total: ignore
        }
        let idx = frame.index as usize;
        if slots[idx].is_some() {
            return None; // duplicate
        }
        slots[idx] = Some(frame.clone());
        if slots.iter().all(Option::is_some) {
            let done = self.pending.remove(&frame.group_id).expect("present");
            Some(
                done.into_iter()
                    .map(|f| f.expect("all present").payload)
                    .collect(),
            )
        } else {
            None
        }
    }

    /// Number of incomplete groups held.
    pub fn pending_groups(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mws_crypto::HmacDrbg;

    #[test]
    fn frame_parse_roundtrip() {
        let mut rng = HmacDrbg::from_u64(1);
        let group = SegmentGroup::new(&mut rng, "meter-1", 3);
        let framed = group.frame_segment(1, b"errors: none");
        let frame = SegmentFrame::parse(&framed).unwrap();
        assert_eq!(frame.group_id, group.group_id);
        assert_eq!(frame.sd_id, "meter-1");
        assert_eq!(frame.index, 1);
        assert_eq!(frame.total, 3);
        assert_eq!(frame.payload, b"errors: none");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SegmentFrame::parse(b"").is_none());
        assert!(SegmentFrame::parse(b"not a frame").is_none());
        // index >= total
        let mut rng = HmacDrbg::from_u64(2);
        let group = SegmentGroup::new(&mut rng, "m", 2);
        let mut framed = group.frame_segment(0, b"x");
        // Patch index to 5 (offset: 4+12 group, 4+1 sd_id, then u32 index LE).
        let idx_off = 4 + 12 + 4 + 1;
        framed[idx_off] = 5;
        assert!(SegmentFrame::parse(&framed).is_none());
    }

    #[test]
    fn reassembly_out_of_order() {
        let mut rng = HmacDrbg::from_u64(3);
        let group = SegmentGroup::new(&mut rng, "m", 3);
        let frames: Vec<_> = (0..3)
            .map(|i| {
                SegmentFrame::parse(&group.frame_segment(i, format!("part{i}").as_bytes())).unwrap()
            })
            .collect();
        let mut r = Reassembler::new();
        assert!(r.add(frames[2].clone()).is_none());
        assert!(r.add(frames[0].clone()).is_none());
        let done = r.add(frames[1].clone()).unwrap();
        assert_eq!(
            done,
            vec![b"part0".to_vec(), b"part1".to_vec(), b"part2".to_vec()]
        );
        assert_eq!(r.pending_groups(), 0);
    }

    #[test]
    fn duplicates_and_interleaved_groups() {
        let mut rng = HmacDrbg::from_u64(4);
        let g1 = SegmentGroup::new(&mut rng, "m", 2);
        let g2 = SegmentGroup::new(&mut rng, "m", 2);
        let mut r = Reassembler::new();
        let f10 = SegmentFrame::parse(&g1.frame_segment(0, b"a")).unwrap();
        let f20 = SegmentFrame::parse(&g2.frame_segment(0, b"c")).unwrap();
        let f11 = SegmentFrame::parse(&g1.frame_segment(1, b"b")).unwrap();
        assert!(r.add(f10.clone()).is_none());
        assert!(r.add(f10).is_none(), "duplicate ignored");
        assert!(r.add(f20).is_none());
        assert_eq!(r.pending_groups(), 2);
        let done = r.add(f11).unwrap();
        assert_eq!(done, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(r.pending_groups(), 1, "g2 still pending");
    }

    #[test]
    fn single_segment_group_completes_immediately() {
        let mut rng = HmacDrbg::from_u64(5);
        let g = SegmentGroup::new(&mut rng, "m", 1);
        let f = SegmentFrame::parse(&g.frame_segment(0, b"only")).unwrap();
        let mut r = Reassembler::new();
        assert_eq!(r.add(f).unwrap(), vec![b"only".to_vec()]);
    }
}
