//! Primitive field codec: little-endian integers and `u32`-length-prefixed
//! byte fields.

use crate::WireError;

/// Field writer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Fixed `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Fixed `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Fixed `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Single byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Finishes and returns the encoded body.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Field reader: a cursor over an encoded body.
#[derive(Debug)]
pub struct WireReader<'a> {
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps an encoded body.
    pub fn new(data: &'a [u8]) -> Self {
        Self { rest: data }
    }

    /// Takes the next `n` bytes; a declared length is checked against what
    /// is actually there before anything is allocated for it.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadField("utf-8"))
    }

    /// Fixed `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.fixed().map(u64::from_le_bytes)
    }

    /// Fixed `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.fixed().map(u32::from_le_bytes)
    }

    /// Fixed `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.fixed().map(u16::from_le_bytes)
    }

    /// Single byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.fixed().map(|[b]| b)
    }

    /// Asserts full consumption (rejects trailing bytes).
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadField("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut w = WireWriter::new();
        w.string("id").bytes(&[1, 2]).u64(9).u32(8).u16(7).u8(6);
        let body = w.finish();
        let mut r = WireReader::new(&body);
        assert_eq!(r.string().unwrap(), "id");
        assert_eq!(r.bytes().unwrap(), vec![1, 2]);
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 8);
        assert_eq!(r.u16().unwrap(), 7);
        assert_eq!(r.u8().unwrap(), 6);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_point_errors() {
        let mut w = WireWriter::new();
        w.string("hello").u64(1).bytes(&[9; 10]);
        let body = w.finish();
        for cut in 0..body.len() {
            let mut r = WireReader::new(&body[..cut]);
            let result = r.string().and_then(|_| r.u64()).and_then(|_| r.bytes());
            assert!(result.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn absurd_length_prefix_rejected_without_allocation() {
        let mut body = u32::MAX.to_le_bytes().to_vec();
        body.extend_from_slice(&[0; 16]);
        let mut r = WireReader::new(&body);
        assert_eq!(r.bytes().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let body = w.finish();
        assert_eq!(
            WireReader::new(&body).string().unwrap_err(),
            WireError::BadField("utf-8")
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.u8(1);
        let mut body = w.finish();
        body.push(0);
        let mut r = WireReader::new(&body);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
