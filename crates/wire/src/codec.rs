//! Primitive field codec: little-endian integers and `u32`-length-prefixed
//! byte fields, and the `Field` encoding of each type a PDU field may
//! have, `u32`-counted lists of records among them.

use crate::WireError;

/// Field writer: appends to a buffer its caller owns, so an encoding
/// lands where it will be used, with no buffer of its own to copy from.
#[derive(Debug)]
pub struct WireWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
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

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Length-prefixed bytes. The declared length is checked against what
    /// is actually there before anything is allocated for it.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head.to_vec())
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

/// A type with one wire encoding: what the PDU table in [`crate::pdu`]
/// writes and reads for a field of that type.
pub(crate) trait Field: Sized {
    /// The fewest bytes an encoding takes.
    const MIN: usize;
    /// The bytes [`Field::put`] appends; a fixed-width type's are its
    /// [`Field::MIN`].
    fn encoded_len(&self) -> usize {
        Self::MIN
    }
    /// Appends the encoding.
    fn put(&self, w: &mut WireWriter<'_>);
    /// Reads one encoding.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// A record that PDUs carry in lists (`Vec<Self>` is a [`Field`]).
pub(crate) trait Record: Field {}

macro_rules! fixed_width {
    ($($int:ident),*) => {$(
        impl Field for $int {
            const MIN: usize = core::mem::size_of::<$int>();
            fn put(&self, w: &mut WireWriter<'_>) {
                w.$int(*self);
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$int()
            }
        }
    )*};
}

fixed_width!(u8, u16, u32, u64);

/// One byte, nonzero for `true`.
impl Field for bool {
    const MIN: usize = 1;
    fn put(&self, w: &mut WireWriter<'_>) {
        w.u8(u8::from(*self));
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

impl Field for Vec<u8> {
    const MIN: usize = 4;
    fn encoded_len(&self) -> usize {
        Self::MIN + self.len()
    }
    fn put(&self, w: &mut WireWriter<'_>) {
        w.bytes(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bytes()
    }
}

impl Field for String {
    const MIN: usize = 4;
    fn encoded_len(&self) -> usize {
        Self::MIN + self.len()
    }
    fn put(&self, w: &mut WireWriter<'_>) {
        w.string(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

/// A `u32` count, then each record.
impl<T: Record> Field for Vec<T> {
    const MIN: usize = 4;
    fn encoded_len(&self) -> usize {
        Self::MIN + self.iter().map(T::encoded_len).sum::<usize>()
    }
    fn put(&self, w: &mut WireWriter<'_>) {
        write_list(w, self);
    }

    /// The one rule every declared count passes: a count the rest of the
    /// body cannot hold at [`Field::MIN`] bytes a record is refused before
    /// anything is reserved, so a list never reserves more than a small
    /// multiple of the bytes that actually arrived.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        if n.saturating_mul(T::MIN) > r.rest.len() {
            return Err(WireError::BadLength);
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(T::get(r)?);
        }
        Ok(list)
    }
}

/// Appends `list` as a `Vec<T>` field encodes: its `u32` count, then each
/// record. Takes a slice, so a MAC input over borrowed rows copies nothing.
pub(crate) fn write_list<T: Record>(w: &mut WireWriter<'_>, list: &[T]) {
    w.u32(list.len() as u32);
    for item in list {
        item.put(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut body = Vec::new();
        WireWriter::new(&mut body)
            .string("id")
            .bytes(&[1, 2])
            .u64(9)
            .u32(8)
            .u16(7)
            .u8(6);
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
        let mut body = Vec::new();
        WireWriter::new(&mut body)
            .string("hello")
            .u64(1)
            .bytes(&[9; 10]);
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
        let mut body = Vec::new();
        WireWriter::new(&mut body).bytes(&[0xff, 0xfe]);
        assert_eq!(
            WireReader::new(&body).string().unwrap_err(),
            WireError::BadField("utf-8")
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let body = [1, 0];
        let mut r = WireReader::new(&body);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
