//! The prototype's flat-file message store — the E8 baseline.
//!
//! "Instead of databases, flat files are used" (§VI). Records are appended
//! as `hex(attribute) TAB hex(payload) NL` lines; retrieval by attribute is
//! a full scan, exactly the access pattern the Perl prototype had. It lives
//! here, beside the bench that measures it, so experiment E8 can weigh the
//! paper's §VIII "move to a DBMS" against it; the warehouse never runs it.

use mws_store::{Result, StoreError};
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;

/// Where the flat file lives.
#[derive(Debug)]
enum Backing {
    Memory(Vec<(String, Vec<u8>)>),
    File(PathBuf),
}

/// Append-only flat-file store with linear-scan retrieval.
#[derive(Debug)]
pub struct FlatFileStore {
    backing: Backing,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(StoreError::Codec("odd hex length"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| StoreError::Codec("bad hex digit"))
        })
        .collect()
}

impl FlatFileStore {
    /// In-memory variant (benchmarks without disk noise).
    pub fn memory() -> Self {
        Self {
            backing: Backing::Memory(Vec::new()),
        }
    }

    /// File-backed variant.
    pub fn file(path: PathBuf) -> Self {
        Self {
            backing: Backing::File(path),
        }
    }

    /// Appends one `(attribute, payload)` record.
    pub fn append(&mut self, attribute: &str, payload: &[u8]) -> Result<()> {
        match &mut self.backing {
            Backing::Memory(rows) => {
                rows.push((attribute.to_string(), payload.to_vec()));
                Ok(())
            }
            Backing::File(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                let mut w = BufWriter::new(file);
                writeln!(w, "{}\t{}", hex(attribute.as_bytes()), hex(payload))?;
                w.flush()?;
                Ok(())
            }
        }
    }

    /// Full scan: all payloads whose attribute matches.
    pub fn find_by_attribute(&self, attribute: &str) -> Result<Vec<Vec<u8>>> {
        match &self.backing {
            Backing::Memory(rows) => Ok(rows
                .iter()
                .filter(|(a, _)| a == attribute)
                .map(|(_, p)| p.clone())
                .collect()),
            Backing::File(path) => {
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
                    Err(e) => return Err(e.into()),
                };
                let want = hex(attribute.as_bytes());
                let mut out = Vec::new();
                for line in BufReader::new(file).lines() {
                    let line = line?;
                    let Some((a, p)) = line.split_once('\t') else {
                        return Err(StoreError::Codec("missing tab"));
                    };
                    if a == want {
                        out.push(unhex(p)?);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Record count (full scan for files — that's the point).
    pub fn len(&self) -> Result<usize> {
        match &self.backing {
            Backing::Memory(rows) => Ok(rows.len()),
            Backing::File(path) => {
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
                    Err(e) => return Err(e.into()),
                };
                Ok(BufReader::new(file).lines().count())
            }
        }
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_append_and_scan() {
        let mut s = FlatFileStore::memory();
        s.append("ELECTRIC", b"m1").unwrap();
        s.append("WATER", b"m2").unwrap();
        s.append("ELECTRIC", b"m3").unwrap();
        assert_eq!(
            s.find_by_attribute("ELECTRIC").unwrap(),
            vec![b"m1".to_vec(), b"m3".to_vec()]
        );
        assert!(s.find_by_attribute("GAS").unwrap().is_empty());
        assert_eq!(s.len().unwrap(), 3);
    }

    #[test]
    fn file_append_and_scan() {
        let path = std::env::temp_dir().join(format!("mws-ff-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut s = FlatFileStore::file(path.clone());
        assert!(s.is_empty().unwrap());
        // Attribute values with tabs/newlines survive because fields are hexed.
        s.append("WEIRD\tATTR\n", b"payload\nwith\tstuff").unwrap();
        s.append("plain", b"x").unwrap();
        assert_eq!(
            s.find_by_attribute("WEIRD\tATTR\n").unwrap(),
            vec![b"payload\nwith\tstuff".to_vec()]
        );
        assert_eq!(s.len().unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let s = FlatFileStore::file(PathBuf::from("/nonexistent/mws-never-here.txt"));
        assert!(s.find_by_attribute("a").unwrap().is_empty());
        assert_eq!(s.len().unwrap(), 0);
    }
}
