//! The `DMNOCHK1` reproducer file format.
//!
//! A sibling of the flight recorder's `DMNOFLT1` format (same header
//! discipline: magic, version, reserved word, length-prefixed strings,
//! little-endian fixed-width records). A reproducer pins everything a
//! failure needs to replay exactly: the system label, the oracle that
//! fired, the generator and seed that produced the original trace, and
//! the shrunk event list itself. `domino-check --replay <file>` decodes
//! it and reruns the oracle.
//!
//! Layout:
//!
//! ```text
//! "DMNOCHK1"  magic, 8 bytes
//! u32         version (2; version-1 files still decode)
//! u32         batch size that manifested the failure (0 = unset;
//!             the reserved word of version-1 files)
//! str         system label     (u32 length + UTF-8 bytes)
//! str         oracle name
//! str         generator name
//! u64         fuzzer seed
//! u64         event count
//! records     24 bytes each: pc u64, addr u64, gap u32,
//!             kind u8 (0 = read, 1 = write), dependent u8, pad u16
//! ```

use domino_trace::addr::{Addr, Pc};
use domino_trace::event::{AccessEvent, AccessKind};

/// File magic.
pub const MAGIC: &[u8; 8] = b"DMNOCHK1";
/// Current format version. Version 2 repurposed the reserved header
/// word as the failing batch size; version-1 files decode with no
/// recorded batch.
pub const VERSION: u32 = 2;
/// Bytes per event record.
const RECORD_BYTES: usize = 24;

/// A decoded (or to-be-written) failure reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Roster label of the failing system ([`domino_sim::roster::System::label`]).
    pub system: String,
    /// Name of the oracle that fired.
    pub oracle: String,
    /// Name of the generator that produced the original trace.
    pub generator: String,
    /// Fuzzer seed of the failing case.
    pub seed: u64,
    /// Batch size the violation manifested under (`None` for
    /// batch-insensitive oracles and version-1 files). Replay reruns
    /// the engines at exactly this step size.
    pub batch: Option<u32>,
    /// The shrunk trace.
    pub events: Vec<AccessEvent>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounded little-endian reader.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.b.len() {
            return Err(format!(
                "truncated file: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len() - self.pos
            ));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad UTF-8 in header: {e}"))
    }
}

impl Reproducer {
    /// Serializes to the `DMNOCHK1` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events.len() * RECORD_BYTES);
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.batch.unwrap_or(0));
        put_str(&mut out, &self.system);
        put_str(&mut out, &self.oracle);
        put_str(&mut out, &self.generator);
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.events.len() as u64);
        for ev in &self.events {
            put_u64(&mut out, ev.pc.raw());
            put_u64(&mut out, ev.addr.raw());
            put_u32(&mut out, ev.gap_insts);
            out.push(match ev.kind {
                AccessKind::Read => 0,
                AccessKind::Write => 1,
            });
            out.push(u8::from(ev.dependent));
            out.extend_from_slice(&0u16.to_le_bytes());
        }
        out
    }

    /// Decodes a `DMNOCHK1` file, validating magic, version, and
    /// record contents.
    pub fn from_bytes(b: &[u8]) -> Result<Reproducer, String> {
        let mut c = Cursor { b, pos: 0 };
        if c.take(8)? != MAGIC {
            return Err("bad magic: not a domino-check reproducer".into());
        }
        let version = c.u32()?;
        if !(1..=VERSION).contains(&version) {
            return Err(format!("unsupported reproducer version {version}"));
        }
        // Version 1 wrote a zeroed reserved word here; version 2 stores
        // the failing batch size in it (still 0 when unset).
        let batch = match c.u32()? {
            0 => None,
            b => Some(b),
        };
        let system = c.string()?;
        let oracle = c.string()?;
        let generator = c.string()?;
        let seed = c.u64()?;
        let count = c.u64()? as usize;
        let mut events = Vec::with_capacity(count.min(1 << 20));
        for i in 0..count {
            let pc = c.u64()?;
            let addr = c.u64()?;
            let gap = c.u32()?;
            let kind = match c.take(1)?[0] {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                k => return Err(format!("record {i}: unknown access kind {k}")),
            };
            let dependent = match c.take(1)?[0] {
                0 => false,
                1 => true,
                d => return Err(format!("record {i}: bad dependent flag {d}")),
            };
            let _pad = c.u16()?;
            events.push(AccessEvent {
                pc: Pc::new(pc),
                addr: Addr::new(addr),
                kind,
                gap_insts: gap,
                dependent,
            });
        }
        if c.pos != b.len() {
            return Err(format!("{} trailing bytes after records", b.len() - c.pos));
        }
        Ok(Reproducer {
            system,
            oracle,
            generator,
            seed,
            batch,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reproducer {
        Reproducer {
            system: "Domino".into(),
            oracle: "cross_engine".into(),
            generator: "pointer-chase".into(),
            seed: 0xD0C5,
            batch: Some(64),
            events: vec![
                AccessEvent {
                    pc: Pc::new(0x500_000),
                    addr: Addr::new(u64::MAX - 63),
                    kind: AccessKind::Read,
                    gap_insts: 7,
                    dependent: true,
                },
                AccessEvent {
                    pc: Pc::new(1),
                    addr: Addr::new(64),
                    kind: AccessKind::Write,
                    gap_insts: 0,
                    dependent: false,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = sample();
        let decoded = Reproducer::from_bytes(&r.to_bytes()).expect("valid file");
        assert_eq!(decoded, r);
    }

    #[test]
    fn record_size_is_stable() {
        let r = sample();
        let empty = Reproducer {
            events: Vec::new(),
            ..r.clone()
        };
        assert_eq!(
            r.to_bytes().len() - empty.to_bytes().len(),
            2 * RECORD_BYTES
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().to_bytes();
        b[0] = b'X';
        assert!(Reproducer::from_bytes(&b).unwrap_err().contains("magic"));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample().to_bytes();
        b[8] = 99;
        assert!(Reproducer::from_bytes(&b).unwrap_err().contains("version"));
        b[8] = 0;
        assert!(Reproducer::from_bytes(&b).unwrap_err().contains("version"));
    }

    #[test]
    fn version_1_decodes_without_batch() {
        // A v2 file with no batch recorded is byte-identical to v1
        // except for the version word, so patching it back reproduces a
        // real v1 file exactly.
        let r = Reproducer {
            batch: None,
            ..sample()
        };
        let mut b = r.to_bytes();
        b[8] = 1;
        let decoded = Reproducer::from_bytes(&b).expect("v1 files stay readable");
        assert_eq!(decoded, r);
    }

    #[test]
    fn batch_survives_roundtrip() {
        let r = sample();
        assert_eq!(r.batch, Some(64));
        let decoded = Reproducer::from_bytes(&r.to_bytes()).expect("valid file");
        assert_eq!(decoded.batch, Some(64));
    }

    #[test]
    fn truncation_rejected() {
        let b = sample().to_bytes();
        assert!(Reproducer::from_bytes(&b[..b.len() - 3])
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = sample().to_bytes();
        b.push(0);
        assert!(Reproducer::from_bytes(&b).unwrap_err().contains("trailing"));
    }

    #[test]
    fn bad_kind_rejected() {
        let r = Reproducer {
            events: vec![AccessEvent::read(Pc::new(1), Addr::new(0))],
            ..sample()
        };
        let mut b = r.to_bytes();
        let kind_off = b.len() - RECORD_BYTES + 20;
        b[kind_off] = 9;
        assert!(Reproducer::from_bytes(&b).unwrap_err().contains("kind"));
    }
}
