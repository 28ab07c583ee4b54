//! Compact binary codec for trace records.
//!
//! Workers batch their local [`Record`]s and ship them to the driver inside
//! an opaque `rnet` `TraceChunk` frame; this module defines the bytes inside
//! that frame. It is deliberately self-contained (LEB128 varints plus
//! length-prefixed UTF-8 strings, no dependency on the network crate) so the
//! dependency arrow keeps pointing runtime → tracing and never sideways.
//!
//! Layout: one version byte, a record count, then each record as a tag byte
//! followed by its fields. Task-function names are written per record but
//! re-interned into shared `Arc<str>`s on decode, so a thousand-task chunk
//! still decodes to a thousand records sharing one allocation per function.
//!
//! ```
//! use paratrace::record::{CoreId, Record, StateKind, TaskRef};
//! use paratrace::wire::{decode_records, encode_records};
//!
//! let records = vec![Record::State {
//!     core: CoreId::new(0, 3),
//!     start: 10,
//!     end: 40,
//!     state: StateKind::Running(TaskRef::new(7, "graph.experiment")),
//! }];
//! let bytes = encode_records(&records);
//! assert_eq!(decode_records(&bytes).unwrap(), records);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use crate::record::{CoreId, EventKind, Record, StateKind, TaskRef};

/// Codec version written as the first byte of every chunk.
pub const WIRE_VERSION: u8 = 1;

const T_STATE: u8 = 0;
const T_EVENT: u8 = 1;

const S_IDLE: u8 = 0;
const S_RUNNING: u8 = 1;
const S_RESERVED: u8 = 2;
const S_TRANSFERRING: u8 = 3;

const E_DISPATCH: u8 = 0;
const E_END: u8 = 1;
const E_FAILURE: u8 = 2;
const E_NODE_FAILURE: u8 = 3;
const E_USER_FLAG: u8 = 4;

/// Why a chunk failed to decode. Any error condemns the whole chunk — the
/// driver drops it rather than guessing at partial records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDecodeError(pub String);

impl std::fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace chunk decode error: {}", self.0)
    }
}

impl std::error::Error for WireDecodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
    names: HashMap<String, Arc<str>>,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, WireDecodeError> {
        let b = *self.buf.get(self.at).ok_or_else(|| WireDecodeError("truncated chunk".into()))?;
        self.at += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, WireDecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            // The tenth byte holds bit 63 alone; anything above it would
            // shift out and let two encodings decode to one value.
            if shift == 63 && b > 0x01 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireDecodeError("overlong varint".into()))
    }

    fn str_interned(&mut self) -> Result<Arc<str>, WireDecodeError> {
        let len = self.varint()? as usize;
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireDecodeError("truncated string".into()))?;
        let s = std::str::from_utf8(&self.buf[self.at..end])
            .map_err(|_| WireDecodeError("invalid UTF-8 in name".into()))?;
        self.at = end;
        if let Some(interned) = self.names.get(s) {
            return Ok(Arc::clone(interned));
        }
        let interned: Arc<str> = Arc::from(s);
        self.names.insert(s.to_string(), Arc::clone(&interned));
        Ok(interned)
    }

    fn task_ref(&mut self) -> Result<TaskRef, WireDecodeError> {
        let id = self.varint()?;
        let name = self.str_interned()?;
        Ok(TaskRef { id, name })
    }

    fn core(&mut self) -> Result<CoreId, WireDecodeError> {
        let node = self.varint()? as u32;
        let core = self.varint()? as u32;
        Ok(CoreId { node, core })
    }
}

fn put_task_ref(out: &mut Vec<u8>, t: &TaskRef) {
    put_varint(out, t.id);
    put_str(out, &t.name);
}

/// Serialise a batch of records into one chunk.
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + records.len() * 16);
    out.push(WIRE_VERSION);
    put_varint(&mut out, records.len() as u64);
    for r in records {
        match r {
            Record::State { core, start, end, state } => {
                out.push(T_STATE);
                put_varint(&mut out, u64::from(core.node));
                put_varint(&mut out, u64::from(core.core));
                put_varint(&mut out, *start);
                put_varint(&mut out, *end);
                match state {
                    StateKind::Idle => out.push(S_IDLE),
                    StateKind::Running(t) => {
                        out.push(S_RUNNING);
                        put_task_ref(&mut out, t);
                    }
                    StateKind::RuntimeReserved => out.push(S_RESERVED),
                    StateKind::Transferring { bytes } => {
                        out.push(S_TRANSFERRING);
                        put_varint(&mut out, *bytes);
                    }
                }
            }
            Record::Event { core, time, kind } => {
                out.push(T_EVENT);
                put_varint(&mut out, u64::from(core.node));
                put_varint(&mut out, u64::from(core.core));
                put_varint(&mut out, *time);
                match kind {
                    EventKind::TaskDispatch(t) => {
                        out.push(E_DISPATCH);
                        put_task_ref(&mut out, t);
                    }
                    EventKind::TaskEnd(t) => {
                        out.push(E_END);
                        put_task_ref(&mut out, t);
                    }
                    EventKind::TaskFailure { task, attempt } => {
                        out.push(E_FAILURE);
                        put_task_ref(&mut out, task);
                        put_varint(&mut out, u64::from(*attempt));
                    }
                    EventKind::NodeFailure => out.push(E_NODE_FAILURE),
                    EventKind::UserFlag { event_type, value } => {
                        out.push(E_USER_FLAG);
                        put_varint(&mut out, u64::from(*event_type));
                        put_varint(&mut out, *value);
                    }
                }
            }
        }
    }
    out
}

/// Decode one chunk back into records. Trailing bytes after the declared
/// record count are an error (a truncated or spliced chunk must not pass).
pub fn decode_records(bytes: &[u8]) -> Result<Vec<Record>, WireDecodeError> {
    let mut c = Cursor { buf: bytes, at: 0, names: HashMap::new() };
    let version = c.byte()?;
    if version != WIRE_VERSION {
        return Err(WireDecodeError(format!("unsupported chunk version {version}")));
    }
    let count = c.varint()? as usize;
    let mut records = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        let tag = c.byte()?;
        let record = match tag {
            T_STATE => {
                let core = c.core()?;
                let start = c.varint()?;
                let end = c.varint()?;
                let state = match c.byte()? {
                    S_IDLE => StateKind::Idle,
                    S_RUNNING => StateKind::Running(c.task_ref()?),
                    S_RESERVED => StateKind::RuntimeReserved,
                    S_TRANSFERRING => StateKind::Transferring { bytes: c.varint()? },
                    other => return Err(WireDecodeError(format!("bad state kind {other}"))),
                };
                Record::State { core, start, end, state }
            }
            T_EVENT => {
                let core = c.core()?;
                let time = c.varint()?;
                let kind = match c.byte()? {
                    E_DISPATCH => EventKind::TaskDispatch(c.task_ref()?),
                    E_END => EventKind::TaskEnd(c.task_ref()?),
                    E_FAILURE => {
                        EventKind::TaskFailure { task: c.task_ref()?, attempt: c.varint()? as u32 }
                    }
                    E_NODE_FAILURE => EventKind::NodeFailure,
                    E_USER_FLAG => {
                        EventKind::UserFlag { event_type: c.varint()? as u32, value: c.varint()? }
                    }
                    other => return Err(WireDecodeError(format!("bad event kind {other}"))),
                };
                Record::Event { core, time, kind }
            }
            other => return Err(WireDecodeError(format!("bad record tag {other}"))),
        };
        records.push(record);
    }
    if c.at != bytes.len() {
        return Err(WireDecodeError(format!("{} trailing bytes", bytes.len() - c.at)));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Record> {
        let t = TaskRef::new(7, "graph.experiment");
        vec![
            Record::State {
                core: CoreId::new(0, 3),
                start: 10,
                end: 40,
                state: StateKind::Running(t.clone()),
            },
            Record::State { core: CoreId::new(1, 0), start: 0, end: 5, state: StateKind::Idle },
            Record::State {
                core: CoreId::new(2, 1),
                start: 3,
                end: 9,
                state: StateKind::Transferring { bytes: 1 << 33 },
            },
            Record::State {
                core: CoreId::new(0, 0),
                start: 0,
                end: 100,
                state: StateKind::RuntimeReserved,
            },
            Record::Event {
                core: CoreId::new(0, 3),
                time: 10,
                kind: EventKind::TaskDispatch(t.clone()),
            },
            Record::Event {
                core: CoreId::new(0, 3),
                time: 40,
                kind: EventKind::TaskEnd(t.clone()),
            },
            Record::Event {
                core: CoreId::new(0, 3),
                time: 41,
                kind: EventKind::TaskFailure { task: t, attempt: 2 },
            },
            Record::Event { core: CoreId::new(1, 0), time: 50, kind: EventKind::NodeFailure },
            Record::Event {
                core: CoreId::new(1, 0),
                time: 51,
                kind: EventKind::UserFlag { event_type: 42, value: 9 },
            },
        ]
    }

    #[test]
    fn round_trips_every_record_shape() {
        let records = sample();
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
    }

    #[test]
    fn empty_chunk_round_trips() {
        let bytes = encode_records(&[]);
        assert_eq!(decode_records(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn names_are_interned_on_decode() {
        let records = sample();
        let decoded = decode_records(&encode_records(&records)).unwrap();
        let names: Vec<&TaskRef> = decoded.iter().filter_map(|r| r.running_task()).collect();
        let dispatch_name = decoded
            .iter()
            .find_map(|r| match r {
                Record::Event { kind: EventKind::TaskDispatch(t), .. } => Some(t),
                _ => None,
            })
            .unwrap();
        assert!(
            Arc::ptr_eq(&names[0].name, &dispatch_name.name),
            "same function name shares one allocation"
        );
    }

    #[test]
    fn truncation_and_garbage_fail_cleanly() {
        let bytes = encode_records(&sample());
        for cut in 0..bytes.len() {
            assert!(decode_records(&bytes[..cut]).is_err(), "prefix of {cut} bytes must fail");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_records(&padded).is_err(), "trailing bytes must fail");
        assert!(decode_records(&[WIRE_VERSION + 1]).is_err(), "future version rejected");
        assert!(decode_records(&[]).is_err());
        // A record count whose tenth varint byte overflows 64 bits: u64::MAX
        // has exactly one encoding, and this is not it.
        let mut count = vec![WIRE_VERSION];
        count.extend([0xff; 9]);
        assert_eq!(
            decode_records(&[&count[..], &[0x7f]].concat()),
            Err(WireDecodeError("overlong varint".into()))
        );
        let canonical = decode_records(&[&count[..], &[0x01]].concat()).unwrap_err();
        assert_ne!(canonical.0, "overlong varint", "u64::MAX itself still decodes: {canonical:?}");
    }
}
