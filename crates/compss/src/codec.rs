//! Wire codecs for type-erased [`Value`]s.
//!
//! The distributed backend ships task arguments and results between
//! processes, but [`Value`] is an `Arc<dyn Any>` — the runtime cannot
//! serialise it generically. This module is the bridge: a process-wide
//! registry mapping concrete Rust types to tagged byte codecs. Both sides
//! of a connection register the same codecs (the built-in primitives are
//! always present; applications add their own, e.g. the HPO layer's
//! `Config` and trial-outcome codecs) and the tag travels with the bytes
//! in each [`rnet::Blob`], so decode never has to guess.
//!
//! Registration is append-only and idempotent per tag; codecs are looked
//! up on the dispatch path, so reads take a shared lock only.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use rnet::{Blob, Reader, WireError};

use crate::data::Value;
use crate::ids::IdMap;

/// A built-in primitive's encoder: appends to the caller's buffer, which a
/// hot path reuses from one value to the next.
type AppendFn = Box<dyn Fn(&Value, &mut Vec<u8>) -> bool + Send + Sync>;
/// An application codec's encoder: bytes of its own, taken as they are.
type OwnedFn = Box<dyn Fn(&Value) -> Option<Vec<u8>> + Send + Sync>;

/// Serialise the concrete value behind a [`Value`] into bytes.
enum EncodeFn {
    Append(AppendFn),
    Owned(OwnedFn),
}
/// Rebuild a [`Value`] from codec bytes.
type DecodeFn = Arc<dyn Fn(&[u8]) -> Result<Value, WireError> + Send + Sync>;

/// Encoders by the `TypeId` of what they encode (a runtime-made key),
/// decoders by the tag a peer's blob names.
#[derive(Default)]
struct Registry {
    by_type: IdMap<TypeId, (Arc<str>, EncodeFn)>,
    by_tag: HashMap<Arc<str>, DecodeFn>,
}

fn registry() -> &'static RwLock<Registry> {
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let lock = RwLock::new(Registry::default());
        register_builtins(&lock);
        lock
    })
}

/// Register a codec for concrete type `T` under `tag`.
///
/// `enc` turns a `&T` into bytes, `dec` parses them back. Both sides of a
/// distributed run must register the same `(tag, T)` pairs — tags are the
/// on-wire identity. Re-registering a tag replaces the previous codec
/// (last writer wins), which keeps repeated test setups idempotent.
pub fn register_codec<T, E, D>(tag: &str, enc: E, dec: D)
where
    T: Any + Send + Sync,
    E: Fn(&T) -> Vec<u8> + Send + Sync + 'static,
    D: Fn(&[u8]) -> Result<T, WireError> + Send + Sync + 'static,
{
    let encode = EncodeFn::Owned(Box::new(move |v: &Value| v.downcast_ref::<T>().map(&enc)));
    let decode: DecodeFn = Arc::new(move |bytes| dec(bytes).map(Value::new));
    let mut reg = registry().write().expect("codec registry poisoned");
    reg.insert(TypeId::of::<T>(), tag, encode, decode);
}

impl Registry {
    fn insert(&mut self, ty: TypeId, tag: &str, encode: EncodeFn, decode: DecodeFn) {
        let tag: Arc<str> = tag.into();
        self.by_type.insert(ty, (tag.clone(), encode));
        self.by_tag.insert(tag, decode);
    }
}

/// Encode a [`Value`] into a tagged [`Blob`], or `None` if no codec is
/// registered for its concrete type (the caller fails the task with a
/// useful message rather than panicking the runtime).
pub fn encode_value(value: &Value) -> Option<Blob> {
    let mut blob = Blob::default();
    encode_into(value, &mut blob).then_some(blob)
}

/// Whether a blob [`encode_into`] filled is worth keeping for the next
/// value: one that grew past the inline threshold is let go, so a single
/// large value pins no memory on a hot path.
pub(crate) fn worth_keeping(blob: &Blob) -> bool {
    blob.bytes.capacity() <= crate::blocks::DEFAULT_INLINE_THRESHOLD as usize
}

/// [`encode_value`] into a blob that is kept from one value to the next:
/// tag and bytes are replaced, and a built-in primitive's bytes land in
/// the capacity the blob already has. `false` if no codec is registered
/// for the value's type.
pub fn encode_into(value: &Value, blob: &mut Blob) -> bool {
    let reg = registry().read().expect("codec registry poisoned");
    let Some((tag, enc)) = reg.by_type.get(&value.concrete_type_id()) else { return false };
    blob.tag.clear();
    blob.tag.push_str(tag);
    match enc {
        EncodeFn::Append(enc) => {
            blob.bytes.clear();
            enc(value, &mut blob.bytes)
        }
        EncodeFn::Owned(enc) => enc(value).map(|bytes| blob.bytes = bytes).is_some(),
    }
}

/// Decode borrowed codec bytes under `tag` back into a [`Value`] (an owned
/// [`Blob`] decodes as `decode_tagged(&blob.tag, &blob.bytes)`).
///
/// It takes no [`Blob`] so the event-loop backends can hand it
/// [`rnet::BlobRef`] fields pointing straight into a connection's receive
/// buffer: a task result crosses from socket bytes to a typed `Value`
/// without an intermediate copy.
pub fn decode_tagged(tag: &str, bytes: &[u8]) -> Result<Value, WireError> {
    let dec = {
        let reg = registry().read().expect("codec registry poisoned");
        reg.by_tag.get(tag).cloned()
    };
    match dec {
        Some(dec) => dec(bytes),
        None => Err(WireError("no codec registered for blob tag".into())),
    }
}

fn register_builtins(lock: &RwLock<Registry>) {
    // Inlined register_codec against an explicit lock, because the global
    // registry() is still mid-initialisation when this runs.
    fn put<T, E, D>(lock: &RwLock<Registry>, tag: &str, enc: E, dec: D)
    where
        T: Any + Send + Sync,
        E: Fn(&T, &mut Vec<u8>) + Send + Sync + 'static,
        D: Fn(&[u8]) -> Result<T, WireError> + Send + Sync + 'static,
    {
        let encode = EncodeFn::Append(Box::new(move |v: &Value, out: &mut Vec<u8>| {
            v.downcast_ref::<T>().map(|v| enc(v, out)).is_some()
        }));
        let decode: DecodeFn = Arc::new(move |bytes| dec(bytes).map(Value::new));
        let mut reg = lock.write().expect("codec registry poisoned");
        reg.insert(TypeId::of::<T>(), tag, encode, decode);
    }

    fn whole(bytes: &[u8]) -> Reader<'_> {
        Reader::new(bytes)
    }

    put::<i64, _, _>(
        lock,
        "std.i64",
        |v, b| rnet::wire::put_u64(b, *v as u64),
        |bytes| whole(bytes).u64().map(|v| v as i64),
    );
    put::<u64, _, _>(
        lock,
        "std.u64",
        |v, b| rnet::wire::put_u64(b, *v),
        |bytes| whole(bytes).u64(),
    );
    put::<u32, _, _>(
        lock,
        "std.u32",
        |v, b| rnet::wire::put_u32(b, *v),
        |bytes| whole(bytes).u32(),
    );
    put::<f64, _, _>(
        lock,
        "std.f64",
        |v, b| rnet::wire::put_f64(b, *v),
        |bytes| whole(bytes).f64(),
    );
    put::<bool, _, _>(
        lock,
        "std.bool",
        |v, b| b.push(u8::from(*v)),
        |bytes| match bytes {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(WireError("bool must be one byte 0/1".into())),
        },
    );
    put::<String, _, _>(
        lock,
        "std.string",
        |v, b| rnet::wire::put_str(b, v),
        |bytes| whole(bytes).str(),
    );
    put::<(), _, _>(lock, "std.unit", |_, _| {}, |_| Ok(()));
    put::<Vec<f64>, _, _>(
        lock,
        "std.vec_f64",
        |v, b| {
            rnet::wire::put_u64(b, v.len() as u64);
            for x in v {
                rnet::wire::put_f64(b, *x);
            }
        },
        |bytes| {
            let mut r = Reader::new(bytes);
            let n = r.u64()? as usize;
            if n > bytes.len() {
                return Err(WireError("vec_f64 length exceeds payload".into()));
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(r.f64()?);
            }
            Ok(out)
        },
    );
    put::<Option<u32>, _, _>(
        lock,
        "std.opt_u32",
        |v, b| match v {
            Some(x) => {
                b.push(1);
                rnet::wire::put_u32(b, *x);
            }
            None => b.push(0),
        },
        |bytes| match bytes.split_first() {
            Some((0, [])) => Ok(None),
            Some((1, rest)) => Reader::new(rest).u32().map(Some),
            _ => Err(WireError("bad Option<u32> encoding".into())),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) -> Value {
        let blob = encode_value(&v).expect("codec registered");
        decode_tagged(&blob.tag, &blob.bytes).expect("decodes")
    }

    #[test]
    fn builtin_primitives_roundtrip() {
        assert_eq!(roundtrip(Value::new(-42i64)).downcast_ref::<i64>(), Some(&-42));
        assert_eq!(roundtrip(Value::new(7u64)).downcast_ref::<u64>(), Some(&7));
        assert_eq!(roundtrip(Value::new(9u32)).downcast_ref::<u32>(), Some(&9));
        assert_eq!(roundtrip(Value::new(1.5f64)).downcast_ref::<f64>(), Some(&1.5));
        assert_eq!(roundtrip(Value::new(true)).downcast_ref::<bool>(), Some(&true));
        assert_eq!(
            roundtrip(Value::new("hi".to_string())).downcast_ref::<String>(),
            Some(&"hi".to_string())
        );
        assert!(roundtrip(Value::new(())).is::<()>());
        assert_eq!(
            roundtrip(Value::new(vec![1.0f64, -2.25])).downcast_ref::<Vec<f64>>(),
            Some(&vec![1.0, -2.25])
        );
        assert_eq!(roundtrip(Value::new(Some(3u32))).downcast_ref::<Option<u32>>(), Some(&Some(3)));
        assert_eq!(roundtrip(Value::new(None::<u32>)).downcast_ref::<Option<u32>>(), Some(&None));
    }

    #[test]
    fn a_kept_blob_takes_the_next_value_in_place() {
        let mut blob = encode_value(&Value::new(u64::MAX)).expect("u64 codec");
        let (tag, bytes) = (blob.tag.as_ptr(), blob.bytes.as_ptr());
        for v in [Value::new(7u64), Value::new(-1i64)] {
            assert!(encode_into(&v, &mut blob));
            assert_eq!(blob, encode_value(&v).expect("codec"));
        }
        assert_eq!((blob.tag.as_ptr(), blob.bytes.as_ptr()), (tag, bytes), "no new buffers");
        assert!(!encode_into(&Value::new(std::time::Duration::ZERO), &mut blob));
    }

    #[test]
    fn unregistered_type_is_refused_not_panicked() {
        struct Opaque;
        assert!(encode_value(&Value::new(Opaque)).is_none());
    }

    #[test]
    fn unknown_tag_fails_cleanly() {
        let blob = Blob { tag: "nobody.registered.this".into(), bytes: vec![1, 2, 3] };
        assert!(decode_tagged(&blob.tag, &blob.bytes).is_err());
    }

    #[test]
    fn custom_codec_registration_and_replacement() {
        #[derive(PartialEq, Debug)]
        struct Pair(u32, u32);
        register_codec::<Pair, _, _>(
            "test.pair",
            |p| {
                let mut b = Vec::new();
                rnet::wire::put_u32(&mut b, p.0);
                rnet::wire::put_u32(&mut b, p.1);
                b
            },
            |bytes| {
                let mut r = Reader::new(bytes);
                Ok(Pair(r.u32()?, r.u32()?))
            },
        );
        let got = roundtrip(Value::new(Pair(3, 9)));
        assert_eq!(got.downcast_ref::<Pair>(), Some(&Pair(3, 9)));
        // Re-register with a different encoding: last writer wins.
        register_codec::<Pair, _, _>(
            "test.pair",
            |p| {
                let mut b = Vec::new();
                rnet::wire::put_u32(&mut b, p.1);
                rnet::wire::put_u32(&mut b, p.0);
                b
            },
            |bytes| {
                let mut r = Reader::new(bytes);
                let (b, a) = (r.u32()?, r.u32()?);
                Ok(Pair(a, b))
            },
        );
        let got = roundtrip(Value::new(Pair(3, 9)));
        assert_eq!(got.downcast_ref::<Pair>(), Some(&Pair(3, 9)));
    }

    #[test]
    fn corrupt_payload_errors() {
        let blob = Blob { tag: "std.string".into(), bytes: vec![0xff, 0xff, 0xff] };
        assert!(decode_tagged(&blob.tag, &blob.bytes).is_err());
    }
}
