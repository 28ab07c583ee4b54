//! The content-addressed data plane.
//!
//! Values that cross the wire are hashed by *content* (not version id)
//! into immutable blocks. The driver keeps a [`BlockStore`]: an
//! encode-once memo (a value shared by a hundred trials is serialised
//! and hashed once for as long as a version holding it is live; a value
//! every task produces anew — a stage tree's fork snapshots — pays both
//! per task, at dispatch, under the core lock: see [`content_hash`]) plus
//! the per-node residency map that makes placement transfer-aware. Each
//! worker keeps a [`BlockCache`]: decoded blocks under an LRU policy
//! bounded by a byte budget (`--cache-mem`), reporting evictions back so
//! the driver's residency view stays honest.
//!
//! Content addressing buys two things over keying by version id: two
//! versions with identical bytes collapse to one block (one transfer, one
//! cache slot), and a block is immutable by construction — there is no
//! invalidation protocol, only eviction. It is the only cache a worker
//! has: a value below the inline threshold travels in every `Submit` that
//! reads it.

use std::collections::BTreeMap;
use std::sync::Arc;

use rnet::Blob;

use crate::codec;
use crate::data::{DataRegistry, DataVersion, Value};
use crate::ids::{IdMap, IdSet};

/// Declared sizes at or above this many bytes route through the block
/// plane by default; smaller values stay inline in the `Submit` frame.
pub(crate) const DEFAULT_INLINE_THRESHOLD: u64 = 64 * 1024;

/// The 128-bit content hash that names a block.
///
/// Hashing is on the dispatch path: `BlockStore::encode` runs it under the
/// core lock, on whichever thread places the task — for a follow-on
/// dispatch that is the driver's one event-loop thread — once per *distinct
/// version*. A dataset shared by a hundred trials pays it once; a stage
/// tree pays it for every fork snapshot, because every fork is a new value.
/// So it has to run at memory speed: two 64-bit multiply-fold lanes over
/// 16-byte little-endian words, each lane seeing both halves of every word
/// (≈ 0.1 ns/B, against 1.3 ns/B for the byte-at-a-time FNV-1a-128 it
/// replaced).
///
/// What is hashed is `tag ‖ bytes`, each zero-padded to whole words, then
/// one word holding both lengths — so neither the tag/payload boundary
/// (`("ab", "c")` vs `("a", "bc")`) nor trailing zeros can be moved without
/// changing the input — then a bijective three-round mix so each output
/// half depends on both lanes. The codec tag participates so two codecs
/// producing the same bytes for different types still get distinct blocks.
///
/// Not a cryptographic hash, and not a stable one: only the driver computes
/// it (workers are told the hash), nothing persists it, and it may change
/// between versions of this crate.
pub fn content_hash(tag: &str, bytes: &[u8]) -> u128 {
    const K: [u64; 5] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
        0xa076_1d64_78bd_642f,
    ];
    /// 64 × 64 → 128-bit product, folded onto itself.
    fn fold(x: u64, y: u64) -> u64 {
        let p = u128::from(x) * u128::from(y);
        (p as u64) ^ ((p >> 64) as u64)
    }
    fn absorb((a, b): (u64, u64), w0: u64, w1: u64) -> (u64, u64) {
        (fold(a ^ w0, K[0] ^ w1), fold(b ^ w1, K[1] ^ w0))
    }
    fn absorb_padded(mut lanes: (u64, u64), data: &[u8]) -> (u64, u64) {
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte half"));
        let mut words = data.chunks_exact(16);
        for c in &mut words {
            lanes = absorb(lanes, word(&c[..8]), word(&c[8..]));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            last[..tail.len()].copy_from_slice(tail);
            lanes = absorb(lanes, word(&last[..8]), word(&last[8..]));
        }
        lanes
    }
    let lanes = absorb_padded((K[2], K[3]), tag.as_bytes());
    let lanes = absorb_padded(lanes, bytes);
    let (mut a, mut b) = absorb(lanes, tag.len() as u64, bytes.len() as u64);
    a ^= fold(b, K[4]);
    b ^= fold(a, K[2]);
    a ^= fold(b, K[3]);
    (u128::from(a) << 64) | u128::from(b)
}

/// One immutable encoded value: the wire blob plus its content hash.
pub(crate) struct EncodedBlock {
    /// Content hash of `(tag, bytes)` — the block's identity everywhere.
    pub hash: u128,
    /// The encoded bytes as they travel in `BlockData`.
    pub blob: Blob,
}

/// Driver-side block state: encode-once memo, content dedup, and the
/// per-node residency map behind transfer-aware placement.
///
/// Residency here is *optimistic*: a block is marked resident when its
/// `BlockData` is queued, not when the worker acks it. Frames on one link
/// are ordered, so any `Submit` that relies on the mark is decoded after
/// the bytes arrived. Worker evictions (`BlockEvict`) and node death
/// (`clear_node`) retract marks. The marks follow the worker's cache, not
/// the versions: a retired version's block may still sit there, and the
/// same content under a new version is then a reference, not a transfer.
/// Each hash mark has a twin that placement scores read, the
/// `DataRegistry` location of every live version holding the block;
/// [`BlockStore::set_resident`] sets and clears both.
pub(crate) struct BlockStore {
    inline_threshold: u64,
    /// The memo: the block of each live version that was ever dispatched.
    encoded: IdMap<DataVersion, Arc<EncodedBlock>>,
    /// Each distinct block once, with the live versions that hold it.
    by_hash: IdMap<u128, (Arc<EncodedBlock>, Vec<DataVersion>)>,
    resident: IdMap<u32, IdSet<u128>>,
    /// Encoded bytes held, each distinct block counted once.
    bytes: u64,
}

impl BlockStore {
    /// Empty store with the default inline threshold.
    pub fn new() -> BlockStore {
        BlockStore {
            inline_threshold: DEFAULT_INLINE_THRESHOLD,
            encoded: IdMap::default(),
            by_hash: IdMap::default(),
            resident: IdMap::default(),
            bytes: 0,
        }
    }

    /// Set the inline threshold (from `DistributedConfig`).
    pub fn set_inline_threshold(&mut self, bytes: u64) {
        self.inline_threshold = bytes;
    }

    /// Whether a value of `declared` bytes (the `DataRegistry::bytes` size
    /// model) travels as a block rather than inline.
    pub fn routes_block(&self, declared: u64) -> bool {
        declared >= self.inline_threshold
    }

    /// Encode `value` for version `v`, memoised: the first call pays the
    /// codec, every later call (any trial, any node) is a map lookup.
    /// Identical content under a different version collapses onto the
    /// existing block. `None` when no codec covers the value's type — the
    /// caller falls back to the inline path, whose error reporting stands.
    pub fn encode(&mut self, v: DataVersion, value: &Value) -> Option<Arc<EncodedBlock>> {
        if let Some(b) = self.encoded.get(&v) {
            return Some(Arc::clone(b));
        }
        let blob = codec::encode_value(value)?;
        let hash = content_hash(&blob.tag, &blob.bytes);
        let (block, versions) = self.by_hash.entry(hash).or_insert_with(|| {
            self.bytes += blob.bytes.len() as u64;
            (Arc::new(EncodedBlock { hash, blob }), Vec::new())
        });
        versions.push(v);
        let block = Arc::clone(block);
        self.encoded.insert(v, Arc::clone(&block));
        Some(block)
    }

    /// Version `v` is dead: forget its memo entry, and the block itself when
    /// `v` was the last live version holding that content.
    pub fn retire(&mut self, v: DataVersion) {
        let Some(block) = self.encoded.remove(&v) else { return };
        let Some((_, versions)) = self.by_hash.get_mut(&block.hash) else { return };
        versions.retain(|x| *x != v);
        if versions.is_empty() {
            self.by_hash.remove(&block.hash);
            self.bytes -= block.blob.bytes.len() as u64;
        }
    }

    /// Encoded bytes the store holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The block with this hash, for serving worker `BlockRequest`s. A
    /// worker only asks on behalf of a running task, whose use keeps the
    /// version — and with it the block — live.
    pub fn lookup(&self, hash: u128) -> Option<Arc<EncodedBlock>> {
        self.by_hash.get(&hash).map(|(block, _)| Arc::clone(block))
    }

    /// Is `hash` (optimistically) resident on `node`?
    #[cfg(test)]
    pub fn is_resident(&self, node: u32, hash: u128) -> bool {
        self.resident.get(&node).is_some_and(|s| s.contains(&hash))
    }

    /// Mark `hash` resident on `node`, or clear the mark (`BlockEvict`),
    /// and with it the `data` location of every live version holding the
    /// block: dispatch, refill and eviction all come here, so the two marks
    /// stay in step. Returns whether the hash mark changed.
    pub fn set_resident(
        &mut self,
        data: &mut DataRegistry,
        node: u32,
        hash: u128,
        on: bool,
    ) -> bool {
        let changed = if on {
            self.resident.entry(node).or_default().insert(hash)
        } else {
            self.resident.get_mut(&node).is_some_and(|marks| marks.remove(&hash))
        };
        for &v in self.by_hash.get(&hash).map_or(&[][..], |(_, vs)| vs) {
            if on {
                data.add_location(v, node);
            } else {
                data.remove_location(v, node);
            }
        }
        changed
    }

    /// Blocks marked resident on `node`.
    #[cfg(test)]
    pub fn resident_on(&self, node: u32) -> usize {
        self.resident.get(&node).map_or(0, IdSet::len)
    }

    /// Drop every mark for `node` — worker death, alongside
    /// `DataRegistry::clear_node_locations`.
    pub fn clear_node(&mut self, node: u32) {
        self.resident.remove(&node);
    }
}

struct Slot {
    value: Value,
    bytes: u64,
    tick: u64,
}

/// Worker-side decoded-block cache: LRU under a byte budget.
///
/// Blocks are immutable, so there is no dirtiness or write-back — only
/// recency. The LRU order lives in a `BTreeMap<tick, hash>` (monotonic
/// tick per touch): O(log n) touch/evict with no linked-list unsafe code.
#[derive(Default)]
pub(crate) struct BlockCache {
    budget: u64,
    used: u64,
    tick: u64,
    slots: IdMap<u128, Slot>,
    lru: BTreeMap<u64, u128>,
}

impl BlockCache {
    /// Empty cache bounded by `budget` bytes of encoded-payload size.
    pub fn new(budget: u64) -> BlockCache {
        BlockCache { budget, used: 0, tick: 0, slots: IdMap::default(), lru: BTreeMap::new() }
    }

    fn touch(slot: &mut Slot, lru: &mut BTreeMap<u64, u128>, tick: &mut u64, hash: u128) {
        lru.remove(&slot.tick);
        *tick += 1;
        slot.tick = *tick;
        lru.insert(slot.tick, hash);
    }

    /// The cached value, refreshing its recency. `None` is a miss.
    pub fn get(&mut self, hash: u128) -> Option<Value> {
        let slot = self.slots.get_mut(&hash)?;
        Self::touch(slot, &mut self.lru, &mut self.tick, hash);
        Some(slot.value.clone())
    }

    /// Insert (or refresh) a block, evicting least-recently-used blocks
    /// until the budget holds again. Returns the evicted hashes so the
    /// caller can ship `BlockEvict` frames. A block larger than the whole
    /// budget still resides (alone) — the alternative is thrashing on
    /// every use.
    pub fn insert(&mut self, hash: u128, value: Value, bytes: u64) -> Vec<u128> {
        if let Some(slot) = self.slots.get_mut(&hash) {
            Self::touch(slot, &mut self.lru, &mut self.tick, hash);
            return Vec::new();
        }
        self.tick += 1;
        self.slots.insert(hash, Slot { value, bytes, tick: self.tick });
        self.lru.insert(self.tick, hash);
        self.used += bytes;
        let mut evicted = Vec::new();
        while self.used > self.budget && self.slots.len() > 1 {
            // The fresh block has the newest tick: it is never the oldest.
            let (&old_tick, &old_hash) = self.lru.iter().next().expect("lru nonempty");
            self.lru.remove(&old_tick);
            let slot = self.slots.remove(&old_hash).expect("slot exists");
            self.used -= slot.bytes;
            evicted.push(old_hash);
        }
        evicted
    }

    /// Bytes currently resident (encoded-payload accounting).
    pub fn resident_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident blocks.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;

    fn val(n: i64) -> Value {
        Value::new(n)
    }

    /// The byte-at-a-time FNV-1a-128 that `content_hash` replaced: the
    /// baseline of the separation tests — whatever it told apart, the
    /// word-at-a-time hash must too.
    fn fnv1a_128(tag: &str, bytes: &[u8]) -> u128 {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        for &b in tag.as_bytes().iter().chain(&[0xff]).chain(bytes) {
            h = (h ^ u128::from(b)).wrapping_mul(PRIME);
        }
        h
    }

    /// Hash every input under both functions; the new one may collide only
    /// where the old one did. Returns how many distinct hashes there were.
    fn assert_separates_like_fnv<'a>(inputs: impl Iterator<Item = (&'a str, Vec<u8>)>) -> usize {
        let mut by_fnv: HashMap<u128, u128> = HashMap::new();
        let mut seen: HashSet<u128> = HashSet::new();
        let (mut hi, mut lo) = (HashSet::new(), HashSet::new());
        for (tag, bytes) in inputs {
            let h = content_hash(tag, &bytes);
            assert_eq!(h, content_hash(tag, &bytes), "equal input, equal hash");
            match by_fnv.insert(fnv1a_128(tag, &bytes), h) {
                // The same input twice (or an FNV collision, never seen).
                Some(prev) => assert_eq!(prev, h),
                None => {
                    assert!(seen.insert(h), "collision on ({tag:?}, {} bytes)", bytes.len());
                    // Each half is a 64-bit hash in its own right.
                    assert!(hi.insert((h >> 64) as u64) && lo.insert(h as u64));
                }
            }
        }
        seen.len()
    }

    /// Shaped like an encoded training snapshot: a small header, then
    /// length-prefixed little-endian `f32` runs with many shared exponents.
    fn snapshot_shaped(len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 4);
        out.extend_from_slice(&0x544e_5331u32.to_le_bytes());
        out.extend_from_slice(&42u64.to_le_bytes());
        let mut i = 0u32;
        while out.len() < len {
            out.extend_from_slice(&(((i * 37) as f32).sin() * 0.05).to_bits().to_le_bytes());
            i += 1;
        }
        out.truncate(len);
        out
    }

    #[test]
    fn content_hash_separates_tag_and_payload() {
        let n = assert_separates_like_fnv(
            [
                ("ab", "c"),
                ("a", "bc"),
                ("", "abc"),
                ("abc", ""),
                ("t", "x"),
                ("t", "y"),
                ("u", "x"),
            ]
            .into_iter()
            .map(|(tag, bytes)| (tag, bytes.as_bytes().to_vec())),
        );
        assert_eq!(n, 7);
        // A tag longer than one word, moved across the boundary byte by byte.
        let text = "hpo.stage/codec-tag-longer-than-a-word";
        let moved = (0..=text.len()).map(|at| (&text[..at], text.as_bytes()[at..].to_vec()));
        assert_eq!(assert_separates_like_fnv(moved), text.len() + 1);
    }

    #[test]
    fn content_hash_separates_lengths() {
        // Every tail length 0–31 twice over (one and two whole words ahead of
        // it), as zeros — where only the folded-in length can tell — and as
        // prefixes of one buffer of non-zero bytes, bare and followed by zeros.
        let data: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(7) | 1).collect();
        let zeros = (0..=80).map(|n| ("t", vec![0u8; n]));
        let prefixes = (1..=80).map(|n| ("t", data[..n].to_vec()));
        let padded = (1..80).flat_map(|n| {
            [1usize, 15, 16, 17].into_iter().map({
                let data = &data;
                move |z| ("t", [&data[..n], &vec![0u8; z][..]].concat())
            })
        });
        let n = assert_separates_like_fnv(zeros.chain(prefixes).chain(padded));
        assert_eq!(n, 81 + 80 + 79 * 4);
    }

    #[test]
    fn content_hash_sees_every_bit_of_a_snapshot() {
        // Odd length: the last word is a padded tail.
        let base = snapshot_shaped(4093);
        let flips = (0..base.len() * 8).map(|bit| {
            let mut b = base.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            ("hpo.stage", b)
        });
        let n =
            assert_separates_like_fnv(std::iter::once(("hpo.stage", base.clone())).chain(flips));
        assert_eq!(n, 1 + base.len() * 8);
    }

    #[test]
    fn content_hash_has_no_collisions_on_random_and_structured_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let random = (0..60_000).map(|_| {
            let len = rng.gen_range(0..96usize);
            ("r", (0..len).map(|_| rng.gen_range(0..=255u8)).collect::<Vec<u8>>())
        });
        // Counters in three spellings, and one set byte walking a zero page.
        let counters = (0..20_000u64).flat_map(|i| {
            [
                ("c", i.to_le_bytes().to_vec()),
                ("c", i.to_be_bytes().to_vec()),
                ("c", i.to_string().into_bytes()),
            ]
        });
        let walking = (0..4096usize).flat_map(|at| {
            [1u8, 0x80, 0xff].into_iter().map(move |v| {
                let mut page = vec![0u8; 4096];
                page[at] = v;
                ("z", page)
            })
        });
        let n = assert_separates_like_fnv(random.chain(counters).chain(walking));
        assert!(n >= 100_000, "{n} distinct inputs");
    }

    #[test]
    fn store_memoises_per_version_and_dedups_by_content() {
        // i64 rides the builtin "std.i64" codec.
        let mut store = BlockStore::new();
        let v1 = DataVersion { handle: crate::data::DataHandle(1), version: 0 };
        let v2 = DataVersion { handle: crate::data::DataHandle(2), version: 0 };
        let b1 = store.encode(v1, &val(42)).expect("codec registered");
        let b1b = store.encode(v1, &val(42)).expect("memo hit");
        assert!(Arc::ptr_eq(&b1, &b1b), "same version returns the memoised block");
        // Different version, identical content: same hash, shared block.
        let b2 = store.encode(v2, &val(42)).expect("codec registered");
        assert_eq!(b1.hash, b2.hash);
        assert!(Arc::ptr_eq(&b1, &b2), "identical content collapses to one block");
        assert_eq!(store.by_hash[&b1.hash].1, [v1, v2]);
        assert!(store.lookup(b1.hash).is_some());
        assert_eq!(store.bytes(), b1.blob.bytes.len() as u64, "one block, counted once");
    }

    #[test]
    fn retiring_the_last_version_of_a_content_frees_the_block() {
        let mut store = BlockStore::new();
        let v1 = DataVersion { handle: crate::data::DataHandle(1), version: 1 };
        let v2 = DataVersion { handle: crate::data::DataHandle(2), version: 1 };
        let hash = store.encode(v1, &val(42)).unwrap().hash;
        store.encode(v2, &val(42)).unwrap();
        store.set_resident(&mut DataRegistry::new(8), 0, hash, true);
        store.retire(v1);
        assert_eq!(store.by_hash[&hash].1, [v2]);
        assert!(store.lookup(hash).is_some(), "v2 still holds the content");
        store.retire(v1); // already gone: nothing to do
        store.retire(v2);
        assert!(store.lookup(hash).is_none() && !store.by_hash.contains_key(&hash));
        assert_eq!(store.bytes(), 0);
        assert!(store.encoded.is_empty() && store.by_hash.is_empty());
        // The worker may well still cache it: an identical literal under a
        // new version is re-encoded driver-side and travels as a reference.
        assert!(store.is_resident(0, hash));
        let v3 = DataVersion { handle: crate::data::DataHandle(3), version: 1 };
        assert_eq!(store.encode(v3, &val(42)).unwrap().hash, hash);
    }

    #[test]
    fn store_residency_add_evict_clear() {
        let (mut store, mut data) = (BlockStore::new(), DataRegistry::new(8));
        // Two live versions with the same bytes hold one block.
        let [v1, v2] = [1, 2].map(|n| {
            let h = data.literal(val(n));
            data.current_version(h)
        });
        let hash = store.encode(v1, &val(42)).unwrap().hash;
        store.encode(v2, &val(42)).unwrap();
        let on = |data: &DataRegistry, node| [v1, v2].map(|v| data.is_on_node(v, node));
        assert!(store.set_resident(&mut data, 3, hash, true));
        assert!(!store.set_resident(&mut data, 3, hash, true), "marked already");
        store.set_resident(&mut data, 3, 9, true);
        store.set_resident(&mut data, 4, hash, true);
        assert!(store.is_resident(3, hash));
        assert_eq!(on(&data, 3), [true; 2], "every version holding the block");
        assert!(store.set_resident(&mut data, 3, hash, false));
        assert!(!store.is_resident(3, hash));
        assert_eq!(on(&data, 3), [false; 2]);
        assert!(store.is_resident(3, 9));
        assert!(store.is_resident(4, hash) && on(&data, 4) == [true; 2]);
        store.clear_node(4);
        assert!(!store.is_resident(4, hash));
    }

    #[test]
    fn threshold_routes_declared_sizes() {
        let mut store = BlockStore::new();
        assert!(!store.routes_block(1024));
        assert!(store.routes_block(DEFAULT_INLINE_THRESHOLD));
        store.set_inline_threshold(10);
        assert!(store.routes_block(1024));
        store.set_inline_threshold(u64::MAX);
        assert!(!store.routes_block(1 << 40), "MAX disables the block plane");
    }

    #[test]
    fn cache_evicts_least_recently_used_under_budget() {
        let mut cache = BlockCache::new(100);
        assert!(cache.insert(1, val(1), 40).is_empty());
        assert!(cache.insert(2, val(2), 40).is_empty());
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        let evicted = cache.insert(3, val(3), 40);
        assert_eq!(evicted, vec![2]);
        assert!(cache.get(2).is_none(), "evicted block misses");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.resident_bytes(), 80);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_keeps_oversized_block_alone() {
        let mut cache = BlockCache::new(100);
        assert!(cache.insert(1, val(1), 60).is_empty());
        let evicted = cache.insert(2, val(2), 500);
        assert_eq!(evicted, vec![1], "everything else evicted");
        assert!(cache.get(2).is_some(), "oversized block still resides");
        assert_eq!(cache.resident_bytes(), 500);
    }

    #[test]
    fn cache_reinsert_refreshes_without_double_count() {
        let mut cache = BlockCache::new(100);
        assert!(cache.insert(1, val(1), 30).is_empty());
        assert!(cache.insert(2, val(2), 30).is_empty());
        assert!(cache.insert(1, val(1), 30).is_empty(), "refresh, no eviction");
        assert_eq!(cache.resident_bytes(), 60);
        // 2 is now the LRU victim despite inserting 1 first.
        let evicted = cache.insert(3, val(3), 60);
        assert_eq!(evicted, vec![2]);
    }
}
