//! Hash maps keyed by the runtime's own ids: task, exec and node ids, data
//! handles and versions, and content hashes (made by
//! [`crate::blocks::content_hash`]). Nobody can pick such keys to collide,
//! so SipHash's flood resistance buys nothing for them; [`IdHasher`] folds
//! each word in with one multiply. A key a peer or a client chooses (a
//! tenant, a sweep name, a metric label, a codec tag) keeps `RandomState`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over runtime-generated ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over runtime-generated ids.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The Fx hash (rustc's): per word a rotate, an xor and a multiply by an
/// odd constant, which carries every input bit into the high bits.
#[derive(Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataHandle, DataVersion};
    use crate::task::TaskId;

    #[test]
    fn dense_ids_spread_over_the_table() {
        // Sequential task ids, versions of one handle, and content hashes
        // that differ in one half only: no two of each family share a hash.
        let hash = |h: &dyn Fn(&mut IdHasher)| {
            let mut s = IdHasher::default();
            h(&mut s);
            s.finish()
        };
        let mut seen = IdSet::default();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash(&|s| std::hash::Hash::hash(&TaskId(i), s))));
        }
        seen.clear();
        for v in 1..10_000u32 {
            let dv = DataVersion { handle: DataHandle::test_only(7), version: v };
            assert!(seen.insert(hash(&|s| std::hash::Hash::hash(&dv, s))));
        }
        seen.clear();
        for i in 0..10_000u128 {
            assert!(seen.insert(hash(&|s| s.write_u128(i << 64))));
            assert!(seen.insert(hash(&|s| s.write_u128(i + 1))));
        }
        let map: IdMap<u64, u64> = (0..1000).map(|i| (i, i * 2)).collect();
        assert!((0..1000).all(|i| map[&i] == i * 2));
    }
}
