//! Atomic snapshot store: one file per trial.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<trial-key-hex>.snap
//! ```
//!
//! Callers key trials however they like (the hpo layer uses an FNV-64 of
//! the config label). A save writes a tmp file of its own in the same
//! directory, fsyncs it and renames it over the trial's file, so a
//! concurrent or post-crash reader only ever sees a complete snapshot, and
//! two saves of one trial never share a path: the last rename wins whole.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Prefix of in-progress writes. A file with it is never read.
const TMP_PREFIX: &str = ".tmp-";

/// Snapshot store rooted at a directory, holding the newest snapshot of
/// each trial.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Open (creating if needed) a store rooted at `root`. Tmp files left by
    /// a writer that died mid-save are deleted: a store directory has one
    /// writing process.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<DirStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(TMP_PREFIX) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(DirStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, trial: u64) -> PathBuf {
        self.root.join(format!("{trial:016x}.snap"))
    }

    /// Atomically replace `trial`'s snapshot with `blob`. Returns bytes
    /// written.
    pub fn save(&self, trial: u64, blob: &[u8]) -> std::io::Result<u64> {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!("{TMP_PREFIX}{trial:016x}-{}-{n}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(blob)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.path(trial))?;
        Ok(blob.len() as u64)
    }

    /// Load `trial`'s snapshot, or `None` if it has none.
    pub fn load(&self, trial: u64) -> std::io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(trial)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Delete `trial`'s snapshot (called when the trial finishes — a
    /// journaled outcome supersedes it).
    pub fn clear(&self, trial: u64) -> std::io::Result<()> {
        match std::fs::remove_file(self.path(trial)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> DirStore {
        let dir = std::env::temp_dir().join(format!("ckpt-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirStore::open(dir).unwrap()
    }

    fn names(s: &DirStore) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(s.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_load_round_trip() {
        let s = store("roundtrip");
        assert!(s.load(7).unwrap().is_none());
        s.save(7, b"epoch-one").unwrap();
        s.save(7, b"epoch-four").unwrap();
        assert_eq!(s.load(7).unwrap().unwrap(), b"epoch-four", "a save replaces the last");
        assert_eq!(names(&s), vec![format!("{:016x}.snap", 7u64)], "one file per trial");
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn trials_are_isolated_and_clear_removes_one() {
        let s = store("isolate");
        s.save(1, b"one").unwrap();
        s.save(2, b"two").unwrap();
        s.clear(1).unwrap();
        assert!(s.load(1).unwrap().is_none());
        assert_eq!(s.load(2).unwrap().unwrap(), b"two");
        s.clear(999).unwrap(); // clearing an unknown trial is a no-op
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let s = store("tmp");
        s.save(3, &[0u8; 4096]).unwrap();
        let leftovers: Vec<_> =
            names(&s).into_iter().filter(|n| n.starts_with(TMP_PREFIX)).collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn open_sweeps_the_tmp_files_of_a_dead_writer() {
        let s = store("orphan");
        s.save(4, b"kept").unwrap();
        std::fs::write(s.root().join(format!("{TMP_PREFIX}{:016x}-1-0", 4u64)), b"torn").unwrap();
        let s = DirStore::open(s.root()).unwrap();
        assert_eq!(names(&s), vec![format!("{:016x}.snap", 4u64)]);
        assert_eq!(s.load(4).unwrap().unwrap(), b"kept");
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    /// Two saves of one trial at once (a random sweep can run one config
    /// twice) each write a tmp file of their own: both succeed, and the
    /// trial's file is one of the two payloads, whole.
    #[test]
    fn concurrent_saves_of_one_trial_both_land() {
        let s = store("race");
        let a = vec![0xAAu8; 1 << 20];
        let b = vec![0xBBu8; 1 << 20];
        for round in 0..20 {
            let results = std::thread::scope(|scope| {
                let ta = scope.spawn(|| s.save(7, &a));
                let tb = scope.spawn(|| s.save(7, &b));
                [ta.join().unwrap(), tb.join().unwrap()]
            });
            for r in &results {
                assert!(r.is_ok(), "round {round}: a save failed: {r:?}");
            }
            let got = s.load(7).unwrap().expect("a snapshot");
            assert!(got == a || got == b, "round {round}: a torn snapshot was published");
        }
        assert_eq!(names(&s), vec![format!("{:016x}.snap", 7u64)]);
        std::fs::remove_dir_all(s.root()).unwrap();
    }
}
