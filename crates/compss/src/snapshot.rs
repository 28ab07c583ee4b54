//! Ambient snapshot channel: how a running task hands intermediate state
//! to the runtime for crash/retry recovery.
//!
//! The paper's fault-tolerance story (retry on the same node, then
//! resubmit elsewhere — see [`crate::fault`]) restarts a failed task from
//! scratch. For long-running bodies (model training), that forfeits all
//! completed work. This module closes the gap: a task body periodically
//! calls [`save`] with an opaque blob, and a retried attempt calls [`load`]
//! first. A snapshot belongs to the task that saved it — there is no key:
//! the runtime keeps the latest blob on the unsettled task's own record, so
//! only a later attempt *of that task* can read it, and it goes when the
//! task settles, done or failed for good. On the threaded backend that
//! record is in-process; on the distributed backend a worker mirrors each
//! save to the driver in a `Data` frame, and the driver sends the blob
//! along with the `Submit` of the next attempt — so a killed worker costs
//! at most one snapshot interval, not the whole task, and a load never
//! waits on the wire.
//!
//! The channel is *ambient*: backends install it around the task body
//! with [`with_channel`], and bodies call the free functions without
//! threading any handle through their signatures. Outside any scope
//! (unit tests, the sim backend) the functions are inert: [`save`]
//! returns `false`, [`load`] returns `None` — checkpointing degrades to
//! "train from scratch", never to an error.

use std::cell::RefCell;
use std::sync::Arc;

use crate::task::TaskId;

/// Where a task's snapshots go and come back from. Implementations are the
/// backend's business: the task's record (threaded), a mirror to the driver
/// and what the driver sent with the job (distributed).
pub trait SnapshotChannel: Send + Sync {
    /// Store `blob` as the latest snapshot of `task`, replacing any
    /// previous one.
    fn save(&self, task: TaskId, blob: &[u8]);
    /// The latest snapshot of `task`, if an attempt of it saved one.
    fn load(&self, task: TaskId) -> Option<Vec<u8>>;
}

thread_local! {
    static CHANNEL: RefCell<Option<(Arc<dyn SnapshotChannel>, TaskId)>> =
        const { RefCell::new(None) };
}

/// Install `channel` for the body of `task` for the duration of `f` on this
/// thread (panic-safe: the previous channel is restored even if `f`
/// unwinds). Backends wrap task-body invocation in this; nesting restores
/// the outer channel on exit.
pub fn with_channel<R>(
    channel: Arc<dyn SnapshotChannel>,
    task: TaskId,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore(Option<(Arc<dyn SnapshotChannel>, TaskId)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CHANNEL.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = CHANNEL.with(|c| c.borrow_mut().replace((channel, task)));
    let _restore = Restore(prev);
    f()
}

/// Save a snapshot of the running task through the ambient channel.
/// Returns `false` when no channel is installed (snapshot silently
/// skipped).
pub fn save(blob: &[u8]) -> bool {
    CHANNEL.with(|c| match &*c.borrow() {
        Some((ch, task)) => {
            ch.save(*task, blob);
            true
        }
        None => false,
    })
}

/// The running task's latest snapshot — this attempt's, else an earlier
/// attempt's — if a channel is installed and holds one.
pub fn load() -> Option<Vec<u8>> {
    CHANNEL.with(|c| c.borrow().as_ref().and_then(|(ch, task)| ch.load(*task)))
}

/// Whether a channel is installed on this thread (lets bodies skip
/// snapshot serialization entirely when nobody is listening).
pub fn active() -> bool {
    CHANNEL.with(|c| c.borrow().is_some())
}

/// The threaded backend's channel: the task's own record in the runtime, so
/// a retried attempt (same process, any worker thread) finds the blob.
pub(crate) struct InProcessChannel(pub Arc<crate::runtime::Shared>);

impl SnapshotChannel for InProcessChannel {
    fn save(&self, task: TaskId, blob: &[u8]) {
        self.0.core.lock().save_snapshot(task, Arc::from(blob));
    }

    fn load(&self, task: TaskId) -> Option<Vec<u8>> {
        Some(self.0.core.lock().instances.get(&task)?.snapshot.as_deref()?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    #[derive(Default)]
    struct MapChannel(Mutex<HashMap<TaskId, Vec<u8>>>);

    impl SnapshotChannel for MapChannel {
        fn save(&self, task: TaskId, blob: &[u8]) {
            self.0.lock().insert(task, blob.to_vec());
        }
        fn load(&self, task: TaskId) -> Option<Vec<u8>> {
            self.0.lock().get(&task).cloned()
        }
    }

    #[test]
    fn inert_outside_any_scope() {
        assert!(!active());
        assert!(!save(b"x"));
        assert!(load().is_none());
    }

    #[test]
    fn scoped_channel_receives_and_serves() {
        let ch = Arc::new(MapChannel::default());
        with_channel(ch.clone(), TaskId(7), || {
            assert!(active());
            assert!(load().is_none());
            assert!(save(b"state"));
            assert_eq!(load().unwrap(), b"state");
            assert!(save(b"newer"), "latest wins");
            assert_eq!(load().unwrap(), b"newer");
        });
        assert!(!active(), "channel uninstalled on exit");
        // A later attempt of the same task finds it; another task does not.
        with_channel(ch.clone(), TaskId(7), || assert_eq!(load().unwrap(), b"newer"));
        with_channel(ch, TaskId(8), || assert!(load().is_none()));
    }

    #[test]
    fn nesting_restores_the_outer_channel_and_task() {
        let outer = Arc::new(MapChannel::default());
        let inner = Arc::new(MapChannel::default());
        with_channel(outer.clone(), TaskId(1), || {
            save(b"outer");
            with_channel(inner.clone(), TaskId(2), || {
                assert!(load().is_none(), "inner channel is fresh");
                save(b"inner");
            });
            assert_eq!(load().unwrap(), b"outer", "outer restored");
        });
        assert_eq!(inner.0.lock().get(&TaskId(2)).unwrap(), b"inner");
        assert_eq!(outer.0.lock().len(), 1);
    }

    #[test]
    fn channel_survives_a_panicking_body() {
        let ch = Arc::new(MapChannel::default());
        let _ = std::panic::catch_unwind(|| {
            with_channel(ch, TaskId(9), || {
                save(b"pre-panic");
                panic!("boom");
            })
        });
        assert!(!active(), "panic must not leak the installed channel");
    }
}
