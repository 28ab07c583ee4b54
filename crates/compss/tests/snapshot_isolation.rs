//! A mid-task snapshot belongs to the task that saved it. Two tasks run the
//! same body over the same config at the same time — two tenants sweeping
//! one space on a shared pool, or a random search drawing a config twice —
//! and one of them loses two attempts. Each retry must resume from what
//! *its own* task saved, whatever the sibling saved or finished in between,
//! and once both have settled the runtime holds no snapshot at all.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcompss::{
    ArgSpec, Constraint, DistributedConfig, RetryPolicy, Runtime, RuntimeConfig, TaskContext,
    TaskDef, TaskError, TaskRegistry, Value, WorkerConfig, WorkerServer,
};

/// What one attempt found when it started: `(task, attempt, loaded)`.
type Loads = Arc<Mutex<Vec<(u64, u32, Option<String>)>>>;

/// The steps the two bodies take turns through; each waits for the step
/// before its own and then announces it.
#[derive(Default)]
struct Script(AtomicU32);

const VICTIM_SAVED: u32 = 1;
const SIBLING_SAVED: u32 = 2;
const VICTIM_RESUMED: u32 = 3;
const SIBLING_DONE: u32 = 4;

impl Script {
    fn wait_for(&self, step: u32) -> Result<(), TaskError> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.0.load(Ordering::SeqCst) < step {
            if Instant::now() > deadline {
                return Err(TaskError::new(format!("step {step} never came")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    fn reached(&self, step: u32) {
        self.0.store(step, Ordering::SeqCst);
    }
}

/// `train(config, role)`: role 0 is the victim, role 1 its sibling. The
/// config is the same value for both, so nothing a body could derive from
/// it tells their snapshots apart.
fn train(script: Arc<Script>, loads: Loads) -> TaskDef {
    let body = move |ctx: &TaskContext, inputs: &[Value]| {
        let role = *inputs[1].downcast_ref::<i64>().unwrap();
        let loaded = rcompss::snapshot::load().map(|b| String::from_utf8(b).unwrap());
        loads.lock().unwrap().push((ctx.task.0, ctx.attempt, loaded));
        let save = |epoch: u32| {
            rcompss::snapshot::save(format!("task {} epoch {epoch}", ctx.task.0).as_bytes());
        };
        match (role, ctx.attempt) {
            // The victim saves, the sibling saves after it, the victim dies.
            (0, 1) => {
                save(1);
                script.reached(VICTIM_SAVED);
                script.wait_for(SIBLING_SAVED)?;
                Err(TaskError::new("first attempt lost"))
            }
            // Resumed, it saves again, the sibling finishes, it dies again.
            (0, 2) => {
                save(2);
                script.reached(VICTIM_RESUMED);
                script.wait_for(SIBLING_DONE)?;
                Err(TaskError::new("second attempt lost"))
            }
            (0, _) => Ok(vec![Value::new(0i64)]),
            _ => {
                script.wait_for(VICTIM_SAVED)?;
                save(1);
                script.reached(SIBLING_SAVED);
                script.wait_for(VICTIM_RESUMED)?;
                Ok(vec![Value::new(1i64)])
            }
        }
    };
    TaskDef {
        name: "train".into(),
        constraint: Constraint::cpus(1),
        returns: 1,
        priority: false,
        body: Arc::new(body),
        alternatives: Vec::new(),
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig::single_node(2)
        .with_tracing(false)
        .with_retry(RetryPolicy { max_attempts: 4, same_node_first: true })
}

/// Submit the pair, let the script play out, and check who loaded what.
fn run_pair(rt: &Runtime, train: &TaskDef, script: &Script, loads: &Loads) {
    let live = || rt.metrics().snapshot().gauge("rcompss_live_snapshot_bytes").unwrap();
    let same_config = rt.literal(42i64);
    let submit = |role: i64| {
        let role = rt.literal(role);
        rt.submit(train, vec![ArgSpec::In(same_config), ArgSpec::In(role)]).unwrap()
    };
    let (victim, sibling) = (submit(0), submit(1));
    assert_eq!(*rt.wait_on(&sibling.returns[0]).unwrap().downcast_ref::<i64>().unwrap(), 1);
    // The sibling has settled and taken its snapshot along; the victim's
    // second one is still held for the attempt to come. (Over the wire it
    // may be a moment behind the sibling's result, on another socket.)
    let held = format!("task {} epoch 2", victim.task.0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while live() != held.len() as f64 {
        assert!(Instant::now() < deadline, "{} snapshot bytes held, not {}", live(), held.len());
        std::thread::sleep(Duration::from_millis(1));
    }
    script.reached(SIBLING_DONE);
    assert_eq!(*rt.wait_on(&victim.returns[0]).unwrap().downcast_ref::<i64>().unwrap(), 0);
    rt.barrier();

    let mut loads = loads.lock().unwrap().clone();
    loads.sort();
    let (v, s) = (victim.task.0, sibling.task.0);
    assert_eq!(
        loads,
        [(v, 1, None), (v, 2, Some(format!("task {v} epoch 1"))), (v, 3, Some(held)), (s, 1, None),]
    );
    assert_eq!(live(), 0.0, "both settled: nothing is held");
    assert_eq!(rt.stats().failed_attempts, 2);
}

#[test]
fn each_retry_resumes_its_own_task_on_threads() {
    let (script, loads) = (Arc::new(Script::default()), Loads::default());
    let train = train(Arc::clone(&script), Arc::clone(&loads));
    run_pair(&Runtime::threaded(config()), &train, &script, &loads);
}

#[test]
fn each_retry_resumes_its_own_task_over_two_loopback_workers() {
    let (script, loads) = (Arc::new(Script::default()), Loads::default());
    let train = train(Arc::clone(&script), Arc::clone(&loads));
    // Two cores each: the same-node retry and the other-node retry both find
    // a free core while the sibling holds one.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig { name: format!("w{i}"), cores: 2, ..WorkerConfig::default() };
            let registry = TaskRegistry::new().with(train.clone());
            WorkerServer::bind("127.0.0.1:0", cfg, registry).unwrap().spawn().unwrap()
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
    let rt = Runtime::distributed(config(), &addrs, DistributedConfig::default()).unwrap();
    run_pair(&rt, &train, &script, &loads);
}
