//! Benchmark-side spans around calls into the program's layers.
//!
//! Spans are recorded only in a traced pass, kept in memory, and written
//! as Chrome trace JSON when the pass ends. Nothing here touches the
//! program: a span brackets a call the benchmark itself makes (or a task
//! body the benchmark wrapped before handing it to the runtime).

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::sys;

/// Parent id of a span nothing else encloses.
pub const ROOT: u32 = 0;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the enclosing span on the same thread, or [`ROOT`].
    pub parent: u32,
    /// `layer.module.call`.
    pub name: &'static str,
    /// Round the call served; spans of one round share it.
    pub round: u32,
    /// Small per-thread number (Chrome's `tid`).
    pub tid: u32,
    /// Start, ns since tracing was enabled.
    pub start_ns: u64,
    /// End, ns since tracing was enabled.
    pub end_ns: u64,
    /// Thread CPU time inside the span, ns; 0 unless asked for.
    pub cpu_ns: u64,
}

// Relaxed: the flag publishes no data, and it is set before any measured
// thread starts.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static ROUND: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(ROOT) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// Turn span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether this is a traced pass.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The driver is starting round `round`; task bodies wrapped by the
/// benchmark stamp their spans with it.
pub fn set_round(round: u32) {
    ROUND.store(round, Ordering::Relaxed);
}

/// The round the driver last announced.
pub fn current_round() -> u32 {
    ROUND.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    round: u32,
    start_ns: u64,
    cpu_start_ns: Option<u64>,
}

fn open(name: &'static str, round: u32, with_cpu: bool) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Some(Guard {
        id,
        parent,
        name,
        round,
        start_ns: now_ns(),
        cpu_start_ns: with_cpu.then(|| sys::thread_cpu().as_nanos() as u64),
    })
}

/// Open a span; `None` (and no clock read) when tracing is off.
pub fn span(name: &'static str, round: u32) -> Option<Guard> {
    open(name, round, false)
}

/// Like [`span`], also measuring the thread's CPU time inside it. Costs a
/// system call at each end, so use it around millisecond-scale calls only.
pub fn span_cpu(name: &'static str, round: u32) -> Option<Guard> {
    open(name, round, true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let cpu_ns = self.cpu_start_ns.map_or(0, |c0| sys::thread_cpu().as_nanos() as u64 - c0);
        CURRENT.with(|c| c.set(self.parent));
        let tid = TID.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        // A poisoned sink only loses spans of a pass that already failed.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                round: self.round,
                tid,
                start_ns: self.start_ns,
                end_ns,
                cpu_ns,
            });
        }
    }
}

/// Every span recorded so far, leaving the sink empty.
pub fn take() -> Vec<Span> {
    SINK.lock().map(|mut s| std::mem::take(&mut *s)).unwrap_or_default()
}

/// Self time of each span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Write `spans` as Chrome trace JSON (`chrome://tracing`, Perfetto):
/// complete events, `ts`/`dur` in µs, with id, parent and round in `args`.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let own = self_times(spans);
    writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, (s, own_ns)) in spans.iter().zip(&own).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"round\":{},\"self_us\":{:.3},\"cpu_us\":{:.3}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.round,
            *own_ns as f64 / 1e3,
            s.cpu_ns as f64 / 1e3,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let s = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            round: 0,
            tid: 1,
            start_ns,
            end_ns,
            cpu_ns: 0,
        };
        let spans = [s(2, 1, 10, 40), s(3, 1, 50, 60), s(1, ROOT, 0, 100)];
        assert_eq!(self_times(&spans), vec![30, 10, 60]);
    }
}
