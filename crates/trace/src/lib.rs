//! `paratrace` — Extrae/Paraver-style tracing for the rcompss runtime.
//!
//! The paper instruments PyCOMPSs with [Extrae], which captures events during
//! program execution and generates [Paraver] traces; Figures 4–6 of the paper
//! are Paraver timelines (X axis = time, Y axis = resource, i.e. cores and
//! nodes). This crate reproduces that tooling layer:
//!
//! * [`collector::TraceCollector`] — a thread-safe, cheaply-disableable event
//!   sink. The paper notes tracing is toggled "using a simple flag"; the
//!   collector honours that by becoming a near-no-op when disabled.
//! * [`record`] — the event/state record model (task start/end, data
//!   transfers, scheduling decisions, user flags).
//! * [`prv`] — a Paraver-compatible `.prv`/`.row`/`.pcf` writer.
//! * [`chrome`] — a Chrome `trace_event` JSON writer, so the same records
//!   open in `chrome://tracing` and Perfetto without any BSC tooling.
//! * [`gantt`] — an ASCII Gantt renderer used to regenerate the *shape* of
//!   Figures 4, 5 and 6 in a terminal.
//! * [`stats`] — quantitative trace analysis (makespan, per-core utilisation,
//!   parallelism profile) standing in for Paraver's analysis views.
//! * [`report`] — per-task-function profiles and busy-core timelines, the
//!   Paraver "profile" tables as data/CSV.
//! * [`clock`] — NTP-style clock-offset estimation, what lets the
//!   distributed backend draw a worker's execution stamps on the driver
//!   timeline.
//!
//! All timestamps are `u64` microseconds. Traces produced from the simulated
//! backend use virtual time; traces from the threaded backend use wall time
//! relative to runtime start. The two are deliberately indistinguishable at
//! this layer.
//!
//! [Extrae]: https://tools.bsc.es/extrae
//! [Paraver]: https://tools.bsc.es/paraver

#![deny(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod collector;
pub mod gantt;
pub mod prv;
pub mod record;
pub mod report;
pub mod stats;

pub use clock::{ClockSample, ClockSync};
pub use collector::TraceCollector;
pub use record::{CoreId, EventKind, Record, StateKind, TaskRef};
pub use stats::TraceStats;

/// One microsecond expressed in trace time units.
pub const MICROSECOND: u64 = 1;
/// One millisecond expressed in trace time units.
pub const MILLISECOND: u64 = 1_000;
/// One second expressed in trace time units.
pub const SECOND: u64 = 1_000_000;
/// One minute expressed in trace time units.
pub const MINUTE: u64 = 60 * SECOND;

/// Render a trace duration as a short human string (`"29.1m"`, `"3.4s"` …).
pub fn fmt_duration(us: u64) -> String {
    if us >= MINUTE {
        format!("{:.1}m", us as f64 / MINUTE as f64)
    } else if us >= SECOND {
        format!("{:.1}s", us as f64 / SECOND as f64)
    } else if us >= MILLISECOND {
        format!("{:.1}ms", us as f64 / MILLISECOND as f64)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_natural_unit() {
        assert_eq!(fmt_duration(500), "500us");
        assert_eq!(fmt_duration(2_500), "2.5ms");
        assert_eq!(fmt_duration(3 * SECOND), "3.0s");
        assert_eq!(fmt_duration(29 * MINUTE + 6 * SECOND), "29.1m");
    }
}
