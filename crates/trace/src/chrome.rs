//! Chrome `trace_event` JSON export.
//!
//! Writes a record snapshot in the [Trace Event Format] consumed by
//! `chrome://tracing` and [Perfetto] (ui.perfetto.dev → "Open trace file"),
//! complementing the Paraver export in [`crate::prv`] with a viewer that
//! needs no BSC tooling:
//!
//! * each cluster **node** becomes a process (`pid`), each **core** a thread
//!   (`tid`), named through `"M"` metadata events;
//! * state intervals become `"X"` complete events (`ts`/`dur` in µs, which
//!   is the format's native unit — no scaling needed);
//! * point events become `"i"` instant events with thread scope.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://ui.perfetto.dev

use std::fmt::Write as _;

use crate::record::{EventKind, Record, StateKind};

/// Escape a string for a JSON string literal (no surrounding quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Slice name, category and args for a state record.
fn state_fields(state: &StateKind) -> (String, &'static str, String) {
    match state {
        StateKind::Running(t) => (esc(&t.name), "task", format!("{{\"task_id\":{}}}", t.id)),
        StateKind::RuntimeReserved => ("runtime reserved".into(), "runtime", "{}".into()),
        StateKind::Transferring { bytes } => {
            ("transfer".into(), "transfer", format!("{{\"bytes\":{bytes}}}"))
        }
        StateKind::Idle => ("idle".into(), "idle", "{}".into()),
    }
}

/// Instant-event name and args for a point event.
fn event_fields(kind: &EventKind) -> (String, String) {
    match kind {
        EventKind::TaskDispatch(t) => {
            (format!("dispatch {}", esc(&t.name)), format!("{{\"task_id\":{}}}", t.id))
        }
        EventKind::TaskEnd(t) => {
            (format!("end {}", esc(&t.name)), format!("{{\"task_id\":{}}}", t.id))
        }
        EventKind::TaskFailure { task, attempt } => (
            format!("failure {}", esc(&task.name)),
            format!("{{\"task_id\":{},\"attempt\":{attempt}}}", task.id),
        ),
        EventKind::NodeFailure => ("node failure".into(), "{}".into()),
        EventKind::UserFlag { event_type, value } => {
            (format!("flag {event_type}"), format!("{{\"value\":{value}}}"))
        }
    }
}

/// Render records as a Chrome trace JSON document.
///
/// Records should come from [`crate::TraceCollector::snapshot`]; order does
/// not matter to the viewers, but metadata events naming every process and
/// thread are emitted first so rows are labelled before slices arrive.
pub fn export(app_name: &str, records: &[Record]) -> String {
    export_named(app_name, records, &[])
}

/// Like [`export`], with display names for the node lanes: node `i` is
/// labelled `node_names[i]` (e.g. a distributed worker's `name@addr`)
/// instead of the generic `node{i}`. Nodes past the end of the slice keep
/// the generic label.
pub fn export_named(app_name: &str, records: &[Record], node_names: &[String]) -> String {
    let mut cores: Vec<_> = records.iter().map(|r| r.core()).collect();
    cores.sort_unstable();
    cores.dedup();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&event);
    };

    let mut named_nodes: Vec<u32> = Vec::new();
    for c in &cores {
        if !named_nodes.contains(&c.node) {
            named_nodes.push(c.node);
            let lane = node_names
                .get(c.node as usize)
                .map_or_else(|| format!("node{}", c.node), |n| esc(n));
            push(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{} {}\"}}}}",
                    c.node,
                    esc(app_name),
                    lane
                ),
            );
        }
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"core{}\"}}}}",
                c.node, c.core, c.core
            ),
        );
    }

    for r in records {
        let core = r.core();
        match r {
            Record::State { start, end, state, .. } => {
                let (name, cat, args) = state_fields(state);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{start},\
                         \"dur\":{},\"pid\":{},\"tid\":{},\"args\":{args}}}",
                        end - start,
                        core.node,
                        core.core
                    ),
                );
            }
            Record::Event { time, kind, .. } => {
                let (name, args) = event_fields(kind);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{time},\
                         \"s\":\"t\",\"pid\":{},\"tid\":{},\"args\":{args}}}",
                        core.node, core.core
                    ),
                );
            }
        }
    }

    out.push_str("\n],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CoreId, TaskRef};
    use runmetrics::json::{self, JsonValue};

    fn sample_records() -> Vec<Record> {
        vec![
            Record::State {
                core: CoreId::new(0, 0),
                start: 0,
                end: 100,
                state: StateKind::Running(TaskRef::new(1, "graph.experiment")),
            },
            Record::State {
                core: CoreId::new(1, 1),
                start: 50,
                end: 70,
                state: StateKind::Transferring { bytes: 4096 },
            },
            Record::Event {
                core: CoreId::new(0, 0),
                time: 100,
                kind: EventKind::TaskEnd(TaskRef::new(1, "graph.experiment")),
            },
            Record::Event {
                core: CoreId::new(1, 0),
                time: 120,
                kind: EventKind::TaskFailure { task: TaskRef::new(2, "bad\"name"), attempt: 3 },
            },
        ]
    }

    /// Minimal trace_event schema check: the document is valid JSON, has a
    /// `traceEvents` array, and every event carries the fields its phase
    /// requires (`X` → ts/dur/pid/tid, `i` → ts/s, `M` → args.name).
    fn validate_schema(doc: &str) -> Result<usize, String> {
        let v = json::parse(doc)?;
        let events = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or("traceEvents array missing")?;
        for (i, ev) in events.iter().enumerate() {
            let field = |k: &str| ev.get(k).ok_or(format!("event {i}: missing {k:?}"));
            let name = field("name")?.as_str().ok_or(format!("event {i}: name not a string"))?;
            if name.is_empty() {
                return Err(format!("event {i}: empty name"));
            }
            let ph = field("ph")?.as_str().ok_or(format!("event {i}: ph not a string"))?;
            match ph {
                "M" => {
                    field("args")?
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or(format!("event {i}: metadata without args.name"))?;
                }
                "X" => {
                    for k in ["ts", "dur", "pid", "tid"] {
                        field(k)?.as_u64().ok_or(format!("event {i}: {k} not a u64"))?;
                    }
                }
                "i" => {
                    field("ts")?.as_u64().ok_or(format!("event {i}: ts not a u64"))?;
                    field("s")?.as_str().ok_or(format!("event {i}: instant without scope"))?;
                }
                other => return Err(format!("event {i}: unexpected phase {other:?}")),
            }
        }
        Ok(events.len())
    }

    #[test]
    fn export_validates_against_minimal_schema() {
        let doc = export("hpo", &sample_records());
        let n = validate_schema(&doc).unwrap();
        // 2 process_name + 3 thread_name metadata events + 4 records
        assert_eq!(n, 9, "event count in:\n{doc}");
    }

    #[test]
    fn export_maps_nodes_to_pids_and_cores_to_tids() {
        let doc = export("hpo", &sample_records());
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("graph.experiment"))
            .expect("task slice present");
        assert_eq!(slice.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(slice.get("ts").unwrap().as_u64(), Some(0));
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(100));
        assert_eq!(slice.get("args").unwrap().get("task_id").unwrap().as_u64(), Some(1));

        let transfer = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("transfer"))
            .expect("transfer slice present");
        assert_eq!(transfer.get("pid").unwrap().as_u64(), Some(1));
        assert_eq!(transfer.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(transfer.get("args").unwrap().get("bytes").unwrap().as_u64(), Some(4096));
    }

    #[test]
    fn export_escapes_task_names() {
        let doc = export("hpo", &sample_records());
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let failure = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("failure bad\"name"))
            .expect("escaped failure event survives parsing");
        assert_eq!(failure.get("args").unwrap().get("attempt").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = export("empty", &[]);
        assert_eq!(validate_schema(&doc).unwrap(), 0);
    }

    #[test]
    fn export_named_labels_node_lanes_with_worker_names() {
        let names = vec!["w0@127.0.0.1:7077".to_string()];
        let doc = export_named("hpo", &sample_records(), &names);
        validate_schema(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let lane_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("process_name"))
            .map(|e| e.get("args").unwrap().get("name").unwrap().as_str().unwrap())
            .collect();
        // Node 0 gets the worker label; node 1 is past the slice → generic.
        assert!(lane_names.contains(&"hpo w0@127.0.0.1:7077"), "{lane_names:?}");
        assert!(lane_names.contains(&"hpo node1"), "{lane_names:?}");
    }
}
