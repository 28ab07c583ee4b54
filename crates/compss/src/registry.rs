//! Named task registry for remote execution.
//!
//! A distributed worker receives task *names* over the wire, not function
//! pointers, so both sides agree on an out-of-band registry: the worker
//! process registers the same [`TaskDef`]s (same names, same bodies) the
//! driver submits, and [`crate::backend::distributed::WorkerServer`]
//! resolves each incoming submit against it. This mirrors how PyCOMPSs
//! workers import the user's module and look the task function up by
//! qualified name.

use std::collections::HashMap;
use std::sync::Arc;

use crate::task::{TaskDef, TaskFn};

/// Name → [`TaskDef`] map shared with a worker server.
#[derive(Default, Clone)]
pub struct TaskRegistry {
    defs: HashMap<Arc<str>, TaskDef>,
}

impl TaskRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TaskRegistry::default()
    }

    /// Register `def` under its own name; replaces any previous entry
    /// (chainable, so setup code reads as a builder).
    pub fn with(mut self, def: TaskDef) -> Self {
        self.register(def);
        self
    }

    /// Register `def` under its own name; replaces any previous entry.
    pub fn register(&mut self, def: TaskDef) {
        self.defs.insert(def.name.clone(), def);
    }

    /// Look up a task definition by name.
    pub fn get(&self, name: &str) -> Option<&TaskDef> {
        self.defs.get(name)
    }

    /// The body implementing `variant` of task `name`: variant 0 is the
    /// default implementation, `n > 0` indexes the alternatives added via
    /// [`TaskDef::with_implementation`].
    pub fn body(&self, name: &str, variant: u32) -> Option<Arc<TaskFn>> {
        let (_, body) = self.defs.get(name)?.variant(variant as usize)?;
        Some(Arc::clone(body))
    }

    /// Registered task names, sorted for stable display.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.defs.keys().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

impl std::fmt::Debug for TaskRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRegistry").field("tasks", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Value;
    use crate::task::{Constraint, TaskDef};

    fn def(name: &str) -> TaskDef {
        TaskDef {
            name: name.into(),
            constraint: Constraint::cpus(1),
            returns: 1,
            priority: false,
            body: Arc::new(|_, _| Ok(vec![Value::new(1u64)])),
            alternatives: Vec::new(),
        }
    }

    #[test]
    fn registers_and_resolves_by_name() {
        let reg = TaskRegistry::new().with(def("a")).with(def("b"));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert!(reg.get("a").is_some());
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn variant_zero_is_default_body_and_alternatives_index_from_one() {
        let alt =
            def("x").with_implementation(Constraint::cpus(2), |_, _| Ok(vec![Value::new(2u64)]));
        let reg = TaskRegistry::new().with(alt);
        assert!(reg.body("x", 0).is_some());
        assert!(reg.body("x", 1).is_some());
        assert!(reg.body("x", 2).is_none());
        assert!(reg.body("x", u32::MAX).is_none(), "any index off the wire is answerable");
        assert!(reg.body("missing", 0).is_none());
    }
}
