//! Ergonomic wrappers over the raw runtime API.
//!
//! PyCOMPSs users write `result = compss_wait_on(results)` over whole lists;
//! [`wait_on_all`] is the Rust equivalent.

use crate::data::{DataHandle, Value};
use crate::runtime::{Runtime, WaitError};

/// Wait on a whole list of handles, PyCOMPSs-style
/// (`results = compss_wait_on(results)` in the paper's Listing 2).
pub fn wait_on_all(rt: &Runtime, handles: &[DataHandle]) -> Result<Vec<Value>, WaitError> {
    handles.iter().map(|h| rt.wait_on(h)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::task::{ArgSpec, Constraint};

    #[test]
    fn wait_on_all_collects_in_order() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(4));
        let id = rt.register("id", Constraint::cpus(1), 1, |_, inputs| Ok(vec![inputs[0].clone()]));
        let outs: Vec<DataHandle> = (0..10i64)
            .map(|i| {
                let h = rt.literal(i);
                rt.submit(&id, vec![ArgSpec::In(h)]).unwrap().returns[0]
            })
            .collect();
        let values = wait_on_all(&rt, &outs).unwrap();
        let ints: Vec<i64> = values.iter().map(|v| *v.downcast_ref::<i64>().unwrap()).collect();
        assert_eq!(ints, (0..10).collect::<Vec<_>>());
    }
}
