//! Ergonomic wrappers over the raw runtime API.
//!
//! PyCOMPSs users write `result = compss_wait_on(results)` over whole lists;
//! these wrappers give the Rust equivalent plus typed handles so application
//! code doesn't juggle `downcast_ref` everywhere.

use std::marker::PhantomData;

use crate::data::{DataHandle, Value};
use crate::runtime::{Runtime, WaitError};

/// A [`DataHandle`] that remembers its value type.
#[derive(Debug)]
pub struct TypedHandle<T> {
    /// The underlying untyped handle.
    pub handle: DataHandle,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: `derive` would bound `T: Clone/Copy` unnecessarily.
impl<T> Clone for TypedHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TypedHandle<T> {}

impl<T: Send + Sync + 'static> TypedHandle<T> {
    /// Wrap an untyped handle. The caller asserts the type.
    pub fn new(handle: DataHandle) -> Self {
        TypedHandle { handle, _marker: PhantomData }
    }

    /// Wait for the value and clone it out.
    pub fn get(&self, rt: &Runtime) -> Result<T, WaitError>
    where
        T: Clone,
    {
        let v = rt.wait_on(&self.handle)?;
        Ok(v.downcast_ref::<T>().expect("TypedHandle type mismatch").clone())
    }
}

impl<T> From<DataHandle> for TypedHandle<T> {
    fn from(handle: DataHandle) -> Self {
        TypedHandle { handle, _marker: PhantomData }
    }
}

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
    fn typed_handle_roundtrip() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(2));
        let inc = rt.register("inc", Constraint::cpus(1), 1, |_, inputs| {
            let x: f64 = *inputs[0].downcast_ref::<f64>().unwrap();
            Ok(vec![Value::new(x + 1.0)])
        });
        let input = rt.literal(1.5f64);
        let out = rt.submit(&inc, vec![ArgSpec::In(input)]).unwrap();
        let typed: TypedHandle<f64> = out.returns[0].into();
        assert_eq!(typed.get(&rt).unwrap(), 2.5);
        // Copy semantics regardless of T
        let copy = typed;
        assert_eq!(copy.get(&rt).unwrap(), 2.5);
    }

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

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn typed_handle_wrong_type_panics() {
        let rt = Runtime::threaded(RuntimeConfig::single_node(1));
        let h = rt.literal(7i32);
        let typed: TypedHandle<String> = TypedHandle::new(h);
        let _ = typed.get(&rt);
    }
}
