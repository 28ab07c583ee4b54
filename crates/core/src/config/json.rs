//! The paper's JSON config format, read with the workspace's one JSON
//! parser ([`runmetrics::json`]).
//!
//! The paper's format (Listing 1) is a flat object of arrays of scalars:
//!
//! ```json
//! {
//!   "optimizer": ["Adam", "SGD", "RMSprop"],
//!   "num_epochs": [20, 50, 100],
//!   "batch_size": [32, 64, 128]
//! }
//! ```
//!
//! Richer space descriptions — e.g. `{"lr": {"log_uniform": [1e-5, 1e-1]}}`
//! — use a domain object in place of the array.

use std::fmt;

use runmetrics::json::JsonValue;

use crate::space::{ConfigValue, ParamDomain, SearchSpace};

/// Why a config file is not a search space: malformed JSON (with the
/// parser's byte position) or a parameter that is not a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn scalar_to_value(j: &JsonValue) -> Option<ConfigValue> {
    match j {
        JsonValue::String(s) => Some(ConfigValue::Str(s.clone())),
        JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
            Some(ConfigValue::Int(*n as i64))
        }
        JsonValue::Number(n) => Some(ConfigValue::Float(*n)),
        JsonValue::Bool(b) => Some(ConfigValue::Str(b.to_string())),
        _ => None,
    }
}

/// Interpret a JSON object as a [`SearchSpace`]:
///
/// * `"name": [v, v, …]` — a choice list (the paper's format);
/// * `"name": {"int_range": [min, max, step]}`;
/// * `"name": {"uniform": [min, max]}`;
/// * `"name": {"log_uniform": [min, max]}`.
///
/// Parameters enter the space in **key order**, whatever order the file
/// lists them in: grid enumeration and every random draw follow the
/// space's parameter order, so two spellings of one space must sweep
/// identically. A key that appears twice is an error.
pub fn space_from_json(text: &str) -> Result<SearchSpace, JsonError> {
    let root = runmetrics::json::parse(text).map_err(|message| JsonError { message })?;
    let JsonValue::Object(mut params) = root else {
        return Err(JsonError { message: "top level must be an object".into() });
    };
    params.sort_by(|a, b| a.0.cmp(&b.0));
    let mut space = SearchSpace::new();
    for (name, value) in &params {
        let bad = |msg: &str| JsonError { message: format!("param '{name}': {msg}") };
        let domain = match value {
            JsonValue::Array(items) => {
                let vals: Option<Vec<ConfigValue>> = items.iter().map(scalar_to_value).collect();
                ParamDomain::Choice(vals.ok_or_else(|| bad("array items must be scalars"))?)
            }
            JsonValue::Object(_) => {
                let nums = |key: &str, n: usize| -> Result<Vec<f64>, JsonError> {
                    match value.get(key).and_then(JsonValue::as_array) {
                        Some(a) if a.len() == n => a
                            .iter()
                            .map(|j| j.as_f64().ok_or_else(|| bad("range entries must be numbers")))
                            .collect(),
                        _ => Err(bad(&format!("'{key}' needs an array of {n} numbers"))),
                    }
                };
                if value.get("int_range").is_some() {
                    let v = nums("int_range", 3)?;
                    ParamDomain::IntRange { min: v[0] as i64, max: v[1] as i64, step: v[2] as i64 }
                } else if value.get("uniform").is_some() {
                    let v = nums("uniform", 2)?;
                    if v[0] > v[1] {
                        return Err(bad("uniform min must be <= max"));
                    }
                    ParamDomain::Uniform { min: v[0], max: v[1] }
                } else if value.get("log_uniform").is_some() {
                    let v = nums("log_uniform", 2)?;
                    if v[0] <= 0.0 {
                        return Err(bad("log_uniform min must be > 0"));
                    }
                    if v[0] > v[1] {
                        return Err(bad("log_uniform min must be <= max"));
                    }
                    ParamDomain::LogUniform { min: v[0], max: v[1] }
                } else {
                    return Err(bad("unknown domain object"));
                }
            }
            _ => return Err(bad("must be an array or a domain object")),
        };
        space = space.with(name, domain);
    }
    Ok(space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_listing_1() {
        let text = r#"{
            "optimizer": ["Adam", "SGD", "RMSprop"],
            "num_epochs": [20, 50, 100],
            "batch_size": [32, 64, 128]
        }"#;
        let space = space_from_json(text).unwrap();
        assert_eq!(space.len(), 3);
        assert_eq!(space.grid_size(), Some(27));
        // key order, not file order: batch_size, num_epochs, optimizer
        let names: Vec<&str> = space.params().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["batch_size", "num_epochs", "optimizer"]);
        // …so a reordered file is the same space, grid order included.
        let reordered = space_from_json(
            r#"{"batch_size": [32, 64, 128], "optimizer": ["Adam", "SGD", "RMSprop"],
                "num_epochs": [20, 50, 100]}"#,
        )
        .unwrap();
        assert_eq!(reordered.params(), space.params());
    }

    #[test]
    fn malformed_json_and_duplicate_keys_are_errors() {
        let e = space_from_json(r#"{"a": [1, x]}"#).unwrap_err();
        assert!(e.to_string().starts_with("JSON error: "), "{e}");
        assert!(e.message.contains("byte 10"), "{e}");
        assert!(space_from_json("").is_err());
        assert!(space_from_json(r#"{"a": [1]} extra"#).is_err());
        // A repeated parameter is refused, not resolved by position.
        let e = space_from_json(r#"{"n": [1, 2], "lr": [0.1], "n": [3]}"#).unwrap_err();
        assert!(e.message.contains("duplicate key \"n\""), "{e}");
    }

    #[test]
    fn domain_objects_parse() {
        let space = space_from_json(
            r#"{
                "hidden": {"int_range": [16, 64, 16]},
                "momentum": {"uniform": [0.0, 0.99]},
                "lr": {"log_uniform": [1e-5, 1e-1]}
            }"#,
        )
        .unwrap();
        assert_eq!(space.len(), 3);
        assert_eq!(space.grid_size(), None);
        let domains: Vec<&ParamDomain> = space.params().iter().map(|(_, d)| d).collect();
        assert!(matches!(domains[0], ParamDomain::IntRange { min: 16, max: 64, step: 16 }));
        assert!(matches!(domains[1], ParamDomain::LogUniform { .. }));
        assert!(matches!(domains[2], ParamDomain::Uniform { .. }));
    }

    #[test]
    fn log_uniform_requires_positive_min() {
        let e = space_from_json(r#"{"lr": {"log_uniform": [0.0, 1.0]}}"#).unwrap_err();
        assert!(e.message.contains("log_uniform"));
    }

    #[test]
    fn inverted_ranges_are_errors() {
        let e = space_from_json(r#"{"lr": {"uniform": [1.0, 0.1]}}"#).unwrap_err();
        assert!(e.message.contains("uniform min must be <= max"), "{e}");
        let e = space_from_json(r#"{"lr": {"log_uniform": [1e-1, 1e-4]}}"#).unwrap_err();
        assert!(e.message.contains("log_uniform min must be <= max"), "{e}");
        // A single point is a range.
        assert!(space_from_json(r#"{"lr": {"uniform": [0.5, 0.5]}}"#).is_ok());
    }

    #[test]
    fn top_level_array_rejected_for_spaces() {
        assert!(space_from_json("[1,2,3]").is_err());
        assert!(space_from_json(r#"{"a": 5}"#).is_err(), "scalar domain is not allowed");
    }

    #[test]
    fn floats_and_ints_distinguished() {
        let space = space_from_json(r#"{"lr": [0.1, 0.01], "n": [1, 2]}"#).unwrap();
        let (_, lr) = &space.params()[0];
        let ParamDomain::Choice(vals) = lr else { panic!() };
        assert_eq!(vals[0], ConfigValue::Float(0.1));
        let (_, n) = &space.params()[1];
        let ParamDomain::Choice(vals) = n else { panic!() };
        assert_eq!(vals[0], ConfigValue::Int(1));
    }
}
