//! Wire codecs and the shared experiment task for distributed HPO.
//!
//! A distributed run ships [`Config`]s to workers and [`TrialOutcome`]s
//! back, so both ends must register codecs for them
//! (see [`rcompss::register_codec`]) and agree on the experiment task
//! body by name. The driver calls [`register_hpo_codecs`] before building
//! the runtime; an `rcompss-worker` process calls it too, then registers
//! [`experiment_task_def`] built from the *same* objective — mirroring how
//! PyCOMPSs workers import the user's Python module so the decorated
//! function exists on both sides.

use std::sync::Arc;

use rcompss::{register_codec, TaskDef, TaskError, Value};
use rnet::{Reader, WireError};

use crate::experiment::{ExperimentOptions, Objective, TrialOutcome};
use crate::space::{Config, ConfigValue};
use crate::stagetree::StagePayload;

/// Task name of one trial (both ends of a distributed run register the
/// definition under this name, like [`crate::stagetree::STAGE_TASK_NAME`]).
pub const EXPERIMENT_TASK_NAME: &str = "graph.experiment";

fn put_vec_f64(b: &mut Vec<u8>, v: &[f64]) {
    rnet::wire::put_u64(b, v.len() as u64);
    for x in v {
        rnet::wire::put_f64(b, *x);
    }
}

fn read_vec_f64(r: &mut Reader<'_>) -> Result<Vec<f64>, WireError> {
    let n = r.u64()? as usize;
    if n > r.remaining() {
        return Err(WireError("f64 vector length exceeds payload".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Ok(out)
}

/// Serialise a [`TrialOutcome`] into `b` — the shared layout of the
/// `hpo.trial` codec and the sweep journal's `Finished` records (see
/// [`crate::ckpt`]), so a journaled outcome replays byte-for-byte.
pub(crate) fn put_outcome(b: &mut Vec<u8>, outcome: &TrialOutcome) {
    rnet::wire::put_f64(b, outcome.accuracy);
    put_vec_f64(b, &outcome.epoch_loss);
    put_vec_f64(b, &outcome.epoch_accuracy);
    rnet::wire::put_u32(b, outcome.epochs_run);
    match &outcome.error {
        Some(e) => {
            rnet::wire::put_u32(b, 1);
            rnet::wire::put_str(b, e);
        }
        None => rnet::wire::put_u32(b, 0),
    }
}

/// Inverse of [`put_outcome`].
pub(crate) fn read_outcome(r: &mut Reader<'_>) -> Result<TrialOutcome, WireError> {
    let accuracy = r.f64()?;
    let epoch_loss = read_vec_f64(r)?;
    let epoch_accuracy = read_vec_f64(r)?;
    let epochs_run = r.u32()?;
    let error = match r.u32()? {
        0 => None,
        1 => Some(r.str()?),
        t => return Err(WireError(format!("unknown error tag {t}"))),
    };
    Ok(TrialOutcome { accuracy, epoch_loss, epoch_accuracy, epochs_run, error })
}

/// Register the HPO-layer codecs (idempotent; call freely).
///
/// Tags: `hpo.config` for [`Config`], `hpo.trial` for [`TrialOutcome`],
/// `hpo.stage` for [`StagePayload`] (stage-tree fork snapshots, which ride
/// the content-addressed block plane like any other task output).
pub fn register_hpo_codecs() {
    register_codec::<Config, _, _>(
        "hpo.config",
        |cfg| {
            let mut b = Vec::new();
            let entries: Vec<(&str, &ConfigValue)> = cfg.iter().collect();
            rnet::wire::put_u64(&mut b, entries.len() as u64);
            for (key, value) in entries {
                rnet::wire::put_str(&mut b, key);
                match value {
                    ConfigValue::Str(s) => {
                        rnet::wire::put_u32(&mut b, 0);
                        rnet::wire::put_str(&mut b, s);
                    }
                    ConfigValue::Int(i) => {
                        rnet::wire::put_u32(&mut b, 1);
                        rnet::wire::put_u64(&mut b, *i as u64);
                    }
                    ConfigValue::Float(f) => {
                        rnet::wire::put_u32(&mut b, 2);
                        rnet::wire::put_f64(&mut b, *f);
                    }
                }
            }
            b
        },
        |bytes| {
            let mut r = Reader::new(bytes);
            let n = r.u64()? as usize;
            if n > bytes.len() {
                return Err(WireError("config entry count exceeds payload".into()));
            }
            let mut cfg = Config::new();
            for _ in 0..n {
                let key = r.str()?;
                let value = match r.u32()? {
                    0 => ConfigValue::Str(r.str()?),
                    1 => ConfigValue::Int(r.u64()? as i64),
                    2 => ConfigValue::Float(r.f64()?),
                    t => return Err(WireError(format!("unknown config value tag {t}"))),
                };
                cfg.set(&key, value);
            }
            Ok(cfg)
        },
    );

    register_codec::<TrialOutcome, _, _>(
        "hpo.trial",
        |outcome| {
            let mut b = Vec::new();
            put_outcome(&mut b, outcome);
            b
        },
        |bytes| read_outcome(&mut Reader::new(bytes)),
    );

    register_codec::<StagePayload, _, _>(
        "hpo.stage",
        |payload| {
            // Sized exactly: a fork snapshot is ≈ 150 KB, and growing the
            // buffer by doubling would copy it again.
            let n = payload.snapshot.len();
            let mut b = Vec::with_capacity(rnet::varint::encoded_len(n as u64) + n);
            rnet::wire::put_bytes(&mut b, &payload.snapshot);
            b
        },
        |bytes| Ok(StagePayload { snapshot: Reader::new(bytes).bytes()?.to_vec() }),
    );
}

/// The experiment task definition both ends agree on.
///
/// The body runs the objective under a `tinyml::par::with_threads` scope
/// sized by the placement's core grant (`TaskContext::parallelism`), so a
/// task constrained to N CPUs really trains on N worker threads. The
/// driver submits by this def; a worker registers the identical def
/// ([`EXPERIMENT_TASK_NAME`], same objective) in its task registry.
pub fn experiment_task_def(opts: &ExperimentOptions, objective: &Objective) -> TaskDef {
    let obj = Arc::clone(objective);
    TaskDef {
        name: EXPERIMENT_TASK_NAME.into(),
        constraint: opts.constraint,
        returns: 1,
        priority: false,
        body: Arc::new(move |ctx: &rcompss::TaskContext, inputs: &[Value]| {
            let config = inputs[0]
                .downcast_ref::<Config>()
                .ok_or_else(|| TaskError::new("experiment input 0 must be a Config"))?;
            let budget = inputs[1]
                .downcast_ref::<Option<u32>>()
                .copied()
                .ok_or_else(|| TaskError::new("experiment input 1 must be Option<u32>"))?;
            let outcome = tinyml::par::with_threads(ctx.parallelism(), || obj(config, budget))?;
            Ok(vec![Value::new(outcome)])
        }),
        alternatives: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) -> Value {
        let blob = rcompss::codec::encode_value(&v).expect("codec registered");
        rcompss::codec::decode_tagged(&blob.tag, &blob.bytes).expect("decodes")
    }

    #[test]
    fn config_codec_roundtrips_all_value_kinds() {
        register_hpo_codecs();
        let cfg = Config::new()
            .with("optimizer", ConfigValue::Str("Adam".into()))
            .with("epochs", ConfigValue::Int(30))
            .with("lr", ConfigValue::Float(1e-3));
        let got = roundtrip(Value::new(cfg.clone()));
        assert_eq!(got.downcast_ref::<Config>(), Some(&cfg));
    }

    #[test]
    fn trial_payload_codec_roundtrips() {
        register_hpo_codecs();
        let outcome = TrialOutcome {
            accuracy: 0.93,
            epoch_loss: vec![1.5, 0.7, 0.3],
            epoch_accuracy: vec![0.5, 0.8, 0.93],
            epochs_run: 3,
            error: None,
        };
        let got = roundtrip(Value::new(outcome.clone()));
        let o = got.downcast_ref::<TrialOutcome>().expect("payload type");
        assert_eq!(o, &outcome);
    }

    #[test]
    fn stage_payload_codec_roundtrips() {
        register_hpo_codecs();
        let payload = StagePayload { snapshot: vec![0, 1, 2, 255, 7] };
        let got = roundtrip(Value::new(payload.clone()));
        assert_eq!(got.downcast_ref::<StagePayload>(), Some(&payload));
        // One buffer of exactly the encoded size, long length prefixes
        // included.
        let big = StagePayload { snapshot: vec![3; 200_000] };
        let blob = rcompss::codec::encode_value(&Value::new(big)).unwrap();
        assert_eq!(blob.bytes.len(), 3 + 200_000);
        assert_eq!(blob.bytes.capacity(), blob.bytes.len());
        let root = roundtrip(Value::new(StagePayload::root()));
        assert_eq!(root.downcast_ref::<StagePayload>(), Some(&StagePayload::root()));
    }

    #[test]
    fn failed_trial_payload_keeps_error_text() {
        register_hpo_codecs();
        let got = roundtrip(Value::new(TrialOutcome::failed("diverged")));
        let o = got.downcast_ref::<TrialOutcome>().unwrap();
        assert_eq!(o.error.as_deref(), Some("diverged"));
    }

    #[test]
    fn experiment_task_def_runs_objective_locally() {
        let objective: Objective = Arc::new(|config, budget| {
            let lr = config.get_float("lr").unwrap_or(0.0);
            assert_eq!(budget, Some(2));
            Ok(TrialOutcome::with_accuracy(lr * 10.0))
        });
        let def = experiment_task_def(&ExperimentOptions::default(), &objective);
        assert_eq!(def.name.as_ref(), EXPERIMENT_TASK_NAME);
        let ctx = rcompss::TaskContext {
            task: rcompss::TaskId(1),
            attempt: 1,
            node: 0,
            cores: vec![0],
            gpus: vec![],
            peer_nodes: vec![],
        };
        let cfg = Config::new().with("lr", ConfigValue::Float(0.05));
        let inputs = vec![Value::new(cfg), Value::new(Some(2u32))];
        let out = (def.body)(&ctx, &inputs).expect("objective runs");
        let outcome = out[0].downcast_ref::<TrialOutcome>().unwrap();
        assert!((outcome.accuracy - 0.5).abs() < 1e-12);
    }
}
