//! Optimizers — the paper's first hyperparameter axis:
//! `"optimizer": ["Adam", "SGD", "RMSprop"]` (Listing 1).

use std::str::FromStr;

/// Which optimiser to use, exactly the three from the paper's config file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Stochastic gradient descent (optionally with momentum — we use 0.9,
    /// Keras' common default for SGD-with-momentum setups).
    Sgd,
    /// RMSprop with ρ = 0.9.
    RmsProp,
    /// Adam with β₁ = 0.9, β₂ = 0.999.
    Adam,
}

impl OptimizerKind {
    /// All kinds, in the paper's config-file order.
    pub const ALL: [OptimizerKind; 3] =
        [OptimizerKind::Adam, OptimizerKind::Sgd, OptimizerKind::RmsProp];

    /// Canonical display name, matching the paper's JSON values.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Sgd => "SGD",
            OptimizerKind::RmsProp => "RMSprop",
            OptimizerKind::Adam => "Adam",
        }
    }

    /// A sensible default learning rate for this optimiser (Keras defaults).
    pub fn default_lr(&self) -> f32 {
        match self {
            OptimizerKind::Sgd => 0.01,
            OptimizerKind::RmsProp => 0.001,
            OptimizerKind::Adam => 0.001,
        }
    }
}

impl FromStr for OptimizerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sgd" => Ok(OptimizerKind::Sgd),
            "rmsprop" => Ok(OptimizerKind::RmsProp),
            "adam" => Ok(OptimizerKind::Adam),
            other => Err(format!("unknown optimizer '{other}' (expected Adam/SGD/RMSprop)")),
        }
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-parameter-tensor optimiser state.
#[derive(Debug, Clone)]
enum Slot {
    Sgd { velocity: Vec<f32> },
    RmsProp { sq_avg: Vec<f32> },
    Adam { m: Vec<f32>, v: Vec<f32> },
}

/// Exported per-slot optimiser state — the serializable twin of the
/// private `Slot`, used by checkpointing ([`crate::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SlotState {
    /// SGD momentum velocity.
    Sgd(Vec<f32>),
    /// RMSprop running squared-gradient average.
    RmsProp(Vec<f32>),
    /// Adam first and second moment estimates.
    Adam(Vec<f32>, Vec<f32>),
}

/// Complete serializable optimiser state.
///
/// Round-tripping through [`Optimizer::state`] /
/// [`Optimizer::from_state`] is bit-exact: a restored optimiser continues
/// the same update trajectory (momenta, squared averages, Adam moments and
/// bias-correction clock) as if training had never stopped. The learning
/// rate is deliberately absent — schedules re-derive it from the epoch
/// index every epoch, so the resume path re-applies it.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    /// Optimiser family.
    pub kind: OptimizerKind,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// Update-step clock (Adam bias correction).
    pub t: u64,
    /// Per-tensor state, in slot order.
    pub slots: Vec<SlotState>,
}

/// A stateful optimiser over a fixed set of parameter tensors.
///
/// Call [`Optimizer::step`] once per tensor per update, always in the same
/// tensor order; the optimiser keys state by the `slot` index.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    lr: f32,
    /// Coupled L2 weight decay: the effective gradient is `g + wd·p`.
    weight_decay: f32,
    t: u64,
    slots: Vec<Slot>,
}

impl Optimizer {
    /// Build an optimiser of `kind` with learning rate `lr`.
    pub fn new(kind: OptimizerKind, lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Optimizer { kind, lr, weight_decay: 0.0, t: 0, slots: Vec::new() }
    }

    /// Add L2 weight decay (chainable).
    ///
    /// # Panics
    /// Panics on negative values.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// The optimiser kind.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Update the learning rate (used by schedules between epochs).
    ///
    /// # Panics
    /// Panics on non-positive values.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Begin a new update step (advances Adam's bias-correction clock).
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Export the complete mutable state for checkpointing.
    pub fn state(&self) -> OptimizerState {
        OptimizerState {
            kind: self.kind,
            weight_decay: self.weight_decay,
            t: self.t,
            slots: self
                .slots
                .iter()
                .map(|s| match s {
                    Slot::Sgd { velocity } => SlotState::Sgd(velocity.clone()),
                    Slot::RmsProp { sq_avg } => SlotState::RmsProp(sq_avg.clone()),
                    Slot::Adam { m, v } => SlotState::Adam(m.clone(), v.clone()),
                })
                .collect(),
        }
    }

    /// Rebuild an optimiser from exported state, taking its tensors over.
    /// `lr` seeds the learning rate (schedules overwrite it per epoch); the
    /// momenta and step clock come back bit-identical to the exporting
    /// optimiser's.
    ///
    /// # Panics
    /// Panics on a non-positive `lr` or when a slot's family does not
    /// match `state.kind`.
    pub fn from_state(state: OptimizerState, lr: f32) -> Self {
        let kind = state.kind;
        let slots = state
            .slots
            .into_iter()
            .map(|s| match (s, kind) {
                (SlotState::Sgd(velocity), OptimizerKind::Sgd) => Slot::Sgd { velocity },
                (SlotState::RmsProp(sq_avg), OptimizerKind::RmsProp) => Slot::RmsProp { sq_avg },
                (SlotState::Adam(m, v), OptimizerKind::Adam) => Slot::Adam { m, v },
                _ => panic!("optimizer slot family does not match kind {kind:?}"),
            })
            .collect();
        let mut opt = Optimizer::new(kind, lr).with_weight_decay(state.weight_decay);
        opt.t = state.t;
        opt.slots = slots;
        opt
    }

    /// Update parameter tensor `slot` in place from `grad`.
    ///
    /// # Panics
    /// Panics if `params.len() != grad.len()`, or if a slot changes size
    /// between calls.
    pub fn step(&mut self, slot: usize, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len(), "parameter/gradient length mismatch");
        while self.slots.len() <= slot {
            let n = params.len();
            self.slots.push(match self.kind {
                OptimizerKind::Sgd => Slot::Sgd { velocity: vec![0.0; n] },
                OptimizerKind::RmsProp => Slot::RmsProp { sq_avg: vec![0.0; n] },
                OptimizerKind::Adam => Slot::Adam { m: vec![0.0; n], v: vec![0.0; n] },
            });
        }
        let lr = self.lr;
        let wd = self.weight_decay;
        match &mut self.slots[slot] {
            Slot::Sgd { velocity } => {
                assert_eq!(velocity.len(), params.len(), "slot size changed");
                const MOMENTUM: f32 = 0.9;
                for ((p, &g), v) in params.iter_mut().zip(grad).zip(velocity.iter_mut()) {
                    let g = g + wd * *p;
                    *v = MOMENTUM * *v - lr * g;
                    *p += *v;
                }
            }
            Slot::RmsProp { sq_avg } => {
                assert_eq!(sq_avg.len(), params.len(), "slot size changed");
                const RHO: f32 = 0.9;
                const EPS: f32 = 1e-7;
                for ((p, &g), s) in params.iter_mut().zip(grad).zip(sq_avg.iter_mut()) {
                    let g = g + wd * *p;
                    *s = RHO * *s + (1.0 - RHO) * g * g;
                    *p -= lr * g / (s.sqrt() + EPS);
                }
            }
            Slot::Adam { m, v } => {
                assert_eq!(m.len(), params.len(), "slot size changed");
                const B1: f32 = 0.9;
                const B2: f32 = 0.999;
                const EPS: f32 = 1e-8;
                let t = self.t.max(1) as i32;
                let bc1 = 1.0 - B1.powi(t);
                let bc2 = 1.0 - B2.powi(t);
                for ((p, &g), (mi, vi)) in
                    params.iter_mut().zip(grad).zip(m.iter_mut().zip(v.iter_mut()))
                {
                    let g = g + wd * *p;
                    *mi = B1 * *mi + (1.0 - B1) * g;
                    *vi = B2 * *vi + (1.0 - B2) * g * g;
                    let m_hat = *mi / bc1;
                    let v_hat = *vi / bc2;
                    *p -= lr * m_hat / (v_hat.sqrt() + EPS);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_matches_paper_config_values() {
        assert_eq!("Adam".parse::<OptimizerKind>().unwrap(), OptimizerKind::Adam);
        assert_eq!("SGD".parse::<OptimizerKind>().unwrap(), OptimizerKind::Sgd);
        assert_eq!("RMSprop".parse::<OptimizerKind>().unwrap(), OptimizerKind::RmsProp);
        assert!("AdaGrad".parse::<OptimizerKind>().is_err());
        assert_eq!(OptimizerKind::RmsProp.to_string(), "RMSprop");
    }

    /// Optimising f(x) = x² must drive x toward 0. Adam/RMSprop take steps
    /// of ≈lr regardless of gradient magnitude, so give them a rate and
    /// budget that can cover the distance.
    fn minimises_quadratic(kind: OptimizerKind) {
        let mut opt = Optimizer::new(kind, 0.05);
        let mut x = vec![5.0f32];
        let start = x[0].abs();
        for _ in 0..2_000 {
            opt.begin_step();
            let g = vec![2.0 * x[0]];
            opt.step(0, &mut x, &g);
        }
        let now = x[0].abs();
        assert!(now < start, "no progress for {kind:?}");
        assert!(now < 1.0, "{kind:?} should approach the minimum, x = {}", x[0]);
    }

    #[test]
    fn sgd_minimises_quadratic() {
        minimises_quadratic(OptimizerKind::Sgd);
    }

    #[test]
    fn rmsprop_minimises_quadratic() {
        minimises_quadratic(OptimizerKind::RmsProp);
    }

    #[test]
    fn adam_minimises_quadratic() {
        minimises_quadratic(OptimizerKind::Adam);
    }

    #[test]
    fn slots_keep_independent_state() {
        let mut opt = Optimizer::new(OptimizerKind::Adam, 0.1);
        let mut a = vec![1.0f32];
        let mut b = vec![1.0f32];
        opt.begin_step();
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[1.0]);
        assert_eq!(a, b, "identical inputs through distinct slots move identically");
        // now drive only slot 0; slot 1's state must not change
        opt.begin_step();
        opt.step(0, &mut a, &[1.0]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grad_panics() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd, 0.1);
        opt.step(0, &mut [0.0, 0.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn nonpositive_lr_rejected() {
        let _ = Optimizer::new(OptimizerKind::Adam, 0.0);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut opt = Optimizer::new(OptimizerKind::Sgd, 0.1);
        assert_eq!(opt.lr(), 0.1);
        let mut a = vec![0.0f32];
        opt.begin_step();
        opt.step(0, &mut a, &[1.0]);
        let first = a[0];
        opt.set_lr(0.01);
        let mut b = vec![0.0f32];
        let mut opt2 = Optimizer::new(OptimizerKind::Sgd, 0.01);
        opt2.begin_step();
        opt2.step(0, &mut b, &[1.0]);
        assert!(first.abs() > b[0].abs(), "smaller lr moves less");
        assert_eq!(opt.lr(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn set_lr_rejects_zero() {
        Optimizer::new(OptimizerKind::Sgd, 0.1).set_lr(0.0);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        // zero gradient: with decay the parameter decays toward 0,
        // without it it stays put.
        let mut with = Optimizer::new(OptimizerKind::Sgd, 0.1).with_weight_decay(0.1);
        let mut without = Optimizer::new(OptimizerKind::Sgd, 0.1);
        let mut pw = vec![1.0f32];
        let mut po = vec![1.0f32];
        for _ in 0..50 {
            with.begin_step();
            with.step(0, &mut pw, &[0.0]);
            without.begin_step();
            without.step(0, &mut po, &[0.0]);
        }
        assert!(pw[0].abs() < 0.7, "decayed: {}", pw[0]);
        assert_eq!(po[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "weight decay")]
    fn negative_weight_decay_rejected() {
        let _ = Optimizer::new(OptimizerKind::Adam, 0.1).with_weight_decay(-0.1);
    }

    /// A restored optimiser must continue the exact trajectory of the
    /// original: run k steps, export, run more steps on both the original
    /// and the restored copy, compare parameters bitwise.
    fn state_round_trip_continues_trajectory(kind: OptimizerKind) {
        let mut opt = Optimizer::new(kind, 0.05).with_weight_decay(1e-3);
        let mut x = vec![3.0f32, -2.0, 0.5];
        for i in 0..7 {
            opt.begin_step();
            let g: Vec<f32> = x.iter().map(|&v| 2.0 * v + i as f32 * 0.01).collect();
            opt.step(0, &mut x, &g);
        }
        let st = opt.state();
        let mut restored = Optimizer::from_state(st.clone(), opt.lr());
        assert_eq!(restored.state(), st, "export/import round trip");
        let mut x2 = x.clone();
        for i in 0..5 {
            opt.begin_step();
            restored.begin_step();
            let g: Vec<f32> = x.iter().map(|&v| 2.0 * v + i as f32 * 0.02).collect();
            opt.step(0, &mut x, &g);
            let g2: Vec<f32> = x2.iter().map(|&v| 2.0 * v + i as f32 * 0.02).collect();
            restored.step(0, &mut x2, &g2);
        }
        assert_eq!(x, x2, "{kind:?} diverged after restore");
    }

    #[test]
    fn sgd_state_round_trips() {
        state_round_trip_continues_trajectory(OptimizerKind::Sgd);
    }

    #[test]
    fn rmsprop_state_round_trips() {
        state_round_trip_continues_trajectory(OptimizerKind::RmsProp);
    }

    #[test]
    fn adam_state_round_trips() {
        state_round_trip_continues_trajectory(OptimizerKind::Adam);
    }

    #[test]
    #[should_panic(expected = "slot family")]
    fn mismatched_slot_family_rejected() {
        let st = OptimizerState {
            kind: OptimizerKind::Adam,
            weight_decay: 0.0,
            t: 1,
            slots: vec![SlotState::Sgd(vec![0.0])],
        };
        let _ = Optimizer::from_state(st, 0.1);
    }
}
