//! Property-based tests of the DESIGN.md invariants, spanning crates.

use proptest::prelude::*;

use cluster::{Cluster, FailureInjector, NodeSpec};
use hpo::prelude::*;
use paratrace::{Record, StateKind};
use rcompss::{ArgSpec, Constraint, Runtime, RuntimeConfig, SubmitOpts, TaskId, Value};

// ---------------------------------------------------------------------
// Sequential equivalence: any mix of pure ops over shared handles yields
// the same values on 1 core and on 8 cores (paper: the runtime guarantees
// "the same result as if executed sequentially").
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// new handle = a + b (handles chosen by index)
    Add(usize, usize),
    /// new handle = a * 3 + 1
    Mix(usize),
    /// accumulate into an INOUT cell (cell index 0..3)
    Accumulate(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Add(a, b)),
        (0usize..8).prop_map(Op::Mix),
        (0usize..4, 0usize..8).prop_map(|(c, v)| Op::Accumulate(c, v)),
    ]
}

fn run_program(cores: u32, ops: &[Op]) -> (Vec<i64>, Vec<i64>) {
    let rt = Runtime::threaded(RuntimeConfig::single_node(cores).with_tracing(false));
    let add = rt.register("add", Constraint::cpus(1), 1, |_, i| {
        let a: i64 = *i[0].downcast_ref::<i64>().unwrap();
        let b: i64 = *i[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a.wrapping_add(b))])
    });
    let mix = rt.register("mix", Constraint::cpus(1), 1, |_, i| {
        let a: i64 = *i[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a.wrapping_mul(3).wrapping_add(1))])
    });
    let acc = rt.register("acc", Constraint::cpus(1), 0, |_, i| {
        let cell: i64 = *i[0].downcast_ref::<i64>().unwrap();
        let v: i64 = *i[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(cell.wrapping_add(v))])
    });

    // 8 value handles seeded 0..8, 4 INOUT cells seeded 100, 200, 300, 400.
    let mut handles: Vec<rcompss::DataHandle> = (0..8i64).map(|i| rt.literal(i)).collect();
    let cells: Vec<rcompss::DataHandle> = (1..=4i64).map(|i| rt.literal(i * 100)).collect();

    for op in ops {
        match op {
            Op::Add(a, b) => {
                let out = rt
                    .submit(&add, vec![ArgSpec::In(handles[*a]), ArgSpec::In(handles[*b])])
                    .unwrap()
                    .returns[0];
                handles.push(out);
            }
            Op::Mix(a) => {
                let out = rt.submit(&mix, vec![ArgSpec::In(handles[*a])]).unwrap().returns[0];
                handles.push(out);
            }
            Op::Accumulate(c, v) => {
                rt.submit(&acc, vec![ArgSpec::InOut(cells[*c]), ArgSpec::In(handles[*v])]).unwrap();
            }
        }
        // keep the live set bounded
        if handles.len() > 16 {
            handles.drain(0..4);
        }
    }
    let finals: Vec<i64> =
        handles.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    let cell_vals: Vec<i64> =
        cells.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    (finals, cell_vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_execution_is_sequentially_equivalent(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let sequential = run_program(1, &ops);
        let parallel = run_program(8, &ops);
        prop_assert_eq!(sequential, parallel);
    }
}

// ---------------------------------------------------------------------
// Scheduling invariants of the simulated backend on rigid, independent
// jobs — the shape of the paper's HPO workloads.
// ---------------------------------------------------------------------

fn job_strategy() -> impl Strategy<Value = (u32, u64)> {
    (1u32..16, 1u64..5_000)
}

/// `nodes` 16-core nodes, the cluster every property below runs on.
fn small_cluster(nodes: usize) -> RuntimeConfig {
    RuntimeConfig::on_cluster(Cluster::homogeneous(nodes, NodeSpec::new("n", 16, vec![], 32)))
}

/// One core's share of one execution attempt, as the trace records it.
#[derive(Debug, PartialEq)]
struct Span {
    task: u64,
    node: u32,
    core: u32,
    start: u64,
    end: u64,
}

/// Run one independent task per `(cores, duration)` to the barrier on the
/// simulated backend; the spans are every per-core run bar of the trace,
/// failed attempts included.
fn run_rigid(cfg: RuntimeConfig, specs: &[(u32, u64)]) -> (Runtime, Vec<Span>) {
    let rt = Runtime::simulated(cfg);
    for (i, &(cores, dur)) in specs.iter().enumerate() {
        let job = rt.register("job", Constraint::cpus(cores), 1, |_, _| Ok(vec![Value::new(())]));
        let submitted =
            rt.submit_with(&job, vec![], SubmitOpts { sim_duration_us: Some(dur) }).unwrap();
        // Failure injectors key on this id: tasks are numbered from 1.
        assert_eq!(submitted.task, TaskId(i as u64 + 1));
    }
    rt.barrier();
    let spans = rt
        .trace()
        .iter()
        .filter_map(|r| match r {
            Record::State { core, start, end, state: StateKind::Running(t) } => Some(Span {
                task: t.id,
                node: core.node,
                core: core.core,
                start: *start,
                end: *end,
            }),
            _ => None,
        })
        .collect();
    (rt, spans)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_core_oversubscription_and_makespan_bounds(
        specs in prop::collection::vec(job_strategy(), 1..60),
        nodes in 1usize..4,
    ) {
        let (rt, spans) = run_rigid(small_cluster(nodes), &specs);
        let stats = rt.stats();
        prop_assert_eq!(stats.completed, specs.len() as u64);

        // (1) affinity: no two spans on one (node, core) overlap in time
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[i + 1..] {
                if (a.node, a.core) == (b.node, b.core) {
                    prop_assert!(a.end <= b.start || b.end <= a.start, "core shared: {a:?} vs {b:?}");
                }
            }
        }
        // every task owns exactly the cores it asked for
        for (i, &(cores, _)) in specs.iter().enumerate() {
            let owned = spans.iter().filter(|s| s.task == i as u64 + 1).count();
            prop_assert_eq!(owned, cores as usize, "task {} core count", i + 1);
        }
        // (2) per-instant core usage ≤ capacity (checked at every start)
        for probe in spans.iter().map(|s| s.start) {
            for node in 0..nodes as u32 {
                let used = spans
                    .iter()
                    .filter(|s| s.node == node && s.start <= probe && probe < s.end)
                    .count();
                prop_assert!(used <= 16, "node {node} oversubscribed at t={probe}: {used}");
            }
        }
        // (3) makespan bounds
        let longest = specs.iter().map(|&(_, dur)| dur).max().unwrap();
        let total_work: u64 = specs.iter().map(|&(cores, dur)| dur * cores as u64).sum();
        let capacity = (nodes * 16) as u64;
        prop_assert!(stats.makespan_us >= longest);
        prop_assert!(stats.makespan_us >= total_work / capacity);
        let serial: u64 = specs.iter().map(|&(_, dur)| dur).sum();
        prop_assert!(stats.makespan_us <= serial, "worse than fully serial");
    }

    #[test]
    fn simulation_is_deterministic_under_failures(
        specs in prop::collection::vec(job_strategy(), 1..40),
        seed in 0u64..1_000,
    ) {
        let run = || {
            let cfg = small_cluster(3).with_failures(FailureInjector::random(seed, 0.15));
            let (rt, spans) = run_rigid(cfg, &specs);
            (rt.stats(), spans, rt.failed_tasks())
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn forced_failures_below_budget_never_lose_jobs(
        specs in prop::collection::vec(job_strategy(), 1..20),
        failing_attempts in prop::collection::vec((0u64..20, 1u32..3), 0..8),
    ) {
        let mut inj = FailureInjector::none();
        for &(job, attempt) in &failing_attempts {
            // attempts 1..3 only — the default budget is 3, so success is
            // always possible on some attempt
            inj = inj.with_task_failure(job % specs.len() as u64 + 1, attempt);
        }
        let (rt, _) = run_rigid(small_cluster(2).with_failures(inj), &specs);
        prop_assert_eq!(rt.stats().completed, specs.len() as u64);
        prop_assert!(rt.failed_tasks().is_empty());
    }
}

// ---------------------------------------------------------------------
// Search-space invariants.
// ---------------------------------------------------------------------

fn domain_strategy() -> impl Strategy<Value = ParamDomain> {
    // Choice lists use sets: duplicate values in a choice list would make
    // "no duplicate configs" unfalsifiable by construction.
    prop_oneof![
        prop::collection::btree_set(-50i64..50, 1..5)
            .prop_map(|vs| ParamDomain::Choice(vs.into_iter().map(ConfigValue::Int).collect())),
        (0i64..10, 1i64..5, 1i64..4).prop_map(|(min, span, step)| ParamDomain::IntRange {
            min,
            max: min + span * step,
            step,
        }),
        prop::collection::btree_set("[a-z]{1,6}", 1..4)
            .prop_map(|ss| { ParamDomain::Choice(ss.into_iter().map(ConfigValue::Str).collect()) }),
    ]
}

fn space_strategy() -> impl Strategy<Value = SearchSpace> {
    prop::collection::btree_map("[a-z]{1,8}", domain_strategy(), 1..4).prop_map(|m| {
        let mut s = SearchSpace::new();
        for (k, d) in m {
            s = s.with(&k, d);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_enumerates_exactly_the_product(space in space_strategy()) {
        let expected = space.grid_size().unwrap();
        let mut g = GridSearch::new(&space);
        let mut labels = std::collections::BTreeSet::new();
        let mut n = 0usize;
        while let Some(cfg) = g.suggest(&[]) {
            prop_assert!(space.contains(&cfg), "escaped: {}", cfg.label());
            labels.insert(cfg.label());
            n += 1;
        }
        prop_assert_eq!(n, expected, "grid size");
        prop_assert_eq!(labels.len(), expected, "no duplicates");
    }

    #[test]
    fn random_and_tpe_sample_inside_space(space in space_strategy(), seed in 0u64..500) {
        let mut r = RandomSearch::new(&space, 20, seed);
        while let Some(cfg) = r.suggest(&[]) {
            prop_assert!(space.contains(&cfg));
        }
        let mut t = TpeSearch::new(&space, 10, seed);
        let mut hist = Vec::new();
        while let Some(cfg) = t.suggest(&hist) {
            prop_assert!(space.contains(&cfg));
            let acc = (cfg.label().len() % 10) as f64 / 10.0;
            hist.push(hpo::results::TrialResult {
                config: cfg,
                outcome: hpo::experiment::TrialOutcome::with_accuracy(acc),
                task_us: 0,
            });
        }
    }

    #[test]
    fn spaces_roundtrip_through_json(space in space_strategy()) {
        // serialise by hand (the library deliberately has no JSON writer —
        // configs are inputs, not outputs)
        let mut json = String::from("{");
        for (i, (name, domain)) in space.params().iter().enumerate() {
            if i > 0 { json.push(','); }
            match domain {
                ParamDomain::Choice(vals) => {
                    let items: Vec<String> = vals
                        .iter()
                        .map(|v| match v {
                            ConfigValue::Int(x) => x.to_string(),
                            ConfigValue::Float(x) => format!("{x:?}"),
                            ConfigValue::Str(s) => format!("\"{s}\""),
                        })
                        .collect();
                    json.push_str(&format!("\"{name}\": [{}]", items.join(",")));
                }
                ParamDomain::IntRange { min, max, step } => {
                    json.push_str(&format!("\"{name}\": {{\"int_range\": [{min}, {max}, {step}]}}"));
                }
                _ => unreachable!("strategy emits discrete domains only"),
            }
        }
        json.push('}');
        let parsed = SearchSpace::from_json(&json).unwrap();
        // BTreeMap ordering on both sides ⇒ exact equality
        prop_assert_eq!(&parsed, &space);
    }
}

// ---------------------------------------------------------------------
// Trace statistics invariants on real runtime traces.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sim_trace_busy_time_is_conserved(durations in prop::collection::vec(100u64..5_000, 1..30)) {
        let rt = Runtime::simulated(RuntimeConfig::single_node(8));
        let t = rt.register("t", Constraint::cpus(1), 1, |_, _| Ok(vec![Value::new(())]));
        for &d in &durations {
            rt.submit_with(&t, vec![], rcompss::SubmitOpts { sim_duration_us: Some(d) }).unwrap();
        }
        rt.barrier();
        let stats = paratrace::TraceStats::compute(&rt.trace());
        // every task runs exactly once for exactly its duration
        prop_assert_eq!(stats.total_busy, durations.iter().sum::<u64>());
        prop_assert_eq!(stats.tasks_run, durations.len());
        prop_assert!(stats.peak_parallelism <= 8);
        prop_assert!(stats.makespan >= *durations.iter().max().unwrap());
    }
}

// ---------------------------------------------------------------------
// Backend equivalence: the threaded and the simulated backend are two
// executions of the same program and must agree on every value.
// ---------------------------------------------------------------------

fn run_program_simulated(ops: &[Op]) -> (Vec<i64>, Vec<i64>) {
    let rt = Runtime::simulated(RuntimeConfig::single_node(8).with_tracing(false));
    let add = rt.register("add", Constraint::cpus(1), 1, |_, i| {
        let a: i64 = *i[0].downcast_ref::<i64>().unwrap();
        let b: i64 = *i[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a.wrapping_add(b))])
    });
    let mix = rt.register("mix", Constraint::cpus(1), 1, |_, i| {
        let a: i64 = *i[0].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(a.wrapping_mul(3).wrapping_add(1))])
    });
    let acc = rt.register("acc", Constraint::cpus(1), 0, |_, i| {
        let cell: i64 = *i[0].downcast_ref::<i64>().unwrap();
        let v: i64 = *i[1].downcast_ref::<i64>().unwrap();
        Ok(vec![Value::new(cell.wrapping_add(v))])
    });
    let mut handles: Vec<rcompss::DataHandle> = (0..8i64).map(|i| rt.literal(i)).collect();
    let cells: Vec<rcompss::DataHandle> = (1..=4i64).map(|i| rt.literal(i * 100)).collect();
    for op in ops {
        match op {
            Op::Add(a, b) => {
                let out = rt
                    .submit(&add, vec![ArgSpec::In(handles[*a]), ArgSpec::In(handles[*b])])
                    .unwrap()
                    .returns[0];
                handles.push(out);
            }
            Op::Mix(a) => {
                let out = rt.submit(&mix, vec![ArgSpec::In(handles[*a])]).unwrap().returns[0];
                handles.push(out);
            }
            Op::Accumulate(c, v) => {
                rt.submit(&acc, vec![ArgSpec::InOut(cells[*c]), ArgSpec::In(handles[*v])]).unwrap();
            }
        }
        if handles.len() > 16 {
            handles.drain(0..4);
        }
    }
    let finals: Vec<i64> =
        handles.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    let cell_vals: Vec<i64> =
        cells.iter().map(|h| *rt.wait_on(h).unwrap().downcast_ref::<i64>().unwrap()).collect();
    (finals, cell_vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn threaded_and_simulated_backends_agree(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let threaded = run_program(4, &ops);
        let simulated = run_program_simulated(&ops);
        prop_assert_eq!(threaded, simulated);
    }
}

// ---------------------------------------------------------------------
// Intra-task kernel equivalence: the blocked, multi-threaded GEMM and
// im2col convolution produce the same numbers as their serial execution
// (bit-for-bit — stronger than the 1e-5 the docs promise) and stay within
// f32 accumulation error of an f64 naive reference, for arbitrary shapes
// (including degenerate 1×N / N×1 / k=1) and thread counts.
// ---------------------------------------------------------------------

/// Naive f64 reference for `a (m×k) · b (k×n)`.
fn naive_gemm_f64(a: &tinyml::Matrix, b: &tinyml::Matrix) -> Vec<f64> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a.get(i, p) as f64 * b.get(p, j) as f64;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn test_matrix(rows: usize, cols: usize, salt: u64) -> tinyml::Matrix {
    tinyml::Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 7) as f32 + salt as f32) * 0.7).sin() * 0.5
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_gemm_matches_serial_for_random_shapes(
        m in 1usize..48,
        k in 1usize..800,
        n in 1usize..48,
        threads in 1usize..9,
        salt in 0u64..32,
    ) {
        use tinyml::par::with_threads;
        let a = test_matrix(m, k, salt);
        let b = test_matrix(k, n, salt + 1);

        let serial = with_threads(1, || a.matmul(&b));
        let parallel = with_threads(threads, || a.matmul(&b));
        prop_assert_eq!(&serial, &parallel, "GEMM must be bit-identical at any thread count");

        // And the blocked kernel itself is right: compare to f64 naive.
        let reference = naive_gemm_f64(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let got = serial.get(i, j) as f64;
                let want = reference[i * n + j];
                prop_assert!(
                    (got - want).abs() <= 1e-3 * (1.0 + want.abs()),
                    "({i},{j}): blocked {got} vs naive {want} for {m}x{k}x{n}"
                );
            }
        }

        // The transposed variants feed backprop — same guarantee.
        let bt = test_matrix(n, k, salt + 2);
        prop_assert_eq!(
            with_threads(1, || a.matmul_t(&bt)),
            with_threads(threads, || a.matmul_t(&bt))
        );
        let at = test_matrix(k, m, salt + 3);
        prop_assert_eq!(
            with_threads(1, || at.t_matmul(&b)),
            with_threads(threads, || at.t_matmul(&b))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_conv_matches_serial_for_random_shapes(
        batch in 1usize..4,
        in_c in 1usize..3,
        out_c in 1usize..5,
        hw in 4usize..10,
        k_is_3 in any::<bool>(),
        pad in 0usize..2,
        threads in 1usize..9,
        seed in 0u64..64,
    ) {
        use tinyml::conv::{Conv2d, Tensor4};
        use tinyml::par::with_threads;
        let k = if k_is_3 { 3 } else { 1 };
        let layer = Conv2d::new(in_c, out_c, k, pad, seed);
        let mut x = Tensor4::zeros(batch, in_c, hw, hw);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f32 + seed as f32) * 0.37).sin();
        }

        let y1 = with_threads(1, || layer.forward(&x));
        let yt = with_threads(threads, || layer.forward(&x));
        prop_assert_eq!(y1.as_slice(), yt.as_slice(), "conv forward bit-identical");

        let (dw1, db1, dx1) = with_threads(1, || layer.backward(&x, &y1));
        let (dwt, dbt, dxt) = with_threads(threads, || layer.backward(&x, &y1));
        prop_assert_eq!(&dw1, &dwt, "dw bit-identical");
        prop_assert_eq!(&db1, &dbt, "db bit-identical");
        prop_assert_eq!(dx1.as_slice(), dxt.as_slice(), "dx bit-identical");
    }
}
