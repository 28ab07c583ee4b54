//! Figure 3 — the dynamic task graph.
//!
//! Rebuilds the paper's example application: ten `graph.experiment` tasks,
//! one `graph.visualisation` task per experiment (immediate, interactive
//! feedback), and a final `graph.plot` fan-in behind the `compss_wait_on`
//! sync. Exports Graphviz DOT with the `dNvM` versioned-data edge labels.

use hpo_bench::{banner, out_dir};
use rcompss::{ArgSpec, Constraint, Runtime, RuntimeConfig, Value};

fn main() {
    banner("Figure 3", "dynamic dependency graph of the HPO application");

    let mut cfg = RuntimeConfig::single_node(16);
    cfg.graph = true;
    let rt = Runtime::simulated(cfg);
    let experiment = rt.register("graph.experiment", Constraint::cpus(1), 1, |ctx, _| {
        Ok(vec![Value::new(0.90 + 0.001 * ctx.task.0 as f64)])
    });
    let visualisation = rt.register("graph.visualisation", Constraint::cpus(1), 1, |_, inputs| {
        Ok(vec![inputs[0].clone()])
    });
    let plot = rt.register("graph.plot", Constraint::cpus(1), 1, |_, inputs| {
        let n = inputs.len();
        Ok(vec![Value::new(n)])
    });

    let mut vis_results = Vec::new();
    for _ in 0..10 {
        let e = rt.submit(&experiment, vec![]).expect("submit experiment").returns[0];
        let v =
            rt.submit(&visualisation, vec![ArgSpec::In(e)]).expect("submit visualisation").returns
                [0];
        vis_results.push(v);
    }
    let args: Vec<ArgSpec> = vis_results.iter().map(|&h| ArgSpec::In(h)).collect();
    let p = rt.submit(&plot, args).expect("submit plot").returns[0];
    let plotted = rt.wait_on(&p).expect("plot result");
    println!("plot task aggregated {} visualisations", plotted.downcast_ref::<usize>().unwrap());

    let dot = rt.dot();
    let path = out_dir().join("fig3_task_graph.dot");
    std::fs::write(&path, &dot).expect("write dot");
    println!("\n{dot}");
    println!("DOT written to {}", path.display());
    println!(
        "tasks: {} | graph edges labelled with versioned data (dNvM) as in the paper",
        rt.stats().submitted
    );
}
