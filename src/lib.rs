//! Root crate of the reproduction: re-exports the workspace crates and
//! hosts the `hpo-run` launcher's CLI module (see `src/main.rs`).

pub mod cli;
pub mod server_cmd;
pub mod worker;

pub use cluster;
pub use hpo;
pub use paratrace;
pub use rcompss;
pub use tinyml;

/// Serve live `GET /metrics` + `GET /healthz` on `addr` (`--status-addr`;
/// `None` = no endpoint) until the returned handle is dropped: the
/// process-global registry (training and worker internals), merged with
/// `runtime`'s series when the process has a runtime registry.
pub fn serve_status(
    addr: Option<&str>,
    runtime: Option<std::sync::Arc<runmetrics::MetricsRegistry>>,
) -> Result<Option<rnet::StatusServer>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let server = rnet::StatusServer::bind(addr, move |path| {
        (path == "/metrics").then(|| {
            let mut snap = runtime.as_ref().map(|reg| reg.snapshot()).unwrap_or_default();
            snap.merge(runmetrics::global().snapshot());
            ("text/plain; version=0.0.4".to_string(), runmetrics::to_prometheus(&snap))
        })
    })
    .map_err(|e| format!("cannot serve --status-addr {addr}: {e}"))?;
    println!("status endpoint: http://{}/metrics", server.local_addr());
    Ok(Some(server))
}
