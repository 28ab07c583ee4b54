//! `rcompss-server` — the long-lived multi-tenant sweep server.
//!
//! Thin wrapper over the same code path as `hpo-run serve`: parse the
//! server flags, gather the worker pool (dial-out and/or dial-in), and
//! serve sweeps to many tenants until killed. Typical small deployment:
//!
//! ```text
//! rcompss-server --listen 127.0.0.1:7070 --expect-workers 2 &
//! rcompss-worker --listen 127.0.0.1:7077 --name w0 --dial 127.0.0.1:7070 &
//! rcompss-worker --listen 127.0.0.1:7078 --name w1 --dial 127.0.0.1:7070 &
//! hpo-run submit --server 127.0.0.1:7070 --tenant acme \
//!         --config space.json --algo random --trials 32 --watch
//! ```

use std::process::ExitCode;

use pycompss_hpo_repro::cli;
use pycompss_hpo_repro::server_cmd;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = raw.iter().map(String::as_str).collect();
    let args = match cli::parse_serve(&refs) {
        Ok(a) => a,
        Err(e) => return e.report(),
    };
    match server_cmd::serve(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
