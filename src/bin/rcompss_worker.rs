//! `rcompss-worker` — standalone worker daemon for `--backend distributed`.
//!
//! Thin wrapper over the same code path as `hpo-run worker`: parse the
//! worker flags, register codecs and the experiment task, serve until
//! killed. Run one per node, then point the driver at them:
//!
//! ```text
//! rcompss-worker --listen 127.0.0.1:7077 --name w0 &
//! rcompss-worker --listen 127.0.0.1:7078 --name w1 &
//! hpo-run --config space.json --backend distributed \
//!         --workers 127.0.0.1:7077,127.0.0.1:7078
//! ```

use std::process::ExitCode;

use pycompss_hpo_repro::cli;
use pycompss_hpo_repro::worker;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = raw.iter().map(String::as_str).collect();
    let args = match cli::parse_worker(&refs) {
        Ok(a) => a,
        Err(e) => return e.report(),
    };
    match worker::serve(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
