//! Blocking client for the sweep server ([`crate::server`]).
//!
//! One [`SweepClient`] is one tenant's connection: it introduces itself
//! with a [`Frame::ClientHello`] and then submits, watches, queries and
//! cancels sweeps over the same `rnet` frames the server speaks. The
//! `hpo-run` CLI subcommands (`submit`, `status`, `watch`, `cancel`) and
//! the integration tests are both thin wrappers over this type.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use rnet::{read_frame, write_frame, Frame, LeaderRow, RecvBuf};

/// A sweep request, mirroring [`Frame::SubmitSweep`].
#[derive(Debug, Clone)]
pub struct SubmitSpec {
    /// Display name for the sweep (labels its latency histogram).
    pub name: String,
    /// Search space as the usual hyperparameter JSON.
    pub space_json: String,
    /// Algorithm wire name: `grid`, `random`, `tpe` or `bayes`.
    pub algo: String,
    /// Trial budget for sampled algorithms (ignored by `grid`).
    pub trials: u32,
    /// RNG seed — same seed, same space, same algorithm ⇒ same trials.
    pub seed: u64,
    /// Wave size: at most this many trials per round (`0` = no bound
    /// beyond the algorithm's own parallelism).
    pub wave: u32,
}

/// A point-in-time sweep status, mirroring [`Frame::SweepStatus`].
#[derive(Debug, Clone)]
pub struct SweepInfo {
    /// Server-assigned sweep id.
    pub sweep_id: u64,
    /// One of the `crate::server::SWEEP_*` codes.
    pub state: u32,
    /// Trials collected successfully.
    pub done: u32,
    /// Trials that failed.
    pub failed: u32,
    /// Planned trials (`0` when the algorithm's total is open-ended).
    pub total: u32,
    /// Best accuracy so far.
    pub best_acc: f64,
    /// Label of the best trial so far.
    pub best_label: String,
    /// Times this tenant's submissions were made to wait by the
    /// fair-share gate.
    pub throttled: u64,
}

/// Terminal sweep notification, mirroring [`Frame::SweepDone`].
#[derive(Debug, Clone)]
pub struct SweepEnd {
    /// The finished sweep.
    pub sweep_id: u64,
    /// Terminal `crate::server::SWEEP_*` code.
    pub state: u32,
    /// Wall-clock duration of the run phase, microseconds.
    pub wall_us: u64,
    /// Why it ended, when not the obvious reason (quota, cancel…).
    pub message: String,
}

/// A server-side refusal, mirroring [`Frame::SweepReject`].
#[derive(Debug, Clone)]
pub struct Reject {
    /// One of the `crate::server::REJECT_*` codes.
    pub code: u32,
    /// Operator-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rejected (code {}): {}", self.code, self.message)
    }
}

/// One tenant's blocking connection to a sweep server.
#[derive(Debug)]
pub struct SweepClient {
    stream: TcpStream,
    recv: RecvBuf,
}

impl SweepClient {
    /// Connect to `addr` and introduce this connection as `tenant`.
    pub fn connect(addr: &str, tenant: &str) -> io::Result<SweepClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = SweepClient { stream, recv: RecvBuf::new() };
        client.send(&Frame::ClientHello {
            tenant: tenant.to_string(),
            proto: rnet::VERSION as u32,
        })?;
        Ok(client)
    }

    /// Bound every subsequent read; `None` blocks forever.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.stream, frame)?;
        Ok(())
    }

    /// Read the next frame, blocking. EOF or garbage is an error — the
    /// server never half-closes a healthy conversation.
    pub fn next_frame(&mut self) -> io::Result<Frame> {
        match read_frame(&mut self.stream, &mut self.recv)? {
            Some(frame) => Ok(frame),
            None => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
            }
        }
    }

    /// Read frames until a status or reject arrives, skipping interleaved
    /// leaderboard traffic for watched sweeps.
    fn next_answer(&mut self) -> io::Result<Result<SweepInfo, Reject>> {
        loop {
            match self.next_frame()? {
                Frame::SweepStatus {
                    sweep_id,
                    state,
                    done,
                    failed,
                    total,
                    best_acc,
                    best_label,
                    throttled,
                    ..
                } => {
                    return Ok(Ok(SweepInfo {
                        sweep_id,
                        state,
                        done,
                        failed,
                        total,
                        best_acc,
                        best_label,
                        throttled,
                    }))
                }
                Frame::SweepReject { code, message } => return Ok(Err(Reject { code, message })),
                _ => continue,
            }
        }
    }

    /// Submit a sweep; the connection is auto-subscribed to its events.
    pub fn submit(&mut self, spec: &SubmitSpec) -> io::Result<Result<SweepInfo, Reject>> {
        self.send(&Frame::SubmitSweep {
            name: spec.name.clone(),
            space_json: spec.space_json.clone(),
            algo: spec.algo.clone(),
            trials: spec.trials,
            seed: spec.seed,
            wave: spec.wave,
        })?;
        self.next_answer()
    }

    /// Query a sweep; `follow` additionally subscribes this connection
    /// to its live events (replaying the leaderboard so far).
    pub fn status(&mut self, sweep_id: u64, follow: bool) -> io::Result<Result<SweepInfo, Reject>> {
        self.send(&Frame::SweepStatus {
            sweep_id,
            state: 0,
            done: 0,
            failed: 0,
            total: 0,
            best_acc: 0.0,
            best_label: String::new(),
            throttled: 0,
            follow: u32::from(follow),
        })?;
        self.next_answer()
    }

    /// Ask the server to cancel a sweep; the acknowledging status comes
    /// back immediately, the terminal [`SweepEnd`] via the subscription.
    pub fn cancel(&mut self, sweep_id: u64) -> io::Result<Result<SweepInfo, Reject>> {
        self.send(&Frame::CancelSweep { sweep_id })?;
        self.next_answer()
    }

    /// Stream a subscribed sweep to completion: every leaderboard row
    /// goes through `on_row` (in completion order), and the terminal
    /// notification is returned.
    pub fn wait_done(
        &mut self,
        sweep_id: u64,
        mut on_row: impl FnMut(&LeaderRow),
    ) -> io::Result<SweepEnd> {
        loop {
            match self.next_frame()? {
                Frame::LeaderboardChunk { sweep_id: id, rows } if id == sweep_id => {
                    for row in &rows {
                        on_row(row);
                    }
                }
                Frame::SweepDone { sweep_id: id, state, wall_us, message } if id == sweep_id => {
                    return Ok(SweepEnd { sweep_id: id, state, wall_us, message });
                }
                _ => continue,
            }
        }
    }
}
