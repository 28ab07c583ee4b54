//! The reference: a fixed piece of the benchmark's own work, run in slices
//! between chunks of rounds, that says how fast the box is right now. The
//! box's speed wanders by a quarter over ten minutes, all four workloads
//! together (README, "Noise"); a slice every 50–130 ms sees the same box the
//! rounds beside it saw, and a pass reports its times and rates at the
//! speed of the nominal box.
//!
//! Three things keep a change to the program from moving the yardstick:
//!
//! * it is this file's code and calls nothing of the program's;
//! * it runs on the driving thread while the program is quiescent: every
//!   result of the chunk before is in, nothing of the next is submitted;
//! * it is timed in the *thread's* CPU time, which no other thread can add
//!   to, whatever the program still has running.
//!
//! The mix follows what the workloads are made of: dense arithmetic out of
//! the first-level cache, loads that miss the second, system calls through
//! the loopback TCP stack, small allocations. An arithmetic chain alone
//! does not feel the box's regimes (the issue's ALU kernel stayed within
//! ± 2 % while throughput drifted by 10 %); this mix does.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::sys;

/// Side of the square tiles multiplied.
const TILE: usize = 64;
/// Tile products per slice.
const PRODUCTS: usize = 4;
/// Words of the buffer walked (4 MiB: past the second-level cache).
const HEAP_WORDS: usize = 1 << 19;
/// Loads per slice, each from a different cache line.
const LOADS: usize = 10_000;
/// Messages sent and received over loopback per slice.
const MESSAGES: usize = 150;
/// Boxes allocated and freed per slice.
const BOXES: usize = 6_000;

/// CPU time of one slice on the two-core box in a calm hour, ns: the
/// nominal box. Only the ratio of speeds from pass to pass matters.
const NOMINAL_SLICE_NS: f64 = 2.3e6;

/// The fixed work of one slice and the buffers it runs over.
struct Kernel {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    heap: Vec<u64>,
    at: usize,
    tx: TcpStream,
    rx: TcpStream,
}

impl Kernel {
    /// Allocate the buffers and connect the loopback pair; both ends stay
    /// with the thread that runs the slices.
    fn new() -> Kernel {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind reference listener");
        let tx = TcpStream::connect(listener.local_addr().expect("reference address"))
            .expect("connect reference pair");
        let (rx, _) = listener.accept().expect("accept reference pair");
        tx.set_nodelay(true).expect("nodelay");
        // One cycle through every cache line of the buffer: a line's first
        // word holds the index of the next, a full-period congruential
        // step (multiplier ≡ 1 mod 4, odd increment, power-of-two modulus)
        // that no prefetcher follows.
        let lines = HEAP_WORDS / 8;
        let mut heap = vec![0u64; HEAP_WORDS];
        for line in 0..lines {
            heap[line * 8] = (((line * 40_501 + 1) % lines) * 8) as u64;
        }
        Kernel {
            a: (0..TILE * TILE).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..TILE * TILE).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; TILE * TILE],
            heap,
            at: 0,
            tx,
            rx,
        }
    }

    /// One slice; returns the CPU time it cost the calling thread.
    fn slice(&mut self) -> Duration {
        let started = sys::thread_cpu();
        for _ in 0..PRODUCTS {
            self.c.fill(0.0);
            for i in 0..TILE {
                for k in 0..TILE {
                    let aik = self.a[i * TILE + k];
                    let row = &self.b[k * TILE..(k + 1) * TILE];
                    for (c, b) in self.c[i * TILE..(i + 1) * TILE].iter_mut().zip(row) {
                        *c += aik * b;
                    }
                }
            }
        }
        std::hint::black_box(&self.c);
        for _ in 0..LOADS {
            self.at = self.heap[self.at] as usize;
        }
        std::hint::black_box(self.at);
        let mut message = [7u8; 64];
        for _ in 0..MESSAGES {
            self.tx.write_all(&message).expect("reference send");
            self.rx.read_exact(&mut message).expect("reference receive");
        }
        let boxes: Vec<Box<[u64; 8]>> = (0..BOXES as u64).map(|i| Box::new([i; 8])).collect();
        std::hint::black_box(&boxes);
        drop(boxes);
        sys::thread_cpu() - started
    }
}

/// A second thread running slices at the same moments as the driving one.
struct Lane {
    go: Sender<()>,
    cost: Receiver<Duration>,
    thread: JoinHandle<()>,
}

/// The reference and what its slices have cost so far.
pub struct Reference {
    kernel: Kernel,
    /// Present when the workload keeps two CPUs busy: what two busy CPUs
    /// do to each other (shared cache, shared core, a quota on the guest)
    /// one running thread does not see.
    lane: Option<Lane>,
    cpu: Duration,
    slices: u32,
}

impl Reference {
    /// A reference running its slices on `threads` threads at once (1 or
    /// 2): as many as the workload keeps CPUs busy.
    pub fn new(threads: u32) -> Reference {
        let lane = (threads > 1).then(|| {
            let (go, start) = mpsc::channel::<()>();
            let (done, cost) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                let mut kernel = Kernel::new();
                while start.recv().is_ok() {
                    if done.send(kernel.slice()).is_err() {
                        break;
                    }
                }
            });
            Lane { go, cost, thread }
        });
        Reference { kernel: Kernel::new(), lane, cpu: Duration::ZERO, slices: 0 }
    }

    /// One slice on every thread, each timed in its own CPU time.
    pub fn slice(&mut self) {
        if let Some(lane) = &self.lane {
            lane.go.send(()).expect("reference lane is alive");
        }
        self.cpu += self.kernel.slice();
        self.slices += 1;
        if let Some(lane) = &self.lane {
            self.cpu += lane.cost.recv().expect("reference lane answers");
            self.slices += 1;
        }
    }

    /// How fast the box ran the slices taken so far, relative to the
    /// nominal box: below 1 when it is slow.
    pub fn speed(&self) -> f64 {
        NOMINAL_SLICE_NS * f64::from(self.slices) / self.cpu.as_nanos() as f64
    }

    /// CPU time the slices have taken: the benchmark's, not the program's.
    pub fn cpu(&self) -> Duration {
        self.cpu
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        if let Some(Lane { go, cost, thread }) = self.lane.take() {
            drop((go, cost));
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_add_up_and_the_walk_covers_the_buffer() {
        let kernel = Kernel::new();
        let mut at = 0usize;
        for _ in 1..HEAP_WORDS / 8 {
            at = kernel.heap[at] as usize;
            assert_ne!(at, 0, "the walk closes before it has seen every line");
        }
        assert_eq!(kernel.heap[at], 0);
        let mut reference = Reference::new(2);
        reference.slice();
        reference.slice();
        assert_eq!(reference.slices, 4);
        assert!(reference.cpu() > Duration::ZERO);
        assert!(reference.speed().is_finite() && reference.speed() > 0.0);
    }
}
