//! The benchmark suite: metric catalogue, workload table, and the modules
//! that run, check, trace and compare.

pub mod catalogue;
pub mod check;
pub mod cli;
pub mod compare;
pub mod library;
pub mod ops;
pub mod replay;
pub mod report;
pub mod rng;
pub mod server;
pub mod spans;
pub mod stats;

/// Engine threads of everything that is timed: every library op passes an
/// explicit `Pool::new(ENGINE_THREADS)` in `QueryOptions.pool`, and the server
/// hands each query `worker_threads / slots` = 1 thread.
///
/// One, not the sandbox's two vCPUs: the second vCPU comes and goes with the
/// host's load (two busy threads measured anywhere between 1.0× and 2.0× the
/// wall of one, for minutes at a time, while one busy thread stayed within a
/// few percent all day), so a timing that needs both cores measures the
/// neighbours. What two threads buy is reported by the traced run
/// (`par.t2_pass_s`, `par.speedup`, `server.concurrent_req_per_s`), unbounded.
pub const ENGINE_THREADS: usize = 1;

/// Pool size of the traced run's parallel pass.
pub const PARALLEL_THREADS: usize = 2;
