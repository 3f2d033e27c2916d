//! `sprout_bench`: the one benchmark harness behind `BENCHMARK.json`.
//!
//! Four workloads (`scan_conf`, `join_plans`, `unsafe_bounds`,
//! `serve_mixed`), each run in a process of its own, every operation timed
//! from outside the engine with `Instant` around the public entry point
//! (`SproutDb::query_with_options`, or a loopback `POST`), every answer
//! checked. A separate traced run replays each operation through the
//! layers' public functions under the harness's own spans and reads the
//! engine's `QueryObs` counters, which is where the per-layer numbers come
//! from. See `README.md` in this directory for the metric catalogue.

pub mod suite;
