//! End-to-end and per-layer benchmark of the JMB simulator.
//!
//! The `perfbench` binary runs four workloads (`fast_array`, `city_grid`,
//! `sample_cell`, `scenario_corpus`) for a time budget, checks every
//! simulated output against a digest, and prints the end-to-end metrics
//! (untraced) or the per-layer metrics (traced) declared in the
//! repository's `BENCHMARK.json`. Layers are timed from outside: around
//! calls into public functions, through a pass-through
//! [`jmb_traffic::TransmitBackend`] wrapper, by direct probes, and from
//! the program's own `jmb-obs` spans.

#![forbid(unsafe_code)]

pub mod bench;
pub mod clock;
pub mod digest;
pub mod probes;
pub mod workloads;
pub mod wrap;
