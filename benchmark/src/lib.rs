//! Shared pieces of the repo benchmark's two binaries: `bench` (the
//! end-to-end run) and `trace` (the per-layer traced run). See README.md.
//!
//! Nothing in this library names an engine operator; the operator-level
//! calls of the traced run live in `layers.rs`, which only `trace` compiles.

pub mod harness;
pub mod json;
pub mod procfs;
pub mod report;
pub mod rng;
pub mod spans;
pub mod spec;
pub mod stats;

/// Where data directories and trace files go: `out/` inside this package
/// (inside the checkout; ignored by git).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
