//! The individual lint rules. Each module exposes its rule name
//! (`RULE`) and a `check` entry point; see the crate docs for the
//! discipline each rule protects and [`crate::RULES`] for the registry.

pub mod commit_path;
pub mod determinism;
pub mod hygiene;
pub mod telemetry;
pub mod weights;
