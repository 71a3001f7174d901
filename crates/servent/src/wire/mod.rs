//! Real-socket deployment of the servent: the same [`Servent`] state
//! machine the in-memory harness drives, bound to `std::net` TCP and run on
//! one thread by a `poll(2)` loop (no async runtime — the whole workspace is
//! offline, dependency-free Rust).
//!
//! Layering, bottom up:
//!
//! * [`framing`] — stream-to-frame reassembly with hostile-input hardening;
//! * [`backoff`] — capped exponential reconnect schedule with deterministic
//!   jitter;
//! * [`poll`] — the hand-declared `poll(2)` the loop waits in;
//! * [`conn`] — handshake, and one live connection with its bounded
//!   drop-oldest send queue;
//! * [`checkpoint`] — periodic crash-recovery snapshots of the defense
//!   state, and resume-on-start;
//! * [`runtime`] — the supervised core loop ([`WireServent`]);
//! * [`summary`] — the per-process result file the testbed collects.
//!
//! [`Servent`]: crate::servent::Servent

pub mod backoff;
pub mod checkpoint;
pub mod conn;
pub mod framing;
pub mod poll;
pub mod runtime;
pub mod summary;

pub use backoff::Backoff;
pub use checkpoint::{config_fingerprint, snap_path, CheckpointSpec};
pub use conn::{CloseReason, Conn, HandshakeError, SendQueue};
pub use framing::{FrameBuffer, MAX_FRAME_LEN};
pub use runtime::{WireConfig, WireRunReport, WireServent};
pub use summary::{WireIoError, WireSummary, SUMMARY_MAGIC};
