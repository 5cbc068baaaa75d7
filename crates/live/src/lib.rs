//! # lastmile-live
//!
//! The continuous-ingestion engine that turns the `lastmile serve`
//! daemon from a snapshot viewer into an always-on congestion
//! observatory. Three pieces, composed by the CLI:
//!
//! * [`epoch::Epoch`] — RCU-style publication of immutable analysis
//!   snapshots: readers clone an `Arc` under a briefly held lock and
//!   then never block on (or observe) a writer; each publish bumps a
//!   generation counter, so a response can be labelled with exactly one
//!   epoch.
//! * [`watch::AppendWatcher`] — polls the corpus file's length and
//!   identity (`(dev, inode)` where available), slurps
//!   newline-terminated bytes appended past the length the startup
//!   analysis read, and falls back to a full re-ingest on
//!   truncation/rotation — including rename-rotation to a
//!   same-or-longer replacement.
//! * [`engine::LiveEngine`] — the scheduler thread. Intake enters
//!   through one call, [`engine::LiveHandle::intake`], from the watcher
//!   (polled on the caller's `obs::Ticker`) and from
//!   `POST /v1/traceroutes`. A debounce window coalesces bursts, then
//!   one re-analysis pass invalidates the dirty probes' memoized series
//!   (on the engine thread, so an in-flight pass can never resurrect a
//!   stale entry) and publishes the next epoch. Shutdown drains: after
//!   the caller's last watcher poll, a pending re-analysis completes
//!   before the engine joins, so the snapshot the daemon re-persists
//!   never mixes epochs.
//!
//! The correctness contract the whole crate serves: after any sequence
//! of accepted appends, `GET /v1/classify` is byte-identical to a cold
//! `classify --json` over the union corpus (main file + POST spool).

pub mod engine;
pub mod epoch;
pub mod intake;
pub mod watch;

pub use engine::{Invalidation, LiveEngine, LiveHandle, Source};
pub use epoch::Epoch;
pub use intake::{intake_body, IntakeOutcome, Spool};
pub use watch::{newline_aligned_len, AppendWatcher, WatchPoll};
