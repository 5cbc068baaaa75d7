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
//!   read covered, and reports a truncation/rotation — including
//!   rename-rotation to a same-or-longer replacement — with the
//!   replacement's newline-aligned length.
//! * [`engine::LiveEngine`] — the scheduler thread. Intake enters
//!   through one call, [`engine::LiveHandle::intake`], from the watcher
//!   (polled on the caller's `obs::Ticker`) and from
//!   `POST /v1/traceroutes` ([`intake::intake_body`], which hands off
//!   under the spool lock). Each path decodes its records once and hands
//!   over the rows; a debounce window coalesces bursts into one
//!   [`engine::Batch`], and one pass folds it into the caller's kept
//!   columns and publishes the next epoch — nothing already read is
//!   decoded again. A truncation makes the batch a rebuild, which
//!   re-reads the files up to the lengths the batch records. Shutdown
//!   drains: after the caller's last watcher poll, a pending
//!   re-analysis completes before the engine joins, so the daemon's
//!   last epoch holds every accepted record.
//!
//! The kept columns are the caller's (the CLI keeps them in its
//! `classify::Corpus`) and cost about 4 B per in-window record plus
//! 8 B per kept RTT for as long as the daemon runs. Every read of a
//! union file is bounded to a recorded length, and a live daemon keeps
//! no series store: the CLI refuses `--cache-dir` with live intake.
//!
//! The correctness contract the whole crate serves: after any sequence
//! of accepted appends, `GET /v1/classify` is byte-identical to a cold
//! `classify --json` over the union corpus (main file + POST spool).

pub mod engine;
pub mod epoch;
pub mod intake;
pub mod watch;

pub use engine::{Batch, Delivery, LiveEngine, LiveHandle, Source};
pub use epoch::Epoch;
pub use intake::{intake_body, IntakeOutcome, Spool};
pub use watch::{newline_aligned_len, AppendWatcher, WatchPoll};
