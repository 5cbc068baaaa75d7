//! POST intake: validate a request body, spool accepted records and
//! hand their rows to the engine.
//!
//! `POST /v1/traceroutes` bodies are framed and decoded to their
//! last-mile rows by [`lastmile_ingest::ingest_slice`] — the same
//! framing, decoder and quarantine taxonomy as batch ingest, verbatim.
//! Accepted records are appended to the **spool**: a JSON Lines file
//! that is part of the daemon's union corpus from startup, so a rebuild
//! (and any later cold `classify` over corpus + spool) sees POSTed
//! records exactly as file-appended ones. Their rows go to the engine as
//! decoded here, so no pass decodes them again. Rejected records never
//! touch the spool; they go back to the client with their quarantine
//! kind/detail.

use crate::engine::Delivery;
use lastmile_atlas::LastMile;
use lastmile_ingest::{ingest_slice, Quarantined};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The POST intake spool: an append-only JSON Lines file shared by all
/// worker threads (appends serialize on a mutex; each accepted batch is
/// written and flushed before the client gets its 200, so an accepted
/// record survives a crash).
pub struct Spool {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl Spool {
    /// Open (creating if absent) the spool at `path`.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Spool> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Spool {
            path,
            file: Mutex::new(file),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// What one POST body produced.
pub struct IntakeOutcome {
    /// Records validated and spooled.
    pub accepted: u64,
    /// Records refused, with the batch-ingest quarantine taxonomy.
    pub rejected: Vec<Quarantined>,
}

/// Validate `body`, spool the accepted records and pass their rows to
/// `hand_off`. All-or-per-record: each record stands alone (a bad line
/// never blocks its neighbours), exactly like batch ingest over a
/// corrupted corpus. Nothing is spooled or handed off if the write fails
/// — the error propagates and the client gets a 500 rather than a
/// silently half-accepted batch.
///
/// `hand_off` runs under the spool lock, right after the append, with
/// the spool's new length as the delivery's `reach`: spool order is
/// hand-off order, so a rebuild that re-reads the spool up to a taken
/// length holds exactly the POSTs handed off before it.
pub fn intake_body(
    body: &[u8],
    spool: &Spool,
    hand_off: impl FnOnce(Delivery),
) -> std::io::Result<IntakeOutcome> {
    let mut raw: Vec<Vec<u8>> = Vec::new();
    let mut rows = Vec::new();
    let rejected = ingest_slice(body, |_, bytes, row: LastMile| {
        raw.push(bytes.to_vec());
        rows.push(row);
    });
    let accepted = rows.len() as u64;
    if !rows.is_empty() {
        let mut file = spool.file.lock().expect("spool lock poisoned");
        for record in &raw {
            file.write_all(record)?;
            file.write_all(b"\n")?;
        }
        file.flush()?;
        let reach = file.metadata()?.len();
        hand_off(Delivery {
            rows,
            quarantined: Vec::new(),
            reach,
        });
    }
    Ok(IntakeOutcome { accepted, rejected })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lastmile_atlas::json::to_atlas_json;
    use lastmile_atlas::{Hop, ProbeId, Reply, TracerouteResult};
    use lastmile_timebase::UnixTime;

    /// One valid Atlas traceroute line (no newline) from `probe`.
    pub(crate) fn record(probe: u32) -> String {
        let tr = TracerouteResult {
            probe: ProbeId(probe),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(1000 + i64::from(probe)),
            dst: "20.9.9.9".parse().unwrap(),
            src: "192.168.1.10".parse().unwrap(),
            hops: vec![Hop {
                hop: 1,
                replies: vec![Reply::answered("192.168.1.1".parse().unwrap(), 1.25)],
            }],
        };
        to_atlas_json(&tr, "20.0.0.1".parse().unwrap())
    }

    fn temp_spool(tag: &str) -> (Spool, PathBuf) {
        let path =
            std::env::temp_dir().join(format!("lastmile-spool-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        (Spool::open(&path).unwrap(), path)
    }

    #[test]
    fn accepted_records_spool_verbatim_rejects_carry_taxonomy() {
        let (spool, path) = temp_spool("mixed");
        let body = format!("{}\n{{\"bad\":1}}\nnot json\n{}\n", record(1), record(2));
        let mut handed = Vec::new();
        let outcome = intake_body(body.as_bytes(), &spool, |d| handed.push(d)).unwrap();
        assert_eq!(outcome.accepted, 2);
        let probes: Vec<ProbeId> = handed[0].rows.iter().map(|r| r.probe).collect();
        assert_eq!(probes, vec![ProbeId(1), ProbeId(2)]);
        assert_eq!(outcome.rejected.len(), 2);
        assert!(outcome.rejected.iter().all(|q| q.kind.name() == "json"));
        // The spool holds exactly the accepted records, newline-
        // terminated, in order — a valid JSON Lines corpus fragment.
        let spooled = std::fs::read_to_string(&path).unwrap();
        assert_eq!(spooled, format!("{}\n{}\n", record(1), record(2)));
        // The hand-off reaches the end of the spool it was appended to.
        assert_eq!(handed[0].reach, spooled.len() as u64);
        // A second batch appends.
        let outcome = intake_body(format!("{}\n", record(3)).as_bytes(), &spool, |d| {
            handed.push(d)
        })
        .unwrap();
        assert_eq!(outcome.accepted, 1);
        let spooled = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            spooled,
            format!("{}\n{}\n{}\n", record(1), record(2), record(3))
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn all_rejected_body_spools_nothing() {
        let (spool, path) = temp_spool("rejected");
        let outcome = intake_body(b"junk\nmore junk\n", &spool, |_| {
            panic!("nothing accepted, nothing handed off")
        })
        .unwrap();
        assert_eq!(outcome.accepted, 0);
        assert_eq!(outcome.rejected.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_file(&path);
    }
}
