//! POST intake: validate a request body and spool accepted records.
//!
//! `POST /v1/traceroutes` bodies are framed and decoded to their
//! last-mile rows by [`lastmile_ingest::ingest_slice`] — the same
//! framing, decoder and quarantine taxonomy as batch ingest, verbatim. Accepted records are appended to
//! the **spool**: a JSON Lines file that is part of the daemon's union
//! corpus from startup, so every re-analysis (and any later cold
//! `classify` over corpus + spool) sees POSTed records exactly as
//! file-appended ones. Rejected records never touch the spool; they go
//! back to the client with their quarantine kind/detail.

use lastmile_atlas::{LastMile, ProbeId};
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

    /// Append each record as one newline-terminated line and flush.
    fn append_records(&self, records: &[&[u8]]) -> std::io::Result<()> {
        let mut file = self.file.lock().expect("spool lock poisoned");
        for record in records {
            file.write_all(record)?;
            file.write_all(b"\n")?;
        }
        file.flush()
    }
}

/// What one POST body produced.
pub struct IntakeOutcome {
    /// Records validated and spooled.
    pub accepted: u64,
    /// Probe of each accepted record (the caller invalidates their
    /// memoized series); may repeat.
    pub probes: Vec<ProbeId>,
    /// Records refused, with the batch-ingest quarantine taxonomy.
    pub rejected: Vec<Quarantined>,
}

/// Validate `body` and spool the accepted records. All-or-per-record:
/// each record stands alone (a bad line never blocks its neighbours),
/// exactly like batch ingest over a corrupted corpus. Nothing is
/// spooled if the write fails — the error propagates and the client
/// gets a 500 rather than a silently half-accepted batch.
pub fn intake_body(body: &[u8], spool: &Spool) -> std::io::Result<IntakeOutcome> {
    let mut raw: Vec<Vec<u8>> = Vec::new();
    let mut probes = Vec::new();
    let rejected = ingest_slice(body, |_, bytes, row: LastMile| {
        raw.push(bytes.to_vec());
        probes.push(row.probe);
    });
    if !raw.is_empty() {
        let slices: Vec<&[u8]> = raw.iter().map(|r| r.as_slice()).collect();
        spool.append_records(&slices)?;
    }
    Ok(IntakeOutcome {
        accepted: raw.len() as u64,
        probes,
        rejected,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lastmile_atlas::json::to_atlas_json;
    use lastmile_atlas::{Hop, Reply, TracerouteResult};
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
        let outcome = intake_body(body.as_bytes(), &spool).unwrap();
        assert_eq!(outcome.accepted, 2);
        assert_eq!(outcome.probes, vec![ProbeId(1), ProbeId(2)]);
        assert_eq!(outcome.rejected.len(), 2);
        assert!(outcome.rejected.iter().all(|q| q.kind.name() == "json"));
        // The spool holds exactly the accepted records, newline-
        // terminated, in order — a valid JSON Lines corpus fragment.
        let spooled = std::fs::read_to_string(&path).unwrap();
        assert_eq!(spooled, format!("{}\n{}\n", record(1), record(2)));
        // A second batch appends.
        let outcome = intake_body(format!("{}\n", record(3)).as_bytes(), &spool).unwrap();
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
        let outcome = intake_body(b"junk\nmore junk\n", &spool).unwrap();
        assert_eq!(outcome.accepted, 0);
        assert_eq!(outcome.rejected.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let _ = std::fs::remove_file(&path);
    }
}
