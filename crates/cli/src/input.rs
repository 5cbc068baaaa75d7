//! Input handling: streaming Atlas-format traceroutes and probe metadata
//! from disk.
//!
//! Traceroute decode goes through `lastmile-ingest` (one framing loop,
//! decoding and folding inline at `--ingest-threads 1` or feeding a
//! worker pool over a bounded queue); this module owns the flag plumbing
//! (`--ingest-threads`, `--quarantine`) and the adapters between
//! [`IngestSummary`] and the CLI's metrics and triage outputs.

use crate::Flags;
use lastmile_repro::atlas::framing::{DocSplitter, Frame, FrameKind};
use lastmile_repro::atlas::{Probe, ProbeId};
use lastmile_repro::ingest::{IngestOptions, IngestSummary, Quarantined};
use lastmile_repro::obs::{IngestStats, QuarantineStats};
use lastmile_repro::prefix::Asn;
use lastmile_repro::runner::worker_count;
use lastmile_repro::timebase::{TimeRange, UnixTime};
use std::collections::BTreeMap;
use std::io::Write;

/// Ingest tuning from the command line: `--ingest-threads N` (0 = one
/// worker per core, the default; 1 decodes inline), resolved here, once,
/// by [`worker_count`].
pub fn ingest_options(flags: &Flags) -> Result<IngestOptions, String> {
    Ok(IngestOptions {
        threads: worker_count(flags.thread_count("ingest-threads")?.unwrap_or(0)),
        ..IngestOptions::default()
    })
}

/// Map an ingest summary onto an obs ingest delta.
pub fn ingest_traffic(summary: &IngestSummary) -> IngestStats {
    use lastmile_repro::ingest::QuarantineKind;
    IngestStats {
        bytes_read: summary.bytes_read,
        records_decoded: summary.parsed,
        quarantined: QuarantineStats {
            framing: summary.quarantined_of(QuarantineKind::Framing),
            json: summary.quarantined_of(QuarantineKind::Json),
            model: summary.quarantined_of(QuarantineKind::Model),
            worker_panic: summary.quarantined_of(QuarantineKind::WorkerPanic),
        },
        frame_nanos: summary.frame_nanos,
        decode_nanos: summary.decode_nanos,
        fold_nanos: summary.fold_nanos,
        decode_fallbacks: summary.decode_fallbacks,
        wall_nanos: summary.wall_nanos,
        queue_max_depth: summary.queue_max_depth,
        ..IngestStats::default()
    }
}

/// Create `path`'s missing parent directories so an output flag pointed
/// into a fresh directory (`--quarantine out/triage.jsonl`) just works —
/// matching the experiments harness's `write_csv` behaviour. The error
/// names both the flag and the directory that could not be created.
pub fn create_parent_dirs(flag: &str, path: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent).map_err(|e| {
            format!(
                "cannot create directory {} for --{flag} {path}: {e}",
                parent.display()
            )
        })?;
    }
    Ok(())
}

/// One quarantined record as a document: its byte offset, typed kind,
/// error detail, and the raw record bytes (lossily decoded). The
/// `--quarantine` dump and a rejected POST's `rejected` list both carry
/// it.
pub fn quarantine_doc(q: &Quarantined) -> serde_json::Value {
    serde_json::json!({
        "offset": q.offset,
        "kind": q.kind.name(),
        "detail": q.detail,
        "record": String::from_utf8_lossy(&q.record).into_owned(),
    })
}

/// Write quarantined records as a JSON Lines triage dump, one
/// [`quarantine_doc`] per line. Records arrive sorted by offset within
/// each file, files in corpus order, so the dump is deterministic for a
/// given input.
pub fn write_quarantine<'q>(
    path: &str,
    quarantined: impl IntoIterator<Item = &'q Quarantined>,
) -> Result<(), String> {
    create_parent_dirs("quarantine", path)?;
    let file =
        std::fs::File::create(path).map_err(|e| format!("create --quarantine {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for q in quarantined {
        writeln!(w, "{}", quarantine_doc(q))
            .map_err(|e| format!("write --quarantine {path}: {e}"))?;
    }
    w.flush()
        .map_err(|e| format!("write --quarantine {path}: {e}"))?;
    Ok(())
}

/// Load probe metadata (a JSON array of [`Probe`] objects).
///
/// Errors are located: the failing element's byte offset and line in the
/// file are reported alongside the parse error, so a bad probe in a
/// large metadata dump can be found without bisecting.
pub fn load_probes(path: &str) -> Result<Vec<Probe>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut probes: Vec<Probe> = Vec::new();
    let mut first_err: Option<String> = None;
    let locate = |offset: u64| {
        let upto = &bytes[..(offset as usize).min(bytes.len())];
        let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
        format!("{path}:{line} (byte {offset})")
    };
    let mut emit = |frame: Frame<'_>| {
        if first_err.is_some() {
            return;
        }
        match frame {
            Frame::Doc { offset, bytes } => {
                match std::str::from_utf8(bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str::<Probe>(text).map_err(|e| e.to_string()))
                {
                    Ok(p) => probes.push(p),
                    Err(e) => first_err = Some(format!("parse {}: {e}", locate(offset))),
                }
            }
            Frame::Junk { offset, reason, .. } => {
                first_err = Some(format!("parse {}: {reason}", locate(offset)));
            }
        }
    };
    let mut splitter = DocSplitter::new();
    splitter.feed(&bytes, &mut emit);
    let kind = splitter.kind();
    splitter.finish(&mut emit);
    if let Some(e) = first_err {
        return Err(e);
    }
    if kind.is_some() && kind != Some(FrameKind::Array) {
        return Err(format!("parse {path}: expected a JSON array of probes"));
    }
    Ok(probes)
}

/// Group probes by ASN, excluding anchors (the paper's default view).
pub fn group_by_asn(probes: &[Probe], anchors_only: bool) -> BTreeMap<Asn, Vec<ProbeId>> {
    let mut out: BTreeMap<Asn, Vec<ProbeId>> = BTreeMap::new();
    for p in probes {
        if p.is_anchor == anchors_only {
            out.entry(p.asn).or_default().push(p.id);
        }
    }
    out
}

/// The window `--start` and `--end` give when both are present, checked
/// before any data is read: an empty one fails before the corpus is
/// opened. `None` when a bound is left to the data span.
pub fn flag_window(flags: &Flags) -> Result<Option<TimeRange>, String> {
    match (flags.parsed::<i64>("start")?, flags.parsed::<i64>("end")?) {
        (Some(start), Some(end)) => resolve_window(Some(start), Some(end), None, None).map(Some),
        _ => Ok(None),
    }
}

/// The analysis window from `--start`/`--end` flags, or the span of the
/// data itself when omitted.
pub fn resolve_window(
    start: Option<i64>,
    end: Option<i64>,
    data_min: Option<UnixTime>,
    data_max: Option<UnixTime>,
) -> Result<TimeRange, String> {
    let start = start
        .map(UnixTime::from_secs)
        .or(data_min)
        .ok_or("no traceroutes and no --start given")?;
    let end = end
        .map(UnixTime::from_secs)
        .or_else(|| data_max.map(|t| t + 1))
        .ok_or("no traceroutes and no --end given")?;
    if end <= start {
        return Err(format!(
            "empty window: {} .. {}",
            start.as_secs(),
            end.as_secs()
        ));
    }
    Ok(TimeRange::new(start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastmile_repro::atlas::{ProbeVersion, TracerouteResult};
    use lastmile_repro::ingest::ingest_file;

    fn probe(id: u32, asn: u32, anchor: bool) -> Probe {
        Probe {
            id: ProbeId(id),
            asn,
            country: "JP".into(),
            area: String::new(),
            is_anchor: anchor,
            version: ProbeVersion::V3,
            public_addr: "20.0.0.1".parse().unwrap(),
        }
    }

    #[test]
    fn grouping_excludes_anchors_by_default() {
        let probes = vec![probe(1, 10, false), probe(2, 10, true), probe(3, 20, false)];
        let groups = group_by_asn(&probes, false);
        assert_eq!(groups[&10], vec![ProbeId(1)]);
        assert_eq!(groups[&20], vec![ProbeId(3)]);
        let anchors = group_by_asn(&probes, true);
        assert_eq!(anchors[&10], vec![ProbeId(2)]);
        assert!(!anchors.contains_key(&20));
    }

    #[test]
    fn window_resolution() {
        let w = resolve_window(Some(100), Some(200), None, None).unwrap();
        assert_eq!(w.duration_secs(), 100);
        // Falls back to the data span (inclusive of the last instant).
        let w = resolve_window(
            None,
            None,
            Some(UnixTime::from_secs(10)),
            Some(UnixTime::from_secs(20)),
        )
        .unwrap();
        assert_eq!(w.start().as_secs(), 10);
        assert_eq!(w.end().as_secs(), 21);
        assert!(resolve_window(Some(5), Some(5), None, None).is_err());
        assert!(resolve_window(None, None, None, None).is_err());
    }

    #[test]
    fn streaming_jsonl_and_array() {
        use lastmile_repro::atlas::json::to_atlas_json;
        use lastmile_repro::atlas::{Hop, Reply};
        let tr = TracerouteResult {
            probe: ProbeId(5),
            msm_id: 5001,
            timestamp: UnixTime::from_secs(100),
            dst: "20.9.9.9".parse().unwrap(),
            src: "192.168.1.10".parse().unwrap(),
            hops: vec![Hop {
                hop: 1,
                replies: vec![Reply::answered("192.168.1.1".parse().unwrap(), 1.0)],
            }],
        };
        let json = to_atlas_json(&tr, "20.0.0.1".parse().unwrap());
        let dir = crate::Scratch::new("cli-test");

        let opts = IngestOptions::default();

        // JSON Lines with one garbage line.
        let jsonl = dir.join("trs.jsonl");
        std::fs::write(&jsonl, format!("{json}\nnot-json\n{json}\n")).unwrap();
        let mut count = 0;
        let s = ingest_file(jsonl.to_str().unwrap(), &opts, |_| count += 1).unwrap();
        assert_eq!((s.parsed, s.skipped(), count), (2, 1, 2));

        // Array form.
        let array = dir.join("trs.json");
        std::fs::write(&array, format!("[{json},{json},{json}]")).unwrap();
        let mut count = 0;
        let s = ingest_file(array.to_str().unwrap(), &opts, |_| count += 1).unwrap();
        assert_eq!((s.parsed, s.skipped(), count), (3, 0, 3));
    }

    #[test]
    fn ingest_options_read_the_flags() {
        let args: Vec<String> = ["--ingest-threads", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = crate::Flags::parse(&args).unwrap();
        let opts = ingest_options(&flags).unwrap();
        assert_eq!(opts.threads, 3);
        let flags = crate::Flags::parse(&[]).unwrap();
        let opts = ingest_options(&flags).unwrap();
        assert_eq!(opts.threads, worker_count(0), "default is one per core");
        let over = (lastmile_repro::runner::MAX_WORKERS + 1).to_string();
        let args = ["--ingest-threads".to_string(), over.clone()];
        let err = ingest_options(&crate::Flags::parse(&args).unwrap()).unwrap_err();
        assert!(
            err.starts_with(&format!("--ingest-threads {over} ")),
            "{err}"
        );
    }

    #[test]
    fn probe_errors_are_located() {
        let dir = crate::Scratch::new("cli-probe-test");
        let path = dir.join("probes.json");
        let good = serde_json::to_string(&probe(1, 10, false)).unwrap();
        std::fs::write(&path, format!("[\n{good},\n{{\"id\": \"oops\"}}\n]")).unwrap();
        let err = load_probes(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("probes.json:3"), "{err}");
        assert!(err.contains("byte"), "{err}");
        // A clean file still loads.
        std::fs::write(&path, format!("[{good}]")).unwrap();
        assert_eq!(load_probes(path.to_str().unwrap()).unwrap().len(), 1);
        // A non-array file is rejected.
        std::fs::write(&path, &good).unwrap();
        assert!(load_probes(path.to_str().unwrap())
            .unwrap_err()
            .contains("array"));
    }
}
