//! Fixtures shared by more than one end-to-end test file.

use std::path::{Path, PathBuf};

/// A corpus reproducing the per-traceroute-attribution hazard, with its
/// BGP table: probe 1's edge hop alternates between two ASNs (its
/// traceroutes legitimately split across AS pipelines), probe 2 is
/// single-homed. Eight 30-minute bins of three traceroutes each per probe
/// (48 records), inside the aligned window `0..86400`. Returns the
/// traceroute and table paths.
pub fn write_multi_asn_fixture(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let bgp = dir.join("bgp.csv");
    std::fs::write(&bgp, "20.0.0.0/16,64500\n20.1.0.0/16,64501\n").unwrap();

    let mut lines = String::new();
    let mut tr_line = |prb: u32, ts: i64, edge: &str, rtt: f64| {
        lines.push_str(&format!(
            r#"{{"fw":5020,"af":4,"dst_addr":"20.99.0.1","src_addr":"192.168.1.10","from":"{edge}","msm_id":5001,"prb_id":{prb},"timestamp":{ts},"proto":"ICMP","type":"traceroute","result":[{{"hop":1,"result":[{{"from":"192.168.1.1","rtt":1.0}}]}},{{"hop":2,"result":[{{"from":"{edge}","rtt":{rtt}}}]}}]}}"#,
        ));
        lines.push('\n');
    };
    for bin in 0..8i64 {
        for k in 0..3i64 {
            let ts = bin * 1800 + k * 600;
            let rtt = 10.0 + bin as f64;
            let edge1 = if k % 2 == 0 { "20.0.0.1" } else { "20.1.0.1" };
            tr_line(1, ts, edge1, rtt);
            tr_line(2, ts, "20.0.0.9", rtt + 0.5);
        }
    }
    let trs = dir.join("traceroutes.jsonl");
    std::fs::write(&trs, lines).unwrap();
    (trs, bgp)
}
