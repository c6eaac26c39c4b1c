//! The CLI refuses a journal it cannot build a detector session from, or
//! cannot read at all, with exit 1 and a message naming why, never a
//! panic: `detect --replay`, `journal info` and `journal transcode` alike.

use manet_guard::obs::{JournalFormat, ObsJournal, ObsMeta};
use std::process::Command;

/// Binary journals whose headers describe no detector session (the cases
/// of mg-obs's `hostile_headers_are_refused`), each paired with the word
/// its refusal must name, and the JSONL export of a valid header, which
/// the reader refuses for its missing magic.
fn refused() -> Vec<(Vec<u8>, &'static str)> {
    let good = ObsMeta {
        tagged: 3,
        vantages: vec![1, 5],
        pair_distance: 240.0,
        seed: 7,
        params: vec![],
    };
    let hostile = [
        ObsMeta {
            pair_distance: -5.0,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NAN,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NEG_INFINITY,
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![],
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![1, 3, 5],
            ..good.clone()
        },
    ];
    let mut cases: Vec<_> = hostile
        .into_iter()
        .map(|bad| (ObsJournal::new(bad).encode(JournalFormat::Binary), "header"))
        .collect();
    cases.push((
        ObsJournal::new(good).encode(JournalFormat::Jsonl),
        "MGOBSJ magic",
    ));
    cases
}

#[test]
fn unreadable_journals_exit_1_naming_why() {
    let dir = std::env::temp_dir().join(format!("mg-hostile-journals-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (bytes, why)) in refused().into_iter().enumerate() {
        let path = dir.join(format!("case-{i}"));
        std::fs::write(&path, bytes).unwrap();
        let file = path.to_str().unwrap();
        let out_file = dir.join(format!("case-{i}.out"));
        let out_file = out_file.to_str().unwrap();
        for args in [
            &["detect", "--replay", file][..],
            &["journal", "info", file],
            &["journal", "transcode", file, out_file],
        ] {
            let out = Command::new(env!("CARGO_BIN_EXE_manet-guard"))
                .args(args)
                .output()
                .expect("the CLI runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "case {i} {args:?}: {stderr}");
            assert!(stderr.contains(why), "case {i} {args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
