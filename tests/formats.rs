//! Byte-exact goldens of every framed format the system writes: wire
//! and control frames, checkpoint frames and generation files,
//! postmortem bundles, WAL records and session snapshots.
//!
//! Each sample below is encoded and compared byte for byte against
//! `tests/data/formats.txt`, and the golden bytes are decoded back to
//! the sample. The golden file was written by an earlier build, so
//! these tests fail if a codec change alters a single byte of a format
//! a previous build left on disk or on the wire — or stops reading it.
//! `cargo test --test formats -- --ignored regenerate_format_goldens`
//! rewrites the file; run it only when a format change is intended,
//! and bump that format's version or magic in the same change.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use bsml_bsp::checkpoint::{CheckpointStore, FileStore, RankFrame, SyncOutcome};
use bsml_bsp::faults::{Fault, FaultKind};
use bsml_bsp::wire::CtlMsg;
use bsml_bsp::{BspParams, FlightLog, Frame, FramePayload, PostmortemBundle, RankFlightLog};
use bsml_core::{Session, SessionSnapshot};
use bsml_eval::PortableValue;
use bsml_obs::{FlightEvent, TimedFlightEvent};
use bsml_serve::{frame_record, scan_records, WalRecord};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/formats.txt");

fn frames() -> Vec<(&'static str, Frame)> {
    vec![
        (
            "frame_put",
            Frame {
                from: 3,
                superstep: 11,
                seq: 207,
                lamport: 1009,
                payload: FramePayload::Put(PortableValue::Pair(
                    Box::new(PortableValue::Int(-42)),
                    Box::new(PortableValue::Vector(vec![
                        PortableValue::Inl(Box::new(PortableValue::Unit)),
                        PortableValue::Cons(
                            Box::new(PortableValue::NoComm),
                            Box::new(PortableValue::Nil),
                        ),
                        PortableValue::Inr(Box::new(PortableValue::Bool(true))),
                    ])),
                )),
            },
        ),
        (
            "frame_ifat",
            Frame {
                from: 0,
                superstep: 4,
                seq: 9,
                lamport: 77,
                payload: FramePayload::IfAt(true),
            },
        ),
        (
            "frame_ack",
            Frame {
                from: 15,
                superstep: u64::MAX,
                seq: 1 << 40,
                lamport: 5,
                payload: FramePayload::Ack,
            },
        ),
    ]
}

fn ctl_msgs() -> Vec<(&'static str, CtlMsg)> {
    vec![
        ("ctl_hello", CtlMsg::hello(0xdead_beef_f00d, 3, 8)),
        (
            "ctl_welcome",
            CtlMsg::Welcome {
                program: "put (mkpar (fun i -> fun d -> i))".to_string(),
                fuel: 1_000_000,
                barrier_timeout_ms: 30_000,
                mailbox_capacity: 256,
                retransmit_after: 25,
                retransmit_budget: 600,
                poll_sleep_us: 100,
                checkpoint_interval: 2,
                flight_capacity: 4096,
                heartbeat_ms: 500,
                link_grace_ms: 5000,
                attempt: 1,
                faults: vec![
                    Fault {
                        kind: FaultKind::Crash {
                            rank: 1,
                            superstep: 3,
                        },
                        attempt: 0,
                    },
                    Fault {
                        kind: FaultKind::Stall {
                            rank: 0,
                            superstep: 2,
                            delay: Duration::from_millis(7),
                        },
                        attempt: 2,
                    },
                ],
                resume_frame: Some(vec![1, 2, 3, 4]),
            },
        ),
    ]
}

fn rank_frame(rank: usize) -> RankFrame {
    RankFrame {
        fingerprint: 0xF00D,
        rank,
        superstep: 2,
        fuel_left: 9_000 + rank as u64,
        sent_words: 12,
        received_words: 8,
        puts: 1,
        ifats: 1,
        outcomes: vec![
            SyncOutcome::Put {
                delivered: vec![
                    PortableValue::Int(rank as i64),
                    PortableValue::Pair(
                        Box::new(PortableValue::Bool(true)),
                        Box::new(PortableValue::Nil),
                    ),
                ],
            },
            SyncOutcome::IfAt { chosen: false },
        ],
    }
}

fn bundle() -> PostmortemBundle {
    let event = |lamport, event| TimedFlightEvent { lamport, event };
    PostmortemBundle::new(
        2,
        1,
        "injected fault at rank 1, superstep 1".to_string(),
        Some(1),
        Some(1),
        FlightLog {
            ranks: vec![
                RankFlightLog {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        event(
                            1,
                            FlightEvent::FrameSent {
                                to: 1,
                                seq: 0,
                                superstep: 0,
                                bytes: 49,
                            },
                        ),
                        event(2, FlightEvent::BarrierEnter { superstep: 0 }),
                        event(
                            3,
                            FlightEvent::SuperstepEnd {
                                superstep: 0,
                                work: 40,
                                sent_words: 1,
                                received_words: 1,
                            },
                        ),
                    ],
                },
                RankFlightLog {
                    rank: 1,
                    dropped: 4,
                    events: vec![
                        event(
                            5,
                            FlightEvent::FrameReceived {
                                from: 0,
                                seq: 0,
                                superstep: 0,
                                sent_lamport: 1,
                            },
                        ),
                        event(
                            6,
                            FlightEvent::FaultFired {
                                superstep: 1,
                                kind: 0,
                            },
                        ),
                    ],
                },
            ],
        },
    )
}

fn wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Header {
            version: 1,
            tenant: "alice".to_string(),
        },
        WalRecord::Snapshot {
            seq: 3,
            state: vec![7, 7, 7],
        },
        WalRecord::Commit {
            seq: 4,
            source: "let x = 40 + 2 ;;".to_string(),
        },
    ]
}

fn wal_log() -> Vec<u8> {
    wal_records()
        .iter()
        .flat_map(|rec| frame_record(&rec.encode()))
        .collect()
}

fn session_snapshot() -> SessionSnapshot {
    let mut session = Session::new(BspParams::new(2, 1, 10));
    session
        .load(
            "let x = 40 + 2 ;; \
             let v = mkpar (fun i -> (i, true)) ;; \
             let cell = ref [1; 2] ;; \
             let id = fun y -> y ;;",
        )
        .expect("the snapshot program runs");
    session.snapshot()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bsml-formats-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A committed two-rank generation file, as `FileStore` writes it.
fn generation_file() -> Vec<u8> {
    let dir = scratch_dir("write");
    let store = FileStore::open(&dir).expect("open store");
    store.stage(&rank_frame(0)).expect("stage");
    store.stage(&rank_frame(1)).expect("stage");
    store.commit(2, 2).expect("commit");
    let bytes = fs::read(store.generation_path(2)).expect("read generation");
    let _ = fs::remove_dir_all(&dir);
    bytes
}

/// Every sample, encoded by the current build.
fn encoded() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&str, Vec<u8>)> = Vec::new();
    out.extend(frames().into_iter().map(|(n, f)| (n, f.encode())));
    out.extend(ctl_msgs().into_iter().map(|(n, m)| (n, m.encode())));
    out.push(("rank_frame", rank_frame(1).encode()));
    out.push(("generation_file", generation_file()));
    out.push(("postmortem_bundle", bundle().encode()));
    out.push(("wal_log", wal_log()));
    out.push(("session_snapshot", session_snapshot().to_bytes()));
    out
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn goldens() -> BTreeMap<String, Vec<u8>> {
    fs::read_to_string(GOLDEN)
        .expect("tests/data/formats.txt")
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` line");
            (name.to_string(), from_hex(hex))
        })
        .collect()
}

fn golden(name: &str) -> Vec<u8> {
    goldens()
        .remove(name)
        .unwrap_or_else(|| panic!("no golden for {name}"))
}

#[test]
fn every_format_encodes_to_its_golden_bytes() {
    let goldens = goldens();
    let samples = encoded();
    assert_eq!(goldens.len(), samples.len(), "one golden per sample");
    for (name, bytes) in samples {
        let want = goldens
            .get(name)
            .unwrap_or_else(|| panic!("no golden for {name}"));
        assert_eq!(
            to_hex(&bytes),
            to_hex(want),
            "{name}: encoding differs from the golden bytes"
        );
    }
}

#[test]
fn golden_frames_and_ctl_messages_decode_to_their_samples() {
    for (name, frame) in frames() {
        assert_eq!(Frame::decode(&golden(name)), Ok(frame), "{name}");
    }
    for (name, msg) in ctl_msgs() {
        assert_eq!(CtlMsg::decode(&golden(name)), Ok(msg), "{name}");
    }
}

#[test]
fn golden_checkpoint_bytes_load() {
    assert_eq!(RankFrame::decode(&golden("rank_frame")), Ok(rank_frame(1)));
    let dir = scratch_dir("read");
    let store = FileStore::open(&dir).expect("open store");
    fs::write(store.generation_path(2), golden("generation_file")).expect("write golden");
    assert_eq!(store.generations(), vec![2]);
    assert_eq!(
        store.load(2, 2, 0xF00D).expect("golden generation loads"),
        vec![rank_frame(0), rank_frame(1)]
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn golden_postmortem_bundle_decodes() {
    let decoded = PostmortemBundle::decode(&golden("postmortem_bundle")).expect("decodes");
    assert_eq!(decoded, bundle());
}

#[test]
fn golden_wal_log_scans_clean() {
    let bytes = golden("wal_log");
    let (records, good, torn) = scan_records(&bytes);
    assert_eq!(records, wal_records());
    assert_eq!(good, bytes.len());
    assert!(!torn);
}

#[test]
fn golden_session_snapshot_restores() {
    let bytes = golden("session_snapshot");
    let snapshot = SessionSnapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(snapshot.to_bytes(), bytes, "re-encodes to the same bytes");
    let mut session = Session::new(BspParams::new(2, 1, 10));
    session.restore(&snapshot);
    let mut oracle = Session::new(BspParams::new(2, 1, 10));
    oracle.restore(&session_snapshot());
    assert_eq!(session.render_bindings(), oracle.render_bindings());
}

#[test]
#[ignore = "rewrites tests/data/formats.txt; run only for an intended format change"]
fn regenerate_format_goldens() {
    let mut text = String::from(
        "# Golden bytes of every framed format (see tests/formats.rs).\n\
         # One `name hex` line per sample.\n",
    );
    for (name, bytes) in encoded() {
        text.push_str(&format!("{name} {}\n", to_hex(&bytes)));
    }
    fs::write(GOLDEN, text).expect("write goldens");
}
