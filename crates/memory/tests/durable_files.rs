//! The five on-disk formats the stack writes: the evaluation-cache store,
//! the cross-session memory store, session checkpoints, the drain's
//! checkpoint log and flight-recorder dumps. Each is saved from a fixed
//! input and pinned to the FNV-1a 64 of its bytes, so a refactor of the
//! write path cannot move a byte unseen. Each loader is then fed torn and
//! mutated copies of its file and must answer `Ok` or `Err`, never panic.
//! `relm-memory` is the lowest crate that links all five. No test here can
//! cut the power: that `write_atomic` fsyncs the file and its directory is
//! held by reading its code, not by a test.

use relm_app::Engine;
use relm_cluster::ClusterSpec;
use relm_common::hash::fnv1a64;
use relm_common::{Mem, MemoryConfig, Rng};
use relm_evalcache::{store, EvalCache, KeyBuilder};
use relm_memory::{DigestObs, MemoryStore, SessionDigest, DIGEST_VERSION};
use relm_obs::{read_dump, save_dump, FieldValue, FlightDump, FlightEvent, Obs, SpanRecord};
use relm_profile::DerivedStats;
use relm_tune::{SessionCheckpoint, TuningEnv};
use relm_workloads::{max_resource_allocation, wordcount};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// FNV-1a 64 of each saved file, recorded before the formats shared one
/// write path. The checkpoint's pin was recorded again for its version 2,
/// which adds the checksummed header, the Table-6 aggregate and the
/// cache-hit count; the two keyed stores' pins for their versions 3 and
/// 2, whose record checksums cover the key.
const EVALCACHE_FNV: u64 = 0x2dff_45e9_7d58_03b0;
const MEMORY_FNV: u64 = 0x232b_b733_8142_1b8e;
const CHECKPOINT_FNV: u64 = 0x955b_a147_e798_de8e;
const FLIGHT_DUMP_FNV: u64 = 0x6c07_844d_6c05_5e0a;
/// Recorded when the drain's checkpoint log was introduced.
const CHECKPOINT_LOG_FNV: u64 = 0x9078_9acd_442d_790b;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relm-durable-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The evaluation cache's own `sample_cache()`: five entries keyed by `n`.
fn eval_cache() -> EvalCache<Vec<f64>> {
    let cache = EvalCache::new();
    for n in 0..5u64 {
        let key = KeyBuilder::new("t").field("n", &n).finish();
        cache.insert(key, vec![n as f64, 0.5]);
    }
    cache
}

fn config(containers_per_node: u32, task_concurrency: u32) -> MemoryConfig {
    MemoryConfig {
        containers_per_node,
        heap: Mem::mb(2202.0),
        task_concurrency,
        cache_fraction: 0.4,
        shuffle_fraction: 0.1,
        new_ratio: 5,
        survivor_ratio: 8,
    }
}

/// Two hand-built digests: one fingerprinted, one whose every run aborted.
fn memory_store() -> MemoryStore {
    let mut store = MemoryStore::new();
    store.ingest(SessionDigest {
        version: DIGEST_VERSION,
        workload: "wordcount".into(),
        base_seed: 7,
        evaluations: 2,
        profiled: 1,
        stats: Some(DerivedStats {
            containers_per_node: 2,
            heap: Mem::mb(2202.0),
            cpu_avg: 61.5,
            disk_avg: 12.25,
            m_i: Mem::mb(210.0),
            m_c: Mem::mb(640.5),
            m_s: Mem::mb(96.0),
            m_u: Mem::mb(402.75),
            p: 3,
            h: 0.875,
            s: 0.0,
            m_u_from_full_gc: true,
        }),
        observations: vec![
            DigestObs {
                config: config(2, 3),
                score_mins: 4.5,
                censored: false,
            },
            DigestObs {
                config: config(4, 1),
                score_mins: 18.0,
                censored: true,
            },
        ],
    });
    store.ingest(SessionDigest {
        version: DIGEST_VERSION,
        workload: "kmeans".into(),
        base_seed: 11,
        evaluations: 1,
        profiled: 0,
        stats: None,
        observations: vec![DigestObs {
            config: config(1, 6),
            score_mins: 30.0,
            censored: true,
        }],
    });
    store
}

/// A checkpoint of a one-evaluation WordCount session at seed 7.
fn checkpoint() -> SessionCheckpoint {
    let cluster = ClusterSpec::cluster_a();
    let mut env = TuningEnv::new(Engine::new(cluster.clone()), wordcount(), 7);
    let cfg = max_resource_allocation(&cluster, env.app());
    env.evaluate(&cfg);
    SessionCheckpoint::capture(&env)
}

/// A drain log of two sessions: [`checkpoint`]'s, and one that has run
/// nothing yet.
fn checkpoint_log() -> Vec<(String, SessionCheckpoint)> {
    let fresh = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), wordcount(), 11);
    vec![
        ("s-0001".into(), checkpoint()),
        ("s-0002".into(), SessionCheckpoint::capture(&fresh)),
    ]
}

/// A hand-built dump: one protocol event (with multi-byte text) and one
/// span carrying every field type.
fn flight_dump() -> FlightDump {
    FlightDump {
        session: "s-0001".into(),
        reason: "drain".into(),
        dropped: 3,
        events: vec![
            FlightEvent::Protocol {
                trace: 42,
                event: "step_auto".into(),
                at_us: 1_250,
                detail: "queue position 2 — café".into(),
            },
            FlightEvent::Span(SpanRecord {
                id: 9,
                parent: Some(4),
                trace: Some(42),
                name: "serve.evaluate".into(),
                start_us: 1_300,
                end_us: 2_875,
                fields: vec![
                    ("score_mins".into(), FieldValue::F64(4.5)),
                    ("seed".into(), FieldValue::U64(7)),
                    ("delta".into(), FieldValue::I64(-2)),
                    ("aborted".into(), FieldValue::Bool(false)),
                    ("cause".into(), FieldValue::Str("none".into())),
                ],
            }),
        ],
    }
}

#[test]
fn saved_files_keep_their_bytes() {
    let dir = temp_dir("pins");
    let cache_path = dir.join("cache.jsonl");
    store::save(&eval_cache(), &cache_path).unwrap();
    let memory_path = dir.join("memory.jsonl");
    memory_store().save(&memory_path).unwrap();
    let ckpt_path = dir.join("s-0001.ckpt.json");
    checkpoint().save(&ckpt_path).unwrap();
    let log_path = dir.join("drain.ckpt.jsonl");
    SessionCheckpoint::save_log(&log_path, &checkpoint_log()).unwrap();
    let dump_path = save_dump(dir.join("flightrec"), &flight_dump()).unwrap();

    let moved: Vec<String> = [
        ("evalcache store", cache_path, EVALCACHE_FNV),
        ("memory store", memory_path, MEMORY_FNV),
        ("checkpoint", ckpt_path, CHECKPOINT_FNV),
        ("checkpoint log", log_path, CHECKPOINT_LOG_FNV),
        ("flight dump", dump_path, FLIGHT_DUMP_FNV),
    ]
    .into_iter()
    .filter_map(|(format, path, want)| {
        let got = fnv1a64(&std::fs::read(&path).unwrap());
        (got != want).then(|| format!("{format}: fnv1a64 = {got:#018x}, pinned {want:#018x}"))
    })
    .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        moved.is_empty(),
        "saved bytes changed:\n{}",
        moved.join("\n")
    );
}

/// Characters a damaged file is most likely to trip a parser on: JSON
/// structure, escape and number syntax, and multi-byte chars that shift
/// char boundaries.
const STRUCTURAL: [&str; 17] = [
    "\"", "\\", "u", "{", "}", "[", "]", ",", ":", "0", "-", "e", ".", "é", "€", "𝄞", "\u{0}",
];

/// Seeded single-character mutations loaded per file.
const MUTATIONS: usize = 400;

/// Every truncation of `bytes` (torn writes, cut mid-char included), then
/// a seeded sample of substitutions and insertions of [`STRUCTURAL`]
/// characters anywhere in the file, header included.
fn damaged_copies(bytes: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let text = std::str::from_utf8(bytes).unwrap();
    let mut copies: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    let boundaries: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let mut rng = Rng::new(seed);
    for _ in 0..MUTATIONS {
        let at = boundaries[rng.below(boundaries.len())];
        let with = STRUCTURAL[rng.below(STRUCTURAL.len())];
        let rest = match text[at..].chars().next() {
            // Substitute the char at `at`, or insert before it.
            Some(c) if rng.chance(0.5) => &text[at + c.len_utf8()..],
            _ => &text[at..],
        };
        copies.push(format!("{}{with}{rest}", &text[..at]).into_bytes());
    }
    copies
}

/// Writes each damaged copy of the file at `path` over it and loads it.
/// No load may panic; `accept` checks every load that succeeds, given the
/// bytes it came from. Returns how many copies loaded.
fn load_damaged<T>(
    path: &Path,
    seed: u64,
    load: impl Fn(&Path) -> io::Result<T>,
    accept: impl Fn(&[u8], T),
) -> usize {
    let saved = std::fs::read(path).unwrap();
    let mut loaded = 0;
    for copy in damaged_copies(&saved, seed) {
        std::fs::write(path, &copy).unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| load(path)));
        let text = String::from_utf8_lossy(&copy);
        match result {
            Err(_) => panic!("loading {} panicked on {text:?}", path.display()),
            Ok(Ok(value)) => {
                accept(&copy, value);
                loaded += 1;
            }
            Ok(Err(_)) => {}
        }
    }
    loaded
}

/// Torn and mutated files load as `Ok` or `Err`, never a panic. Whatever
/// loads from a format carries values the save wrote (every format is
/// checksummed), and the memory store counts every entry line it drops in
/// `skipped()`.
#[test]
fn torn_and_mutated_files_never_panic() {
    let dir = temp_dir("damage");

    let cache = eval_cache();
    let saved_pairs: Vec<(String, Vec<f64>)> = cache
        .entries()
        .iter()
        .map(|(k, v)| (k.hex(), v.to_vec()))
        .collect();
    let cache_path = dir.join("cache.jsonl");
    store::save(&cache, &cache_path).unwrap();
    let loaded = load_damaged(&cache_path, 1, store::read::<Vec<f64>>, |_, entries| {
        for (key, value) in entries {
            let pair = (key.hex(), value);
            assert!(saved_pairs.contains(&pair), "loaded {pair:?}");
        }
    });
    assert!(loaded > 0, "some truncations end on a line boundary");

    let memory = memory_store();
    let saved_pairs: Vec<(String, SessionDigest)> = memory
        .sessions()
        .map(|(k, d)| (k.to_string(), d.clone()))
        .collect();
    let memory_path = dir.join("memory.jsonl");
    memory.save(&memory_path).unwrap();
    let loaded = load_damaged(
        &memory_path,
        2,
        |path| MemoryStore::load(path, Obs::disabled()),
        |bytes, store| {
            for (key, digest) in store.sessions() {
                let pair = (key.to_string(), digest.clone());
                assert!(saved_pairs.contains(&pair), "loaded {pair:?}");
            }
            let text = String::from_utf8_lossy(bytes);
            let entry_lines = text.lines().skip(1).filter(|l| !l.trim().is_empty());
            assert_eq!(
                store.len() as u64 + store.skipped(),
                entry_lines.count() as u64,
                "every entry line loads or is skipped: {text:?}"
            );
        },
    );
    assert!(loaded > 0, "damaged entry lines are skipped, not fatal");

    let ckpt = checkpoint();
    let ckpt_path = dir.join("s-0001.ckpt.json");
    ckpt.save(&ckpt_path).unwrap();
    let loaded = load_damaged(&ckpt_path, 3, SessionCheckpoint::load, |_, back| {
        assert_eq!(back, ckpt)
    });
    assert!(
        loaded > 0,
        "a checkpoint cut after its payload still verifies"
    );

    // The log verifies as a whole: a copy cut at a record boundary, or
    // with a damaged name, loads as `Err`, never as fewer or other sessions.
    let sessions = checkpoint_log();
    let log_path = dir.join("drain.ckpt.jsonl");
    SessionCheckpoint::save_log(&log_path, &sessions).unwrap();
    let loaded = load_damaged(&log_path, 5, SessionCheckpoint::load_log, |_, back| {
        assert_eq!(back, sessions)
    });
    assert!(
        loaded > 0,
        "a log cut after its last payload still verifies"
    );

    let dump = flight_dump();
    let dump_path = save_dump(dir.join("flightrec"), &dump).unwrap();
    let loaded = load_damaged(
        &dump_path,
        4,
        |path| read_dump(path),
        |_, back| assert_eq!(back, dump),
    );
    assert!(loaded > 0, "a dump cut after its payload still verifies");

    std::fs::remove_dir_all(&dir).ok();
}
