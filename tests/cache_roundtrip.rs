//! The result-cache contract: a cached report replays **bit-identically**
//! to the live run that produced it (both queue backends, serial and
//! partitioned), the key is stable under output knobs (trace, snapshot
//! path, threads) and distinct under anything that changes the simulated
//! world (seed, scale, routing, timing), and a damaged store degrades to
//! a miss — never to a failure, never to wrong data.

use std::path::{Path, PathBuf};

use dragonfly_interference::prelude::*;

use dfsim_core::cache::{encode_report, CACHE_HEADER};
use dfsim_topology::DragonflyParams;

/// A unique cache dir per test (tests run concurrently in one process).
fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfsim_cache_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec(routing: RoutingAlgo, cache_dir: &Path) -> ExperimentSpec {
    ExperimentSpec {
        params: DragonflyParams::tiny_72(),
        routings: vec![routing],
        scale: 2_048.0,
        seed: 7,
        cache: CacheMode::Dir(cache_dir.to_path_buf()),
        ..Default::default()
    }
}

fn workload() -> Workload {
    Workload::pairwise(AppKind::UR, Some(AppKind::CosmoFlow))
}

fn run(spec: &ExperimentSpec) -> RunHandle {
    Simulation::run_one(spec, workload()).expect("run succeeds")
}

/// The key `run` stores `spec` under: computed on the spec the session
/// actually runs, with the workload applied.
fn key_of(spec: &ExperimentSpec) -> CacheKey {
    cache_key(&spec.clone().with_workload(workload())).unwrap()
}

/// The headline guarantee, on every backend × partition combination the
/// engine supports: the second run is served from the cache and its report
/// encodes to the *same bytes* as the live one.
#[test]
fn cached_report_is_bit_identical_across_backends_and_partitions() {
    for (queue, tag) in [("heap", "bit_heap"), ("calendar", "bit_cal")] {
        for threads in [0usize, 2] {
            let dir = temp_cache(&format!("{tag}_{threads}"));
            let mut spec = tiny_spec(RoutingAlgo::UgalG, &dir);
            spec.queue = queue.parse().expect("queue kind parses");
            spec.threads = threads;

            let live = run(&spec);
            assert!(!live.cached, "{queue}/t{threads}: first run must be live");
            let replay = run(&spec);
            assert!(replay.cached, "{queue}/t{threads}: second run must hit the cache");
            assert_eq!(
                encode_report(&live.report),
                encode_report(&replay.report),
                "{queue}/t{threads}: cached report diverged from the live one"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Output knobs must not fracture the key: a run that also writes a trace
/// or uses a different thread count simulates the same world, so it must
/// hit the entry a bare run stored.
#[test]
fn key_is_stable_under_output_knobs() {
    let dir = temp_cache("stable");
    let spec = tiny_spec(RoutingAlgo::UgalG, &dir);
    assert!(!run(&spec).cached);

    let mut threads = spec.clone();
    threads.threads = 3;
    assert!(run(&threads).cached, "thread count must not change the key");

    // A traced run bypasses the cache read (the trace file must be
    // written), but the *key* it stores under is the bare run's.
    let trace_path = dir.join("probe.trace");
    let mut traced = spec.clone();
    traced.trace = Some(trace_path.clone());
    let h = run(&traced);
    assert!(!h.cached, "a traced run must execute live (the trace file is wanted)");
    let _ = std::fs::remove_file(&trace_path);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Anything that changes the simulated world must miss: seed, scale,
/// routing, and link timing each address a different entry.
#[test]
fn key_is_distinct_under_simulation_inputs() {
    let dir = temp_cache("distinct");
    let base = tiny_spec(RoutingAlgo::UgalG, &dir);
    assert!(!run(&base).cached);

    let mut seed = base.clone();
    seed.seed = 8;
    assert!(!run(&seed).cached, "seed must be part of the key");

    let mut scale = base.clone();
    scale.scale = 4_096.0;
    assert!(!run(&scale).cached, "scale must be part of the key");

    let routing = tiny_spec(RoutingAlgo::Minimal, &dir);
    assert!(!run(&routing).cached, "routing must be part of the key");

    let mut timing = base.clone();
    timing.timing.local_latency_ps *= 2;
    assert!(!run(&timing).cached, "link timing must be part of the key");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated or garbage entry is a *miss with a warning*: the run
/// simulates live, overwrites the bad entry, and the next lookup hits.
#[test]
fn corrupt_entries_degrade_to_misses() {
    let dir = temp_cache("corrupt");
    let spec = tiny_spec(RoutingAlgo::UgalG, &dir);
    assert!(!run(&spec).cached);

    let entry = only_entry(&dir);

    // Truncate to half: the decode fails mid-blob.
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
    assert!(!run(&spec).cached, "truncated entry must miss, not fail");
    assert!(run(&spec).cached, "the live run must have repaired the entry");

    // Pure garbage: not even the header parses.
    std::fs::write(&entry, b"not a cache entry at all").unwrap();
    assert!(!run(&spec).cached, "garbage entry must miss, not fail");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A future format version and a key/content mismatch (an entry renamed
/// onto the wrong address) are both rejected as misses by the strict
/// loader with named errors — and degrade to misses on the run path.
#[test]
fn version_bump_and_hash_mismatch_invalidate() {
    let dir = temp_cache("invalid");
    let spec = tiny_spec(RoutingAlgo::UgalG, &dir);
    assert!(!run(&spec).cached);
    let entry = only_entry(&dir);
    let cache = ResultCache::open(&spec.cache).unwrap().expect("cache is on");
    // The key is computed on the spec the session actually ran — with the
    // workload applied, exactly as `run` does.
    let workload = Workload::pairwise(AppKind::UR, Some(AppKind::CosmoFlow));
    let key = cache_key(&spec.clone().with_workload(workload.clone())).unwrap();

    // Strict load sees the entry as-is.
    assert!(cache.load(&key).unwrap().is_some());

    // Bump the header version in place (its last byte is the version digit).
    let good = std::fs::read(&entry).unwrap();
    let mut bumped = good.clone();
    bumped[CACHE_HEADER.len() - 1] = b'9';
    std::fs::write(&entry, &bumped).unwrap();
    match cache.load(&key) {
        Err(CacheError::Version { .. }) => {}
        other => panic!("expected a version error, got {other:?}"),
    }
    assert!(!run(&spec).cached, "future version must miss on the run path");

    // Rename a valid entry onto a different key's address: the recorded
    // key no longer matches the filename's.
    let mut other_seed = spec.clone();
    other_seed.seed = 8;
    let other_key = cache_key(&other_seed.clone().with_workload(workload)).unwrap();
    std::fs::write(cache.entry_path(&other_key), &good).unwrap();
    match cache.load(&other_key) {
        Err(CacheError::HashMismatch { .. }) => {}
        other => panic!("expected a hash-mismatch error, got {other:?}"),
    }
    assert!(!run(&other_seed).cached, "mismatched entry must miss on the run path");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache off` (the default) never touches the disk.
#[test]
fn cache_off_stores_nothing() {
    let dir = temp_cache("off");
    let mut spec = tiny_spec(RoutingAlgo::UgalG, &dir);
    spec.cache = CacheMode::Off;
    assert!(!run(&spec).cached);
    assert!(!dir.exists(), "an off cache must not create its directory");
}

fn only_entry(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "report"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    entries.pop().unwrap()
}

/// Regression: the report decoder used to narrow the on-wire u32 app-id
/// word with `as u16`, so a corrupt blob decoded into a *wrong report*
/// (app id silently truncated) instead of an error. Both corruption and
/// truncation must now surface as named `CacheError`s.
#[test]
fn corrupt_report_blob_is_a_named_error_not_a_wrong_report() {
    use dfsim_core::cache::{decode_report, CacheError};

    let dir = temp_cache("corrupt_blob");
    let live = run(&tiny_spec(RoutingAlgo::UgalG, &dir));
    let blob = encode_report(&live.report);

    // Byte offset of the first app's id word, from the fields before it.
    let r = &live.report;
    let off = 4                         // version word
        + 4 + r.routing.len()           // routing string
        + 4 + r.queue.len()             // queue string
        + 8 + 8 + 1                     // seed, scale, completed
        + 4 + r.stop_reason.len()       // stop_reason string
        + 8 + 8 + 8                     // sim_ms, events, wall_s
        + 4                             // app count
        + 4 + r.apps[0].name.len(); // first app's name string
    let mut bad = blob.clone();
    bad[off..off + 4].copy_from_slice(&0x0001_0000u32.to_le_bytes());
    let e = decode_report(&bad).expect_err("an app id beyond u16 must not decode");
    assert!(matches!(e, CacheError::Malformed { .. }), "{e}");
    assert!(e.to_string().contains("overflows u16"), "{e}");

    // Sanity check on the offset arithmetic: restoring the real id word
    // makes the same bytes decode again.
    bad[off..off + 4].copy_from_slice(&u32::from(r.apps[0].app).to_le_bytes());
    assert!(decode_report(&bad).is_ok(), "offset arithmetic drifted from the codec");

    let e = decode_report(&blob[..blob.len() - 3]).expect_err("a short blob must not decode");
    assert!(e.to_string().contains("truncated"), "{e}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Q-adaptive hit carries the learned tables: the snapshot equals the
/// live run's, `qtable_save` on the hit writes the live run's file byte
/// for byte, and the report encodes to the same bytes — serial and
/// partitioned.
#[test]
fn qadaptive_hit_replays_report_and_qtables() {
    for threads in [0usize, 2] {
        let dir = temp_cache(&format!("qadp_{threads}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = tiny_spec(RoutingAlgo::QAdaptive, &dir);
        spec.threads = threads;
        let saved = |name: &str| {
            let mut s = spec.clone();
            s.qtable_save = Some(dir.join(name));
            s
        };

        let live = run(&saved("live.qtable"));
        assert!(!live.cached, "t{threads}: first run must be live");
        let hit = run(&saved("hit.qtable"));
        assert!(hit.cached, "t{threads}: second run must hit the cache");

        assert!(live.qtable_snapshot.is_some(), "t{threads}: Q-adaptive runs capture tables");
        assert_eq!(live.qtable_snapshot, hit.qtable_snapshot, "t{threads}: snapshot diverged");
        assert_eq!(
            std::fs::read(dir.join("live.qtable")).unwrap(),
            std::fs::read(dir.join("hit.qtable")).unwrap(),
            "t{threads}: qtable_save on a hit must write the live run's file"
        );
        assert_eq!(
            encode_report(&live.report),
            encode_report(&hit.report),
            "t{threads}: cached report diverged from the live one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An entry stored without tables still serves plain lookups, but cannot
/// honour `qtable_save`: that run falls through to a live simulation,
/// writes the file, and stores a complete entry in its place.
#[test]
fn entry_without_tables_falls_through_on_qtable_save() {
    let dir = temp_cache("qadp_nosnap");
    let spec = tiny_spec(RoutingAlgo::QAdaptive, &dir);
    let live = run(&spec);
    let cache = ResultCache::open(&spec.cache).unwrap().expect("cache is on");
    let key = key_of(&spec);
    cache.store(&key, &live.report, None).unwrap();
    assert!(run(&spec).cached, "a plain lookup needs no tables");

    let path = dir.join("saved.qtable");
    let mut save = spec.clone();
    save.qtable_save = Some(path.clone());
    let h = run(&save);
    assert!(!h.cached, "an entry without tables must fall through to a live run");
    let written = QTableSnapshot::load(&path).expect("the live run wrote the snapshot");
    assert_eq!(Some(written), live.qtable_snapshot);
    let repaired = cache.load(&key).unwrap().expect("entry exists");
    assert_eq!(repaired.snapshot, live.qtable_snapshot, "the live run stored its tables");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile Q-adaptive entries: every truncation, a params fingerprint
/// claiming a huge machine, and an old-version entry at the current
/// address are named errors from the strict loader — never a panic —
/// and the old-version one degrades to a warned miss that the live run
/// repairs.
#[test]
fn hostile_qadaptive_entries_are_named_errors() {
    let dir = temp_cache("qadp_hostile");
    let spec = tiny_spec(RoutingAlgo::QAdaptive, &dir);
    let live = run(&spec);
    let cache = ResultCache::open(&spec.cache).unwrap().expect("cache is on");
    let key = key_of(&spec);
    let entry = cache.entry_path(&key);
    let good = std::fs::read(&entry).unwrap();

    // Truncation at a stride of offsets, and at each of the last 16 bytes.
    let n = good.len();
    for cut in (0..n).step_by(n / 64 + 1).chain(n - 16..n) {
        std::fs::write(&entry, &good[..cut]).unwrap();
        match cache.load(&key) {
            Err(CacheError::Malformed { .. }) => {}
            other => panic!("cut at {cut} of {n}: expected a named error, got {other:?}"),
        }
    }

    // The snapshot section opens with the four params words, right after
    // the header and key lines, the report blob and the snapshot flag.
    let params_at = CACHE_HEADER.len() + 1 + 33 + 4 + encode_report(&live.report).len() + 1;
    let with_params = |words: [u32; 4]| {
        let mut bytes = good.clone();
        for (i, w) in words.iter().enumerate() {
            let at = params_at + 4 * i;
            bytes[at..at + 4].copy_from_slice(&w.to_le_bytes());
        }
        std::fs::write(&entry, &bytes).unwrap();
        cache.load(&key)
    };
    // A billion routers: the tables are checked against the entry's bytes
    // before anything is allocated.
    match with_params([1_000_000, 1_000, 2, 2]) {
        Err(CacheError::Malformed { msg }) if msg.contains("snapshot tables") => {}
        other => panic!("huge params: expected a named truncation, got {other:?}"),
    }
    // A machine whose table size overflows the address space.
    match with_params([u32::MAX; 4]) {
        Err(CacheError::Malformed { msg }) if msg.contains("too large") => {}
        other => panic!("overflowing params: expected a named error, got {other:?}"),
    }
    // Sanity check on the offset arithmetic: the real params decode again.
    let tiny = DragonflyParams::tiny_72();
    let real =
        [tiny.groups, tiny.routers_per_group, tiny.nodes_per_router, tiny.globals_per_router];
    assert!(with_params(real).unwrap().is_some(), "offset arithmetic drifted from the codec");

    // An old-version entry at the current address: a Version error, listed
    // as unusable, then a warned miss on the run path and a repair.
    let mut v1 = b"dfsim-cache v1\n".to_vec();
    v1.extend_from_slice(&good[CACHE_HEADER.len() + 1..]);
    std::fs::write(&entry, &v1).unwrap();
    match cache.load(&key) {
        Err(CacheError::Version { found }) if found == "dfsim-cache v1" => {}
        other => panic!("expected a version error, got {other:?}"),
    }
    let rows = cache.entries().unwrap();
    assert!(rows.iter().all(|r| r.describe.contains("unusable")), "{:?}", rows[0].describe);
    assert!(!run(&spec).cached, "an old-version entry must miss on the run path");
    assert!(run(&spec).cached, "the live run must have repaired the entry");

    // `gc` removes old-version entries anywhere in the store, and only them.
    std::fs::write(dir.join(format!("{:032x}.report", 1)), &v1).unwrap();
    let out = cache.gc(None, None).unwrap();
    assert_eq!((out.removed, out.kept), (1, 1), "{out:?}");
    assert!(run(&spec).cached, "the current entry survives gc");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key of every checked-in spec, pinned. Nothing else pins the
/// key bytes: a reordered key, a re-rendered value or a changed
/// normalization would silently re-key every stored entry. A spec's
/// `qtable_load` path is not key material (the file's content is), so it
/// points at one file of fixed bytes here.
#[test]
fn checked_in_spec_cache_keys_are_pinned() {
    let dir = temp_cache("pins");
    std::fs::create_dir_all(&dir).unwrap();
    let qtable = dir.join("fixed.qtable");
    std::fs::write(&qtable, b"fixed Q-table bytes\n").unwrap();
    let key = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap();
        let mut spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        if spec.qtable_load.is_some() {
            spec.qtable_load = Some(qtable.clone());
        }
        spec
    };
    let pins = [
        ("examples/specs/churn_warm.spec", "30e28ba856ac66877b37a03526ddfcc0"),
        ("examples/specs/fig8.spec", "90a57e6ae05c8a28063f33bed573f8b3"),
        ("examples/specs/fig8_cached.spec", "90a57e6ae05c8a28063f33bed573f8b3"),
        ("examples/specs/fig8_parallel.spec", "90a57e6ae05c8a28063f33bed573f8b3"),
        ("tests/specs/every_key.spec", "b67edab32b63809d7327d7322c60e27d"),
        ("tests/specs/fig8_tiny.spec", "dbdc1d9e9a7464fe0c2e3b97914f3024"),
    ];
    for dir in ["examples/specs", "tests/specs"] {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let path = path.to_str().unwrap();
            if path.ends_with(".spec") {
                assert!(pins.iter().any(|(p, _)| *p == path), "{path} has no pinned key");
            }
        }
    }
    for (path, hex) in pins {
        assert_eq!(cache_key(&key(path)).unwrap().hex(), hex, "{path}");
    }

    // Every normalized knob set at once still addresses the quiet spec's
    // entry.
    let mut loud = key("tests/specs/fig8_tiny.spec");
    loud.qtable_save = Some(dir.join("saved.qtable"));
    loud.targets = vec![AppKind::FFT3D];
    loud.train = AppKind::LQCD;
    loud.snapshot = Some(dir.join("train.snap"));
    loud.trace = Some(dir.join("run.trace"));
    loud.cache = CacheMode::On;
    loud.threads = 4;
    assert_eq!(
        cache_key(&loud).unwrap().hex(),
        "dbdc1d9e9a7464fe0c2e3b97914f3024",
        "loud fig8_tiny.spec"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
