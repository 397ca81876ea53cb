//! The Q-table lifecycle contract: snapshots round-trip bit-exactly,
//! stale snapshots are rejected with *named* fingerprint errors (never
//! silently applied), files of another version, cut short or overlong are
//! named errors too, and warm-started runs are deterministic — including
//! bit-identical reports across both event-queue backends. The session
//! touches the files exactly twice: it reads the snapshot once in
//! `prepare` and writes `qtable_save` once after the run.

use std::path::{Path, PathBuf};

use dragonfly_interference::prelude::*;

/// A unique temp path per test (tests run concurrently in one process).
fn temp_snap(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dfsim_qtable_{tag}_{}.snap", std::process::id()))
}

/// The tiny Q-adaptive training experiment (`SimConfig::test_tiny`'s
/// values) at `seed`.
fn train_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        workload: Workload::jobs(vec![
            JobSpec::sized(AppKind::Halo3D, 36),
            JobSpec::sized(AppKind::UR, 36),
        ]),
        params: DragonflyParams::tiny_72(),
        routings: vec![RoutingAlgo::QAdaptive],
        scale: 2_048.0,
        seed,
        ..Default::default()
    }
}

fn run_spec(spec: ExperimentSpec) -> RunReport {
    Simulation::from_spec(spec).unwrap().run().unwrap().report
}

/// A report with its host-time fields zeroed, for comparing two live runs.
fn canonical(report: &RunReport) -> String {
    let mut r = report.clone();
    r.wall_s = 0.0;
    r.engine = EngineReport::default();
    format!("{r:#?}")
}

/// A fresh, empty directory per test and tag.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfsim_qtable_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Train a tiny Q-adaptive run and save its snapshot to `path`.
fn train_and_save(path: &Path) {
    let report =
        run_spec(ExperimentSpec { qtable_save: Some(path.to_path_buf()), ..train_spec(7) });
    assert!(report.completed, "training run failed: {}", report.stop_reason);
}

#[test]
fn save_load_save_is_byte_identical() {
    let p1 = temp_snap("roundtrip1");
    let p2 = temp_snap("roundtrip2");
    train_and_save(&p1);
    let bytes1 = std::fs::read(&p1).expect("snapshot written");
    let snap = QTableSnapshot::load(&p1).expect("snapshot parses");
    snap.save(&p2).expect("snapshot re-saved");
    let bytes2 = std::fs::read(&p2).expect("second snapshot written");
    assert_eq!(bytes1, bytes2, "save -> load -> save must be byte-identical");
    assert_eq!(snap, QTableSnapshot::load(&p2).unwrap());
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p2);
}

/// Train and save a snapshot, rewrite its bytes with `corrupt`, and return
/// the errors `load` and a warm-start `prepare` must both refuse it with.
fn refused(tag: &str, corrupt: impl FnOnce(Vec<u8>) -> Vec<u8>) -> (SnapshotError, String) {
    let p = temp_snap(tag);
    train_and_save(&p);
    std::fs::write(&p, corrupt(std::fs::read(&p).unwrap())).unwrap();
    let load = QTableSnapshot::load(&p).expect_err("a bad snapshot loaded");
    let spec = ExperimentSpec { qtable_load: Some(p.clone()), ..train_spec(11) };
    let prepare = Simulation::from_spec(spec).unwrap().prepare().expect_err("a bad snapshot");
    let _ = std::fs::remove_file(&p);
    (load, prepare.to_string())
}

#[test]
fn v1_text_snapshot_is_a_version_mismatch_in_prepare() {
    let v1 = "dfsim-qtable v1\nparams groups=9 routers_per_group=4 nodes_per_router=2 \
              globals_per_router=2\n";
    let (e, err) = refused("v1", |_| v1.as_bytes().to_vec());
    assert!(matches!(&e, SnapshotError::VersionMismatch { found } if found == "dfsim-qtable v1"));
    assert!(err.contains("version mismatch") && err.contains("'dfsim-qtable v1'"), "{err}");
}

#[test]
fn truncated_save_file_is_malformed() {
    let (e, err) = refused("truncated", |b| b[..b.len() / 2].to_vec());
    assert!(matches!(e, SnapshotError::Malformed { .. }), "{e}");
    assert!(err.contains("malformed Q-table snapshot: file ends at byte"), "{err}");
}

#[test]
fn save_file_with_trailing_bytes_is_malformed() {
    let (e, err) = refused("trailing", |b| [b, vec![0; 8]].concat());
    assert!(matches!(e, SnapshotError::Malformed { .. }), "{e}");
    assert!(err.contains("8 trailing bytes after the last table"), "{err}");
}

#[test]
fn fingerprint_mismatches_produce_named_errors() {
    let p = temp_snap("fingerprint");
    train_and_save(&p);
    let snap = QTableSnapshot::load(&p).expect("snapshot parses");
    let _ = std::fs::remove_file(&p);
    let params = DragonflyParams::tiny_72();
    let timing = LinkTiming::default();
    let alpha = QaParams::default().alpha;

    // The matching fingerprint passes.
    snap.verify(&params, &timing, alpha).expect("identical fingerprint must verify");

    // Wrong topology parameters.
    let e = snap.verify(&DragonflyParams::paper_1056(), &timing, alpha).unwrap_err();
    assert!(matches!(e, SnapshotError::ParamsMismatch { .. }), "{e}");
    assert!(e.to_string().contains("topology"), "{e}");

    // Wrong link timing, naming the field.
    let slow = LinkTiming { local_latency_ps: timing.local_latency_ps + 1, ..timing };
    let e = snap.verify(&params, &slow, alpha).unwrap_err();
    assert!(matches!(e, SnapshotError::TimingMismatch { field: "local_latency_ps", .. }), "{e}");
    assert!(e.to_string().contains("local_latency_ps"), "{e}");

    // Wrong learning rate.
    let e = snap.verify(&params, &timing, alpha + 0.05).unwrap_err();
    assert!(matches!(e, SnapshotError::AlphaMismatch { .. }), "{e}");
    assert!(e.to_string().contains("alpha"), "{e}");
}

#[test]
fn stale_snapshot_is_rejected_in_prepare_not_applied() {
    // A snapshot trained on a *different* topology must fail the session
    // before it runs (the named fingerprint error), never start with bogus
    // estimates.
    let p = temp_snap("stale");
    train_and_save(&p);
    let spec = ExperimentSpec {
        workload: Workload::jobs(vec![JobSpec::sized(AppKind::UR, 36)]),
        routings: vec![RoutingAlgo::QAdaptive],
        qtable_load: Some(p.clone()), // snapshot is tiny_72, the spec paper_1056
        scale: 4096.0,
        ..Default::default()
    };
    let err = Simulation::from_spec(spec).unwrap().prepare().expect_err("stale snapshot");
    assert!(err.to_string().contains("fingerprint"), "must carry the fingerprint error: {err}");
    let _ = std::fs::remove_file(&p);
}

/// The warm-start label lives on the engine config, the save path on the
/// spec only; each is refused off Q-adaptive routing.
#[test]
fn non_qadaptive_configs_reject_lifecycle_knobs() {
    let mut cfg = SimConfig::test_tiny(RoutingAlgo::UgalG);
    cfg.routing.qtable_init = QTableInit::Warm;
    assert!(cfg.validate().unwrap_err().contains("Q-adaptive"));
    let spec = ExperimentSpec {
        routings: vec![RoutingAlgo::Par],
        qtable_save: Some("/nonexistent.snap".into()),
        ..train_spec(7)
    };
    assert!(spec.validate().unwrap_err().to_string().contains("Q-adaptive"));
}

#[test]
fn warm_start_is_deterministic_and_backend_invariant() {
    let p = temp_snap("warmstart");
    train_and_save(&p);

    let warm =
        |queue| run_spec(ExperimentSpec { qtable_load: Some(p.clone()), queue, ..train_spec(11) });
    let heap = warm(QueueBackend::BinaryHeap);
    let again = warm(QueueBackend::BinaryHeap);
    let cal = warm(QueueBackend::calendar_auto());
    let _ = std::fs::remove_file(&p);

    for (label, other) in [("rerun", &again), ("calendar", &cal)] {
        assert_eq!(heap.sim_ms, other.sim_ms, "{label}: sim time diverged");
        assert_eq!(heap.events, other.events, "{label}: event count diverged");
        for (a, b) in heap.apps.iter().zip(&other.apps) {
            assert_eq!(a.comm_ms.mean, b.comm_ms.mean, "{label}/{}: comm diverged", a.name);
            assert_eq!(a.exec_ms, b.exec_ms, "{label}/{}: exec diverged", a.name);
            assert_eq!(a.latency_us.p99, b.latency_us.p99, "{label}/{}: latency diverged", a.name);
        }
        assert_eq!(
            heap.network.total_delivered_gb, other.network.total_delivered_gb,
            "{label}: delivered bytes diverged"
        );
        // The learning block is part of the deterministic report too.
        let (l, o) = (heap.learning.as_ref().unwrap(), other.learning.as_ref().unwrap());
        assert_eq!(l.updates, o.updates, "{label}: learning updates diverged");
        assert_eq!(l.mean_abs_dq1_ns, o.mean_abs_dq1_ns, "{label}: learning mean diverged");
        assert_eq!(l.series, o.series, "{label}: learning series diverged");
        assert_eq!(l.init, "warm");
    }
}

#[test]
fn warm_start_actually_replaces_the_static_estimates() {
    // The warm run's very first Q-values are the snapshot's, not the
    // static estimates: its learning trace must differ from the cold
    // run's from the first window.
    let p = temp_snap("replaces");
    train_and_save(&p);
    let cold = run_spec(train_spec(11));
    let warm = run_spec(ExperimentSpec { qtable_load: Some(p.clone()), ..train_spec(11) });
    let _ = std::fs::remove_file(&p);

    let (lc, lw) = (cold.learning.as_ref().unwrap(), warm.learning.as_ref().unwrap());
    assert_eq!(lc.init, "cold");
    assert_eq!(lw.init, "warm");
    assert_ne!(
        lc.series, lw.series,
        "warm start must change the Q-value trajectory (identical traces mean the snapshot \
         was not applied)"
    );
}

/// `prepare` reads the warm-start snapshot once and nothing after it opens
/// the file: with the file deleted between `prepare` and `run`, the run at
/// one and two partitions reports what it does with the file in place, and
/// its cache entry is keyed by the bytes it ran from, so a fresh session
/// over a file with those bytes hits it.
#[test]
fn deleting_the_snapshot_after_prepare_changes_nothing() {
    let p = temp_snap("read_once");
    train_and_save(&p);
    let bytes = std::fs::read(&p).unwrap();
    for threads in [1, 2] {
        let dir = temp_dir(&format!("read_once_cache_{threads}"));
        let spec = ExperimentSpec { qtable_load: Some(p.clone()), threads, ..train_spec(11) };
        let want = canonical(&run_spec(spec.clone()));
        let cached = ExperimentSpec { cache: CacheMode::Dir(dir.clone()), ..spec };

        let mut sim = Simulation::from_spec(cached.clone()).unwrap();
        sim.prepare().unwrap();
        std::fs::remove_file(&p).unwrap();
        let live = sim.run().expect("the run must not reopen the snapshot file");
        assert!(!live.cached, "t{threads}: the first run must be live");
        assert!(canonical(&live.report) == want, "t{threads}: report diverged without the file");

        std::fs::write(&p, &bytes).unwrap();
        let store = ResultCache::open(&cached.cache).unwrap().unwrap();
        let stored = store.load(&cache_key(&cached).unwrap()).unwrap();
        assert!(stored.is_some(), "t{threads}: the session's key is not cache_key's");
        let hit = Simulation::from_spec(cached).unwrap().run().unwrap();
        assert!(hit.cached, "t{threads}: the same snapshot bytes must hit the stored entry");
        assert!(canonical(&hit.report) == want, "t{threads}: the hit's report diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_file(&p);
}

/// `run` writes `qtable_save` once, after a live run or a cache hit alike:
/// a save path that turned into a directory after `prepare` is the same
/// named error on both paths, at one and two partitions — never a panic.
#[test]
fn unwritable_qtable_save_is_one_named_error_live_and_on_a_hit() {
    for threads in [1, 2] {
        let dir = temp_dir(&format!("unwritable_{threads}"));
        let save = dir.join("saved.qtable");
        let spec = ExperimentSpec { qtable_save: Some(save.clone()), threads, ..train_spec(7) };
        let cached = ExperimentSpec { cache: CacheMode::Dir(dir.join("cache")), ..spec.clone() };
        assert!(!Simulation::from_spec(cached.clone()).unwrap().run().unwrap().cached);
        let cache = ResultCache::open(&cached.cache).unwrap().unwrap();
        let entry = cache.load(&cache_key(&cached).unwrap()).unwrap();
        assert!(entry.is_some_and(|e| e.snapshot.is_some()), "t{threads}: no entry to hit");

        let errors: Vec<String> = [spec, cached]
            .into_iter()
            .map(|spec| {
                let mut sim = Simulation::from_spec(spec).unwrap();
                sim.prepare().unwrap();
                std::fs::remove_file(&save).unwrap();
                std::fs::create_dir(&save).unwrap();
                let err = sim.run().expect_err("an unwritable qtable_save must fail the run");
                std::fs::remove_dir(&save).unwrap();
                err.to_string()
            })
            .collect();
        let want = format!("cannot write qtable_save {}: ", save.display());
        assert!(errors[0].contains(&want), "t{threads}: {}", errors[0]);
        assert_eq!(errors[0], errors[1], "t{threads}: live and hit must fail alike");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
