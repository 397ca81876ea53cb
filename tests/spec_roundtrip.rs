//! The spec-format contract: `parse → emit → parse` is the identity,
//! canonical files round-trip byte-identically, the layering order is
//! `defaults < spec file < command line`, every key's `--NAME VALUE` flag
//! means what its file line `NAME VALUE` means, every malformed
//! input produces a *named* error, and the checked-in spec files (the
//! golden one under `tests/specs/` and the annotated examples under
//! `examples/specs/`) always parse — the format can never drift from the
//! parser.

use dragonfly_interference::prelude::*;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn parse_emit_parse_is_the_identity_for_every_workload_form() {
    let workloads = [
        "standalone FFT3D",
        "pairwise LQCD Stencil5D",
        "pairwise LULESH none",
        "mixed",
        "jobs FFT3D:140,idle:16,UR:36",
        "scenario UR:36@0ps,LU:16@500000000ps",
        "poisson",
    ];
    for w in workloads {
        let text = format!("dfsim-spec v1\nworkload {w}\nscale 128\nseed 9\n");
        let spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{w}: {e}"));
        let emitted = spec.emit();
        let reparsed = ExperimentSpec::parse(&emitted).unwrap();
        assert_eq!(reparsed, spec, "parse(emit(s)) != s for workload {w}");
        assert_eq!(reparsed.emit(), emitted, "emit not canonical for workload {w}");
    }
}

#[test]
fn canonical_files_round_trip_byte_identically() {
    // The specs under tests/specs/ are stored in canonical (emit) form, so
    // emit(parse()) must reproduce each file byte for byte.
    let mut seen = 0;
    for entry in std::fs::read_dir("tests/specs").expect("tests/specs checked in") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "spec") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(spec.emit(), text, "{} is not in canonical form", path.display());
    }
    assert!(seen >= 2, "expected fig8_tiny.spec and every_key.spec, found {seen}");
}

#[test]
fn checked_in_example_specs_always_parse() {
    let mut seen = 0;
    for dir in ["examples/specs", "tests/specs"] {
        for entry in std::fs::read_dir(dir).expect(dir) {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "spec") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let spec =
                ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            // Emit of any parsed spec is canonical and re-parses to the
            // same value.
            assert_eq!(ExperimentSpec::parse(&spec.emit()).unwrap(), spec, "{}", path.display());
        }
    }
    assert!(seen >= 3, "expected the golden + example specs, found {seen}");
}

#[test]
fn layering_precedence_file_under_cli() {
    let dir = std::env::temp_dir().join(format!("dfsim_spec_layers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.spec");
    std::fs::write(
        &path,
        "dfsim-spec v1\nscale 128\nseed 7\nrouting PAR\nqueue calendar:auto\nsched backfill\n",
    )
    .unwrap();
    let cli = args(&[
        "--spec",
        path.to_str().unwrap(),
        "--seed",
        "11",
        "--queue",
        "heap",
        "--routing",
        "Q-adp",
        "--csv",
    ]);
    let spec = ExperimentSpec::default().resolve(&cli).unwrap();
    // File beats defaults where the CLI does not speak.
    assert_eq!(spec.scale, 128.0);
    assert_eq!(spec.sched, SchedPolicy::Backfill);
    // CLI beats the file.
    assert_eq!(spec.seed, 11);
    assert_eq!(spec.queue, QueueBackend::BinaryHeap);
    assert_eq!(spec.routings, vec![RoutingAlgo::QAdaptive]);
    let _ = std::fs::remove_file(&path);
}

/// A valid and an invalid text for every spec key. Each valid text also
/// passes validation over [`flag_base`].
fn sample_texts(key: &str) -> (&'static str, &'static str) {
    match key {
        "workload" => ("pairwise LQCD Stencil5D", "quantum"),
        "topology" => ("groups=9 routers_per_group=4 nodes_per_router=2", "groups=many"),
        "timing" => ("flit_bytes=64 packet_bytes=512", "warp_factor=9"),
        "routing" => ("PAR,Q-adp", "warp"),
        "ugal_bias" => ("-3", "x"),
        "nonmin_samples" => ("4", "-1"),
        "qa_alpha" => ("0.5", "x"),
        "qa_epsilon" => ("0.1", "x"),
        "qtable_load" => ("/tmp/q.snap", " "),
        "qtable_save" => ("/tmp/q2.snap", " "),
        "scale" => ("128", "6O"),
        "seed" => ("11", "-3"),
        "placement" => ("contiguous", "sideways"),
        "queue" => ("calendar", "abacus"),
        "sched" => ("backfill", "lifo"),
        "eager_threshold" => ("4096", "x"),
        "horizon" => ("2ms", "soon"),
        "max_events" => ("5000", "x"),
        "bin_width" => ("1ms", "fast"),
        "record_latencies" => ("false", "maybe"),
        "record_ports" => ("false", "maybe"),
        "rates" => ("0.5,2", "fast"),
        "jobs" => ("5", "-1"),
        "apps" => ("UR,LU", "Quake"),
        "sizes" => ("18,36", "big"),
        "targets" => ("FFT3D,LQCD", "Quake"),
        "train" => ("LU", "Quake"),
        "snapshot" => ("/tmp/s.snap", " "),
        "trace" => ("/tmp/t.trace", " "),
        "cache" => ("/tmp/c", " "),
        "threads" => ("3", "many"),
        other => panic!("spec key '{other}' has no sample texts — add a row"),
    }
}

/// The defaults under Q-adaptive routing, so the Q-table keys validate.
fn flag_base() -> ExperimentSpec {
    ExperimentSpec { routings: vec![RoutingAlgo::QAdaptive], ..Default::default() }
}

/// The two ways into a key agree, for every key: the flag `--NAME text`
/// sets exactly what the file line `NAME text` sets, and rejects what it
/// rejects, as an error naming the flag.
#[test]
fn every_key_flag_agrees_with_its_file_line() {
    use dfsim_core::spec::{SPEC_HEADER, SPEC_KEYS};
    let from_file =
        |key: &str, text: &str| flag_base().parsed_over(&format!("{SPEC_HEADER}\n{key} {text}\n"));
    for key in SPEC_KEYS {
        let flag = format!("--{key}");
        let (good, bad) = sample_texts(key);
        let resolve = |value: &str| flag_base().resolve(&args(&[&flag, value]));
        let want = from_file(key, good).unwrap_or_else(|e| panic!("'{key} {good}': {e}"));
        assert_ne!(want, flag_base(), "'{key} {good}' must change the spec");
        assert_eq!(resolve(good).unwrap(), want, "{flag} {good}");
        assert!(from_file(key, bad).is_err(), "'{key} {bad}' should be invalid");
        match resolve(bad).unwrap_err() {
            SpecError::Flag { flag: f, .. } => assert_eq!(f, flag),
            other => panic!("{flag} '{bad}' must be a named flag error, got {other:?}"),
        }
    }
}

/// The key flags that replace the old shorthands land on their keys, a
/// partial `--topology` replaces only the fields it names, and a flag whose
/// value was forgotten does not swallow the next flag.
#[test]
fn shorthand_flags_land_on_their_keys() {
    let cli = [
        "--workload",
        "pairwise fft3d Halo3D",
        "--topology",
        "groups=9 routers_per_group=4 nodes_per_router=2 globals_per_router=2",
        "--placement",
        "contiguous",
        "--rates",
        "2.5",
        "--routing",
        "Q-adp",
        "--qtable_save",
        "/tmp/q.snap",
    ];
    let spec = ExperimentSpec::default().resolve(&args(&cli)).unwrap();
    assert_eq!(spec.workload, Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
    assert_eq!(spec.params, DragonflyParams::tiny_72());
    assert_eq!(spec.placement, Placement::Contiguous);
    assert_eq!(spec.rates, vec![2.5]);
    assert_eq!(spec.qtable_save, Some("/tmp/q.snap".into()));
    let spec = ExperimentSpec::default().resolve(&args(&["--topology", "groups=5"])).unwrap();
    let want = DragonflyParams { groups: 5, ..ExperimentSpec::default().params };
    assert_eq!(spec.params, want, "only the named field changes");
    for bad in [["--topology", "groups=many"], ["--cache", "--csv"]] {
        let err = ExperimentSpec::default().resolve(&args(&bad)).unwrap_err();
        assert!(
            matches!(err, SpecError::Flag { ref flag, .. } if flag == bad[0]),
            "{bad:?}: {err:?}"
        );
    }
}

#[test]
fn spec_files_reject_unknown_and_duplicate_keys() {
    let err = ExperimentSpec::parse("dfsim-spec v1\nwarp_drive on\n").unwrap_err();
    assert!(matches!(err, SpecError::UnknownKey { line: 2, .. }), "{err:?}");
    let err = ExperimentSpec::parse("dfsim-spec v1\nseed 1\n# comment\nseed 2\n").unwrap_err();
    assert!(matches!(err, SpecError::DuplicateKey { line: 4, .. }), "{err:?}");
    let err = ExperimentSpec::parse("dfsim-qtable v1\n").unwrap_err();
    assert!(matches!(err, SpecError::Version { .. }), "{err:?}");
}

#[test]
fn value_errors_carry_line_key_and_valid_forms() {
    let err = ExperimentSpec::parse("dfsim-spec v1\nrouting warp\n").unwrap_err();
    match &err {
        SpecError::Value { line, key, msg } => {
            assert_eq!(*line, 2);
            assert_eq!(key, "routing");
            for r in RoutingAlgo::ALL {
                assert!(msg.contains(r.label()), "must list {}: {msg}", r.label());
            }
        }
        other => panic!("expected a Value error, got {other:?}"),
    }
    let err = ExperimentSpec::parse("dfsim-spec v1\nqueue abacus\n").unwrap_err().to_string();
    assert!(err.contains("calendar"), "queue errors list the valid forms: {err}");
}

#[test]
fn dfsim_scenario_and_dfsim_run_agree_through_the_spec() {
    // The `--workload "scenario …"` flag form and the equivalent spec file
    // resolve to the same experiment and therefore the same report.
    let workload = "scenario UR:18@0,CosmoFlow:18@10ns,LU:18@20ns";
    let cli = ["--workload", workload, "--seed", "13", "--smoke"];
    let spec_direct = ExperimentSpec::default().resolve(&args(&cli)).unwrap();
    assert!(matches!(spec_direct.workload, Workload::Scenario(ref a) if a.len() == 3));
    assert_eq!((spec_direct.params, spec_direct.scale), (DragonflyParams::tiny_72(), 2_048.0));
    let text = spec_direct.emit();
    let spec_from_file = ExperimentSpec::parse(&text).unwrap();
    assert_eq!(spec_from_file, spec_direct);
    let a = Simulation::from_spec(spec_direct).unwrap().run().unwrap().report;
    let b = Simulation::from_spec(spec_from_file).unwrap().run().unwrap().report;
    assert_eq!(a.events, b.events);
    assert_eq!(a.sim_ms, b.sim_ms);
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.wait_ms, y.wait_ms);
        assert_eq!(x.finish_ms, y.finish_ms);
    }
}
