//! The spec-format contract: `parse → emit → parse` is the identity,
//! canonical files round-trip byte-identically, the layering order is
//! `defaults < spec file < environment < command line`, every malformed
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
fn layering_precedence_file_under_env_under_cli() {
    let dir = std::env::temp_dir().join(format!("dfsim_spec_layers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.spec");
    std::fs::write(
        &path,
        "dfsim-spec v1\nscale 128\nseed 7\nrouting PAR\nqueue calendar:auto\nsched backfill\n",
    )
    .unwrap();
    let env = |var: &str| match var {
        "SEED" => Some("11".to_string()),
        "QUEUE" => Some("heap".to_string()),
        "ROUTING" => Some("UGALn".to_string()),
        _ => None,
    };
    let cli = args(&["--spec", path.to_str().unwrap(), "--routing", "Q-adp", "--csv"]);
    let spec = ExperimentSpec::default().resolve_with(env, &cli).unwrap();
    // File beats defaults where neither env nor CLI speaks.
    assert_eq!(spec.scale, 128.0);
    assert_eq!(spec.sched, SchedPolicy::Backfill);
    // Env beats the file.
    assert_eq!(spec.seed, 11);
    assert_eq!(spec.queue, QueueBackend::BinaryHeap);
    // CLI beats env.
    assert_eq!(spec.routings, vec![RoutingAlgo::QAdaptive]);
    let _ = std::fs::remove_file(&path);
}

/// A valid and an invalid text for every spec key an env var or a value
/// flag can set.
fn sample_texts(key: &str) -> (&'static str, &'static str) {
    match key {
        "scale" => ("128", "6O"),
        "seed" => ("11", "-3"),
        "queue" => ("calendar", "abacus"),
        "routing" => ("PAR,Q-adp", "warp"),
        "placement" => ("contiguous", "sideways"),
        "sched" => ("backfill", "lifo"),
        "threads" => ("3", "many"),
        "cache" => ("/tmp/c", " "),
        "rates" => ("0.5,2", "fast"),
        "jobs" => ("5", "-1"),
        "apps" => ("UR,LU", "Quake"),
        "sizes" => ("18,36", "big"),
        "targets" => ("FFT3D,LQCD", "Quake"),
        "train" => ("LU", "Quake"),
        "snapshot" => ("/tmp/s.snap", " "),
        "trace" => ("/tmp/t.trace", " "),
        "horizon" => ("2ms", "soon"),
        other => panic!("knob for spec key '{other}' has no sample texts — add a row"),
    }
}

/// The layers agree, for every registered knob: an env var whose lower-case
/// name is a spec key and a value flag whose name minus `--` is one set
/// exactly what the file line `key text` sets, and reject what it rejects —
/// as an error naming the variable and value, or the flag.
#[test]
fn env_vars_and_value_flags_agree_with_the_file_layer() {
    use dfsim_core::spec::{CLI_FLAGS, CORE_ENV, EXTENDED_ENV, SPEC_HEADER, SPEC_KEYS};
    let from_file =
        |key: &str, text: &str| ExperimentSpec::parse(&format!("{SPEC_HEADER}\n{key} {text}\n"));

    let mut checked = 0;
    for var in CORE_ENV.iter().chain(&EXTENDED_ENV) {
        let key = var.to_ascii_lowercase();
        if !SPEC_KEYS.contains(&key.as_str()) {
            continue; // TARGET / BG: shorthands, covered below
        }
        let (good, bad) = sample_texts(&key);
        let resolve = |value: &'static str| {
            let env = move |v: &str| (v == *var).then(|| value.to_string());
            ExperimentSpec::default().resolve_env_with(&EXTENDED_ENV, env, &[])
        };
        assert_eq!(resolve(good).unwrap(), from_file(&key, good).unwrap(), "{var}={good}");
        assert!(from_file(&key, bad).is_err(), "'{key} {bad}' should be invalid");
        match resolve(bad).unwrap_err() {
            SpecError::Env { var: v, value, .. } => {
                assert_eq!((v.as_str(), value.as_str()), (*var, bad))
            }
            other => panic!("{var}={bad} must be a named env error, got {other:?}"),
        }
        checked += 1;
    }
    assert_eq!(checked, 15, "every key-named env var is walked");

    let mut checked = 0;
    for flag in CLI_FLAGS {
        let Some(key) = flag.strip_prefix("--").filter(|k| SPEC_KEYS.contains(k)) else {
            continue; // shorthands, presentation flags and the binaries' own
        };
        let (good, bad) = sample_texts(key);
        let resolve =
            |value: &str| ExperimentSpec::default().resolve_with(|_| None, &args(&[flag, value]));
        assert_eq!(resolve(good).unwrap(), from_file(key, good).unwrap(), "{flag} {good}");
        match resolve(bad).unwrap_err() {
            SpecError::Flag { flag: f, .. } => assert_eq!(f, flag),
            other => panic!("{flag} '{bad}' must be a named flag error, got {other:?}"),
        }
        checked += 1;
    }
    assert_eq!(checked, 17, "every key-named value flag is walked");
}

/// The inputs that are not a key's text are shorthands onto keys.
#[test]
fn shorthand_env_vars_and_flags_land_on_their_keys() {
    let pair = ExperimentSpec::default().with_workload(Workload::pairwise(AppKind::LU, None));
    let env = |var: &str| match var {
        "TARGET" => Some("fft3d".to_string()),
        "BG" => Some("Halo3D".to_string()),
        _ => None,
    };
    let spec = pair.clone().resolve_env_with(&["TARGET", "BG"], env, &[]).unwrap();
    assert_eq!(spec.workload, Workload::pairwise(AppKind::FFT3D, Some(AppKind::Halo3D)));
    let err = ExperimentSpec::default().resolve_env_with(&["BG"], env, &[]).unwrap_err();
    assert!(
        matches!(err, SpecError::Env { ref var, .. } if var == "BG"),
        "mixed has no BG: {err:?}"
    );

    let cli = [
        "--groups",
        "9",
        "--routers",
        "4",
        "--nodes",
        "2",
        "--globals",
        "2",
        "--contiguous",
        "--rate",
        "2.5",
        "--routing",
        "Q-adp",
        "--qtable",
        "save=/tmp/q.snap",
    ];
    let spec = pair.resolve_with(|_| None, &args(&cli)).unwrap();
    assert_eq!(spec.params, DragonflyParams::tiny_72());
    assert_eq!(spec.placement, Placement::Contiguous);
    assert_eq!(spec.rates, vec![2.5]);
    assert_eq!(spec.qtable_save, Some("/tmp/q.snap".into()));
    for bad in [["--groups", "many"], ["--qtable", "keep=/tmp/q"], ["--qtable", "load="]] {
        let err = ExperimentSpec::default().resolve_with(|_| None, &args(&bad)).unwrap_err();
        assert!(
            matches!(err, SpecError::Flag { ref flag, .. } if flag == bad[0]),
            "{bad:?}: {err:?}"
        );
    }
}

#[test]
fn extended_env_vars_require_opt_in() {
    // `TARGET`/`JOBS` are common shell/CI variable names; a front-end that
    // did not opt in must not even look at them — `dfsim run` in a shell
    // with TARGET=x86_64-unknown-linux-gnu exported must still work.
    let env = |var: &str| match var {
        "TARGET" => Some("x86_64-unknown-linux-gnu".to_string()),
        "JOBS" => Some("not-a-number".to_string()),
        _ => None,
    };
    let spec = ExperimentSpec::default().resolve_with(env, &[]).unwrap();
    assert_eq!(spec, ExperimentSpec::default());
    // Opted in, the same values are named hard errors.
    let err = ExperimentSpec::default().resolve_env_with(&["TARGET"], env, &[]).unwrap_err();
    assert!(err.to_string().contains("TARGET"), "{err}");
    // And an unknown opt-in name is itself an error, not a silent no-op.
    let err = ExperimentSpec::default().resolve_env_with(&["TARGETZ"], env, &[]).unwrap_err();
    assert!(err.to_string().contains("TARGETZ"), "{err}");
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
    // The `scenario` positional form and the equivalent spec file resolve
    // to the same experiment and therefore the same report.
    let scenario_text = "UR:18@0,CosmoFlow:18@10ns,LU:18@20ns";
    let spec_direct = ExperimentSpec {
        params: DragonflyParams::tiny_72(),
        scale: 2_048.0,
        seed: 13,
        ..Default::default()
    }
    .with_workload(Workload::parse(&format!("scenario {scenario_text}")).unwrap());
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
