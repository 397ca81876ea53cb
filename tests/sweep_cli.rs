//! `dfsim sweep NAME`: every entry of the figure table runs at `--smoke`
//! and opens with its own CSV header, the presentation flags behave the
//! same on every sweep, and a missing or unknown name is a usage error
//! that lists the valid names. Also the arguments `dfsim cache` and
//! `dfsim trace` parse themselves, outside the spec resolver, and no
//! exported shell variable changes what `dfsim` prints.

use std::process::{Command, Output};

/// Every sweep with the start of its `--smoke --csv` stdout: the CSV header
/// of its first table, after the section caption for the figures printed
/// per routing or per app (fig12's matrices have no header row).
const SWEEPS: [(&str, &str); 18] = [
    ("fig4", "Target,Background,Routing,Comm (ms),Std (ms),vs none,ok\n"),
    ("fig5", "== PAR ==\nt (ms),FFT3D_alone,Halo3D_alone,FFT3D_interfered,Halo3D_interfered\n"),
    ("fig6", "Case,n,mean us,Q1 us,median us,Q3 us,p95 us,p99 us,max us\n"),
    (
        "fig7",
        "== LQCD: mean packet latency (us) per 0.1 ms bin ==\n\
         t (ms),PAR_alone,Q-adp_alone,PAR_interfered,Q-adp_interfered\n",
    ),
    ("fig8", "App,Routing,None (ms),Interfered (ms),delta %\n"),
    (
        "fig9",
        "== PAR ==\nt (ms),CosmoFlow_alone,Halo3D_alone,CosmoFlow_interfered,Halo3D_interfered\n",
    ),
    ("fig10", "App,Routing,None (ms),Interfered (ms),delta %,std none,std mix\n"),
    ("fig11", "Group,PAR local stall (ms),Q-adp local stall (ms)\n"),
    ("fig12", "== PAR congestion index ==\n"),
    ("fig13", "Routing,mean us,median us,p95 us,p99 us,max us,packets\n"),
    (
        "table1",
        "Pattern,App,Total Msg (MB),paper/scale,Exec time (ms),paper/scale,Inj. Rate (GB/s),\
         paper,Peak Ingress,paper (unscaled)\n",
    ),
    ("table2", "Application,Job size,Exec ms (alone),Inj GB/s (alone),Peak ingress\n"),
    ("churn", "Rate (jobs/ms),Routing,Placement,Done,Mean wait (ms),Mean slowdown,Sim (ms),ok\n"),
    ("placement_ablation", "Routing,Placement,FFT3D alone (ms),FFT3D interfered (ms),slowdown\n"),
    ("ugal_bias", "bias (pkts),FFT3D comm (ms),FFT3D detour %,Halo3D detour %,sys p99 us\n"),
    ("qa_hparams", "alpha,epsilon,FFT3D comm (ms),FFT3D detour %,sys p99 us\n"),
    (
        "probe",
        "App,exec ms,paper ms/scale,inj GB/s,paper GB/s,peak ingress,paper peak/scale,comm ms,\
         lat p50 us,lat p99 us,events,wall s\n",
    ),
    (
        "probe_pair",
        "Routing,solo comm,pair comm,slowdown,tgt detour%,bg detour%,tgt p99 us,local stall ms,\
         global stall ms,cong std\n",
    ),
];

fn dfsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dfsim")).args(args).output().expect("dfsim runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn every_sweep_smokes_and_opens_with_its_csv_header() {
    for (name, head) in SWEEPS {
        let out = dfsim(&["sweep", name, "--smoke", "--csv"]);
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert!(out.status.success(), "{name} failed: {stderr}");
        let first: Vec<&str> = stdout.lines().take(2).collect();
        assert!(stdout.starts_with(head), "{name}: stdout starts {first:?}");
        assert!(stderr.starts_with(&format!("# {name} @ scale 1/2048")), "{name}: {stderr}");
    }
}

/// Regression: `fig10 --csv` returned before the engine-stats block.
#[test]
fn fig10_csv_keeps_the_engine_stats_block() {
    let out = dfsim(&["sweep", "fig10", "--smoke", "--csv", "--engine-stats"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let block = stdout.split_once("\n== engine stats ==\n").expect("engine block").1;
    // One row per cell: six jobs alone plus the mix, under four routings.
    assert_eq!(block.lines().count(), 28, "{block}");
    assert!(block.lines().any(|l| l.starts_with("Q-adp_mixed: engine heap:")), "{block}");
}

#[test]
fn missing_or_unknown_names_exit_2_and_list_every_sweep() {
    let bare = dfsim(&["sweep"]);
    assert_eq!(bare.status.code(), Some(2));
    let listing = text(&bare.stderr);
    let listed: Vec<&str> = listing
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let names: Vec<&str> = SWEEPS.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed, names, "{listing}");

    let unknown = dfsim(&["sweep", "fig99"]);
    assert_eq!(unknown.status.code(), Some(2));
    let err = text(&unknown.stderr);
    assert!(err.contains("unknown sweep 'fig99'"), "{err}");
    assert!(names.iter().all(|n| err.contains(n)), "{err}");
}

/// `dfsim cache gc --max-age/--max-bytes` and `dfsim trace FILE --replay`
/// parse their own arguments; each works on a real store and trace.
#[test]
fn cache_gc_limits_and_trace_replay_work() {
    let dir = std::env::temp_dir().join(format!("dfsim_sweep_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (cache, trace) = (dir.join("cache"), dir.join("run.trace"));
    let (cache, trace) = (cache.to_str().unwrap(), trace.to_str().unwrap());
    let live = dfsim(&[
        "run",
        "--spec",
        "tests/specs/fig8_tiny.spec",
        "--cache",
        cache,
        "--trace",
        trace,
        "--csv",
    ]);
    assert!(live.status.success(), "{}", text(&live.stderr));

    let replay = dfsim(&["trace", trace, "--replay", "--csv"]);
    assert!(replay.status.success(), "{}", text(&replay.stderr));
    assert_eq!(text(&replay.stdout), text(&live.stdout), "the replay rebuilds the live report");

    let gc = |limit: &str| {
        let out = dfsim(&["cache", "gc", "--cache", cache, limit, "0"]);
        assert!(out.status.success(), "gc {limit}: {}", text(&out.stderr));
        text(&out.stdout)
    };
    assert!(gc("--max-age").contains("removed"));
    assert!(gc("--max-bytes").contains("kept 0 (0 bytes)"), "a zero byte cap empties the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: knob-named shell variables used to layer into every run
/// (`SCALE=6O` was a hard error, `SEED=9` changed the report, `CACHE=on`
/// wrote a cache under `DFSIM_CACHE_DIR`). With them exported, `dfsim`
/// prints exactly what it prints without them, and writes no cache.
#[test]
fn the_shell_cannot_change_a_run() {
    let dir = std::env::temp_dir().join(format!("dfsim_shell_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shell = [
        ("SCALE", "6O"),
        ("SEED", "9"),
        ("THREADS", "x"),
        ("ROUTING", "warp"),
        ("TARGET", "x86_64-unknown-linux-gnu"),
        ("CACHE", "on"),
        ("DFSIM_CACHE_DIR", dir.to_str().unwrap()),
    ];
    let spec = "tests/specs/fig8_tiny.spec";
    for args in [&["emit", "--spec", spec][..], &["run", "--spec", spec, "--csv"]] {
        let mut exported = Command::new(env!("CARGO_BIN_EXE_dfsim"));
        exported.args(args).envs(shell);
        let mut clean = Command::new(env!("CARGO_BIN_EXE_dfsim"));
        clean.args(args);
        for (var, _) in shell {
            clean.env_remove(var);
        }
        let (exported, clean) = (exported.output().unwrap(), clean.output().unwrap());
        assert!(exported.status.success(), "{args:?}: {}", text(&exported.stderr));
        assert!(clean.status.success(), "{args:?}: {}", text(&clean.stderr));
        assert_eq!(text(&exported.stdout), text(&clean.stdout), "{args:?}");
        assert!(!dir.exists(), "{args:?} created a cache directory");
    }
}
