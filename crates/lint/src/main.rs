//! `dfsim-lint` CLI: lint the workspace, print machine-readable findings,
//! exit 2 on violations (the same exit-2 convention as every other dfsim
//! input error).
//!
//! ```text
//! dfsim-lint [--root DIR] [--list-rules]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("dfsim-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in dfsim_lint::rules::RULES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("usage: dfsim-lint [--root DIR] [--list-rules]");
                println!(
                    "exit 0: clean; exit 2: findings (one `file:line: rule: message` per finding)"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dfsim-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let report = match dfsim_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dfsim-lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "dfsim-lint: {} file(s) scanned, {} finding(s)",
        report.files_scanned,
        report.findings.len()
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
