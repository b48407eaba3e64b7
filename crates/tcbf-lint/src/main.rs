//! CLI driver: `cargo run -p tcbf-lint [-- flags]`.
//!
//! Exit codes:
//! - `0` — no findings (or advisory mode without `--deny-all`)
//! - `1` — findings under `--deny-all`
//! - `2` — bad flags or an unreadable tree

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use tcbf_lint::{default_root, lint_workspace};

struct Options {
    root: PathBuf,
    deny_all: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        deny_all: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--quiet" => opts.quiet = true,
            "--root" => {
                let value = args.next().ok_or("--root requires a path")?;
                opts.root = PathBuf::from(value);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "\
tcbf-lint: workspace invariant checker (see docs/LINTS.md)

USAGE: tcbf-lint [--root PATH] [--deny-all] [--quiet]

  --root PATH    workspace root to lint (default: this workspace)
  --deny-all     exit 1 on any finding (the CI mode)
  --quiet        suppress per-finding output, keep the summary line";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match lint_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if !opts.quiet {
        for finding in &report.findings {
            println!("{finding}");
        }
    }
    let open = report.findings.len();
    println!(
        "TCBF-U001: {open} finding(s), {} files scanned",
        report.files_scanned
    );

    if opts.deny_all && open > 0 {
        eprintln!("error: {open} finding(s) under --deny-all");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
