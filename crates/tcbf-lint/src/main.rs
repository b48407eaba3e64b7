//! CLI driver: `cargo run -p tcbf-lint [-- flags]`.
//!
//! Exit codes:
//! - `0` — no unwaived findings and no stale waivers (or advisory mode
//!   without `--deny-all`)
//! - `1` — unwaived findings or stale waivers under `--deny-all`
//! - `2` — bad flags or an unreadable tree

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use tcbf_lint::config::LintConfig;
use tcbf_lint::{default_root, lint_workspace, Report};

struct Options {
    root: PathBuf,
    deny_all: bool,
    summary_md: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: default_root(),
        deny_all: false,
        summary_md: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--summary-md" => opts.summary_md = true,
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

USAGE: tcbf-lint [--root PATH] [--deny-all] [--summary-md] [--quiet]

  --root PATH    workspace root to lint (default: this workspace)
  --deny-all     exit 1 on any unwaived finding or stale waiver
                 (the CI mode); waivers are LintConfig::default()'s
  --summary-md   print the per-rule summary as a markdown table
  --quiet        suppress per-finding output, keep the summary";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match lint_workspace(&opts.root, &LintConfig::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if !opts.quiet {
        for finding in report.unsuppressed() {
            println!("{finding}");
        }
    }

    print_summary(&report, opts.summary_md);

    for stale in &report.stale_waivers {
        eprintln!(
            "warning: stale waiver: {} on {} for lines containing `{}` matches nothing",
            stale.rule, stale.path, stale.pattern
        );
    }

    let unsuppressed = report.unsuppressed().count();
    if opts.deny_all && unsuppressed + report.stale_waivers.len() > 0 {
        eprintln!(
            "error: {unsuppressed} unwaived finding(s) and {} stale waiver(s) under --deny-all",
            report.stale_waivers.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn print_summary(report: &Report, markdown: bool) {
    let mut by_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for rule in tcbf_lint::rules::ALL_RULES {
        by_rule.insert(rule, (0, 0));
    }
    for f in &report.findings {
        let slot = by_rule.entry(f.rule).or_insert((0, 0));
        if f.suppressed_by.is_some() {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }
    let total_open: usize = by_rule.values().map(|v| v.0).sum();
    let total_allowed: usize = by_rule.values().map(|v| v.1).sum();

    if markdown {
        println!("| rule | open | allowed |");
        println!("| --- | ---: | ---: |");
        for (rule, (open, allowed)) in &by_rule {
            println!("| {rule} | {open} | {allowed} |");
        }
        println!("| **total** | **{total_open}** | **{total_allowed}** |");
        println!();
        println!("{} files scanned.", report.files_scanned);
    } else {
        println!("rule        open  allowed");
        for (rule, (open, allowed)) in &by_rule {
            println!("{rule:<12}{open:>4}{allowed:>9}");
        }
        println!(
            "total       {total_open:>4}{total_allowed:>9}   ({} files scanned)",
            report.files_scanned
        );
    }
}
