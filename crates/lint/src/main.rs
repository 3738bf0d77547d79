//! `mcs-lint` CLI: lint the workspace sources, print a report, gate CI.
//!
//! Usage: `mcs-lint [--json] [--baseline PATH] [--write-baseline PATH]
//! [--root PATH] [--list-rules]`. Exit code 0 when no `error`-severity
//! finding survives suppression and the baseline; 1 otherwise; 2 for
//! usage or I/O problems. The default baseline is `<root>/lint.baseline`
//! (loaded only if present).

use std::path::PathBuf;
use std::process::ExitCode;

use mcs_lint::baseline::Baseline;
use mcs_lint::rules;
use mcs_lint::workspace::{find_root, Workspace};

struct Options {
    json: bool,
    list_rules: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

const USAGE: &str = "\
mcs-lint: source-level invariant checks for the mcs workspace

USAGE:
    mcs-lint [OPTIONS]

OPTIONS:
    --json                  emit the report as one JSON object on stdout
    --baseline PATH         accepted-findings file (default: <root>/lint.baseline)
    --write-baseline PATH   write surviving findings to PATH and exit
    --root PATH             workspace root (default: walk up to [workspace])
    --list-rules            print rule ids and descriptions, then exit
    -h, --help              print this help
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        list_rules: false,
        root: None,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                opts.root = Some(args.next().ok_or("--root needs a path")?.into());
            }
            "--baseline" => {
                opts.baseline = Some(args.next().ok_or("--baseline needs a path")?.into());
            }
            "--write-baseline" => {
                opts.write_baseline =
                    Some(args.next().ok_or("--write-baseline needs a path")?.into());
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mcs-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in rules::standard() {
            println!("{:<18} {}", rule.id(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    let Some(root) =
        opts.root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd)))
    else {
        eprintln!("mcs-lint: no [workspace] Cargo.toml above the current directory; use --root");
        return ExitCode::from(2);
    };

    let ws = match Workspace::load(&root, &rules::standard_ids()) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("mcs-lint: failed to load {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts.baseline.unwrap_or_else(|| root.join("lint.baseline"));
    let baseline = match Baseline::load(&baseline_path) {
        Ok(Ok(b)) => b,
        Ok(Err(e)) => {
            eprintln!("mcs-lint: {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("mcs-lint: failed to read {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = opts.write_baseline {
        let out = mcs_lint::run(&ws, &Baseline::default());
        let text = Baseline::render(&out.diagnostics);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("mcs-lint: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "mcs-lint: wrote {} accepted finding(s) to {}",
            out.diagnostics.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let out = mcs_lint::run(&ws, &baseline);
    if opts.json {
        println!("{}", out.render_json());
    } else {
        print!("{}", out.render_text());
    }
    if out.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
