//! Regenerate the checked-in tuning table.
//!
//! ```text
//! cargo run --release -p bgp-tune --bin tune_table              # full grid -> tuning/default.json
//! cargo run --release -p bgp-tune --bin tune_table -- --quick   # 64-node quad only (tests)
//! cargo run --release -p bgp-tune --bin tune_table -- --out t.json
//! cargo run --release -p bgp-tune --bin tune_table -- --print   # stdout only
//! cargo run --release -p bgp-tune --bin tune_table -- --check   # compare, write nothing
//! ```
//!
//! The sweep is fully deterministic, so rerunning on an unchanged tree
//! reproduces `tuning/default.json` byte for byte; a diff after a cost-model
//! or executor change is the measured effect of that change on selection.
//! `--check` (run by `ci.sh`) regenerates in memory and fails, naming the
//! first differing shape, when the file no longer matches.

use std::process::ExitCode;

use bgp_mpi::tune::TuningTable;
use bgp_tune::{autotune, AutotuneOpts};

const DEFAULT_PATH: &str = "tuning/default.json";

/// `--check`: the regenerated document must equal the file byte for byte.
fn check(fresh: &str, path: &str) -> ExitCode {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if committed == fresh {
        eprintln!("{path} is up to date");
        return ExitCode::SUCCESS;
    }
    let what = match (TuningTable::parse(fresh), TuningTable::parse(&committed)) {
        (Ok(f), Ok(c)) => match f.entries.iter().zip(&c.entries).find(|(a, b)| a != b) {
            Some((a, _)) => format!("first differing shape: {:?} x {} nodes", a.mode, a.nodes),
            None if f.entries.len() != c.entries.len() => format!(
                "{} shapes regenerated, {} in the file",
                f.entries.len(),
                c.entries.len()
            ),
            None => "same shapes, the header or the formatting differs".to_string(),
        },
        (_, Err(e)) => format!("the file does not parse: {e}"),
        (Err(e), _) => format!("the regenerated table does not parse: {e}"),
    };
    eprintln!("{path} is stale: {what}");
    eprintln!("regenerate with `cargo run --release -p bgp-tune --bin tune_table`");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut opts = AutotuneOpts::paper();
    let mut out: Option<String> = Some(DEFAULT_PATH.to_string());
    let mut checking = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts = AutotuneOpts::quick(),
            "--print" => out = None,
            "--check" => checking = true,
            "--out" => match args.next() {
                Some(p) => out = Some(p),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other}; flags: --quick --print --check --out <path>");
                return ExitCode::FAILURE;
            }
        }
    }

    let table = autotune(&opts);
    let json = table.to_json();
    for e in &table.entries {
        let regions = e
            .regions
            .iter()
            .map(|r| {
                format!(
                    "{}<= {} ({:.0}%)",
                    bgp_mpi::tune::alg_id(r.alg),
                    r.upto.map_or("inf".to_string(), |b| b.to_string()),
                    r.confidence * 100.0
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!("{:?} x {} nodes: {regions}", e.mode, e.nodes);
    }
    if checking {
        return check(&json, out.as_deref().unwrap_or(DEFAULT_PATH));
    }
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}
