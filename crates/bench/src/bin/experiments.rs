//! Regenerates every experiment table from EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p tpnr-bench --bin experiments`.
//!
//! Extra modes, where `[path|-]` is an output file (stdout when it is `-`
//! or omitted):
//! - `--bench-eN [path|-] [--quick]`, for N in 4, 8, 10, 12, 13, 14, writes
//!   experiment EN's rows as JSONL (`BENCH_eN.json`; EXPERIMENTS.md
//!   describes each sweep). `--quick` runs the smaller CI-smoke sweep. Once
//!   the file is written, the binary exits 1 if any row failed one of its
//!   gates, naming each failing row and gate;
//! - `--trace-jsonl [path|-]` exports the observability stream of a faulted
//!   multi-client run as JSONL;
//! - `--validate-jsonl <file>` syntax-checks such an export (CI uses this
//!   pair to guard the formats).

use std::process::exit;
use tpnr_bench::report::*;
use tpnr_bench::row::Export;
use tpnr_bench::*;
use tpnr_crypto::hash::HashAlg;

const USAGE: &str = "usage: experiments [--bench-e{4,8,10,12,13,14} [path|-] [--quick] \
                     | --trace-jsonl [path|-] | --validate-jsonl <file>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(flag) = args.first().map(String::as_str) else {
        return print_tables();
    };
    if flag == "--validate-jsonl" {
        return validate(args.get(1).unwrap_or_else(|| usage("missing <file>")));
    }
    let (path, quick) = bench_args(&args[1..]).unwrap_or_else(|e| usage(&e));
    if flag == "--trace-jsonl" {
        if quick {
            usage("--trace-jsonl takes no --quick");
        }
        return emit(path, &trace_jsonl(2026));
    }
    let export = run_bench(flag, quick).unwrap_or_else(|| usage(&format!("unknown flag {flag}")));
    emit(path, &export.jsonl);
    for failure in &export.failures {
        eprintln!("error: gate failed: {failure}");
    }
    if !export.failures.is_empty() {
        exit(1);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    exit(2);
}

/// Parses the arguments after a mode flag: at most one output path (`-` or
/// an argument not starting with `--`) and `--quick`.
fn bench_args(args: &[String]) -> Result<(Option<&str>, bool), String> {
    let (mut path, mut quick) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            p if path.is_none() && (p == "-" || !p.starts_with("--")) => path = Some(p),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok((path, quick))
}

/// Runs one `--bench-eN` sweep, full or `quick`; `None` for an unknown flag.
fn run_bench(flag: &str, quick: bool) -> Option<Export> {
    let mut export = Export::default();
    match flag {
        "--bench-e4" => {
            let sizes: &[usize] = if quick {
                &[1 << 10, 1 << 16, 1 << 20]
            } else {
                &[1 << 10, 1 << 16, 1 << 20, 16 << 20]
            };
            export.push_rows(&e4_evidence_cost(sizes, &[HashAlg::Md5, HashAlg::Sha256]));
            export.push_rows(&sizes.iter().map(|&s| e4_transport_copies(s)).collect::<Vec<_>>());
        }
        "--bench-e8" => {
            let (permilles, trials): (&[u32], usize) =
                if quick { (&[0, 150, 300], 10) } else { (&[0, 100, 200, 300], 40) };
            export.push_rows(&e8_chaos(permilles, trials));
        }
        "--bench-e10" => {
            let counts: &[usize] = if quick {
                &[1_000, 10_000, 50_000]
            } else {
                &[1_000, 10_000, 100_000, 250_000, 1_000_000]
            };
            export.push_rows(&e10_scale(counts, 2026));
        }
        "--bench-e12" => {
            let bit_sizes: &[usize] = if quick { &[512] } else { &[512, 1024, 2048] };
            let (rows, batches) = e12_rsa_kernels(bit_sizes, quick);
            export.push_rows(&rows);
            export.push_rows(&batches);
        }
        "--bench-e13" => {
            export.push_rows(&e13_worker_sweep(if quick { 2_048 } else { 20_480 }, 2026))
        }
        "--bench-e14" => export.push_rows(&e14_backend_comparison(2026, quick)),
        _ => return None,
    }
    Some(export)
}

/// Writes `text` to `path`, or to stdout when `path` is `None` or `-`.
fn emit(path: Option<&str>, text: &str) {
    match path {
        None | Some("-") => print!("{text}"),
        Some(p) => {
            if let Err(e) = std::fs::write(p, text) {
                eprintln!("error: cannot write {p}: {e}");
                exit(1);
            }
            eprintln!("wrote {} JSONL lines to {p}", text.lines().count());
        }
    }
}

fn validate(path: &str) {
    let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(1);
    });
    match validate_jsonl(&contents) {
        Ok(n) => eprintln!("{path}: {n} valid JSONL lines"),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            exit(1);
        }
    }
}

fn print_tables() {
    println!("{}", render_e1(&e1_vulnerability_matrix(2026)));
    println!(
        "{}",
        render_e2(&e2_protocol_comparison(&[10, 50, 100, 300], &[1024, 1 << 20, 16 << 20]))
    );
    println!("{}", render_e3(&e3_attack_matrix()));
    println!(
        "{}",
        render_e4(&e4_evidence_cost(
            &[1 << 10, 1 << 16, 1 << 20, 16 << 20],
            &[HashAlg::Md5, HashAlg::Sha256],
        ))
    );
    println!("{}", render_e5(&e5_shipping_overhead(&[24, 48, 72, 120])));
    println!("{}", render_e6(&e6_ttp_load(&[0.0, 0.05, 0.1, 0.2, 0.3, 0.5], 40)));
    println!("{}", render_e7(&e7_bridge_schemes(2026)));
    println!("{}", render_e8(&e8_chaos(&[0, 100, 200, 300], 40)));
    println!("{}", render_e10(&e10_scale(&[1_000, 5_000], 2026)));
    let (rows, batches) = e12_rsa_kernels(&[512, 1024], false);
    println!("{}", render_e12(&rows, &batches));
    println!("{}", render_e13(&e13_worker_sweep(2_048, 2026)));
    println!("{}", render_e14(&e14_backend_comparison(2026, true)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Option<String>, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        bench_args(&args).map(|(path, quick)| (path.map(str::to_string), quick))
    }

    #[test]
    fn bench_args_take_one_path_and_quick() {
        assert_eq!(parse(&[]), Ok((None, false)));
        assert_eq!(parse(&["-", "--quick"]), Ok((Some("-".into()), true)));
        assert_eq!(parse(&["--quick", "out.json"]), Ok((Some("out.json".into()), true)));
        // A mistyped flag is an error, not the output path, and so is a
        // second path.
        assert!(parse(&["--quik"]).is_err());
        assert!(parse(&["out.json", "--quik"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());
    }
}
