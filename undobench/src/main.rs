//! `undobench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a table of the run's metrics, then the result as one JSON line
//! (the last line of standard output). Exits 1 when a correctness check
//! failed, 2 on bad arguments or a failed set-up.

use undobench::common::{arm_time_limit, parse_args, RUN_LIMIT};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("undobench: {e}");
            eprintln!(
                "usage: undobench --workload <search_walk|undo_cascade|serve_mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    arm_time_limit(RUN_LIMIT);
    let (result, checks) = match undobench::run_named(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("undobench: set-up failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{} seed {} trace {}: {} ops attempted, {} failed, {} checks, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        result.attempted,
        result.failed,
        checks.run,
        checks.failures.len()
    );
    for f in checks.failures.iter().take(10) {
        eprintln!("CHECK FAILED: {f}");
    }
    for n in &result.notes {
        println!("{n}");
    }
    print!("{}", result.table());
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}
