//! `steerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host record and every metric by name with its unit, then
//! one JSON result line. Exits 1 when a check fails, 2 on a usage error.

use std::process::ExitCode;
use steerbench::{bench, cli};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let req = &args.request;
    let mut outcome = match bench::run(req) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("steerbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    let correct = outcome.correct();
    if !correct {
        for m in outcome.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
            m.value = 0.0;
        }
    }
    let text = cli::record(req, &outcome);
    print!("{text}");
    if let Some(path) = &args.compare {
        match std::fs::read_to_string(path) {
            Ok(base) => print!("{}", cli::compare(&base, &outcome.host, &outcome.metrics)),
            Err(e) => eprintln!("compare: cannot read {}: {e}", path.display()),
        }
    }
    let dir = std::path::Path::new(cli::OUT_DIR);
    let path = cli::record_path(dir, req);
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &text)) {
        Ok(()) => println!("record {}", path.display()),
        Err(e) => eprintln!("record: cannot write {}: {e}", path.display()),
    }
    println!("{}", cli::result_json(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
