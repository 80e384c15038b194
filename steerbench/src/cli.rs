//! Command line, printed report, result record and host-aware comparison.

use crate::bench::{Metric, Outcome, Request};
use crate::host::Host;
use crate::replay::Skip;
use crate::workload::Size;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Where result records and span tables are written, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = "steerbench/out";

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The measurement request.
    pub request: Request,
    /// A record file to compare against.
    pub compare: Option<PathBuf>,
}

const USAGE: &str =
    "usage: steerbench --workload <viewers_lbm|relay_fanout|steer_ckpt|pepc_steer> \
--seed <n> --seconds <s> --trace <0|1> [--compare <record>]";

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = crate::workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("out of (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--compare" => compare = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        request: Request {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            seconds,
            trace,
            size: Size::Full,
            skip: Skip::Nothing,
            pin_override: None,
        },
        compare,
    })
}

fn num(v: f64) -> String {
    // JSON has no NaN/inf; callers reject non-finite values first
    format!("{v}")
}

/// The one-line JSON result (the last line of standard output).
pub fn result_json(o: &Outcome, correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The human-readable report printed before the JSON line, which is also
/// the content of the result record.
pub fn record(req: &Request, o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{}", o.host.render());
    let _ = writeln!(
        s,
        "workload {} seed={} trace={} size={:?} digest={}",
        req.workload,
        req.seed,
        u8::from(req.trace),
        req.size,
        o.digest
    );
    let what = if req.trace {
        "traced replays"
    } else {
        "timed runs"
    };
    let _ = writeln!(
        s,
        "runs {} {what} (metrics are medians over them)",
        o.walls.len()
    );
    let ms = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{:.2}", w * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(s, "walls_ms {}", ms(&o.walls));
    let _ = writeln!(s, "setups_ms {}", ms(&o.setups));
    let _ = writeln!(s, "metric error_rate {} ratio", num(o.error_rate()));
    for m in &o.metrics {
        let _ = writeln!(s, "metric {} {} {}", m.name, num(m.value), m.unit);
    }
    for &(span, calls, self_s, total_s) in &o.spans {
        let _ = writeln!(
            s,
            "span {span:?} calls={calls} self_s={self_s:.6} total_s={total_s:.6}"
        );
    }
    for f in &o.failures {
        let _ = writeln!(s, "FAIL {f}");
    }
    s
}

/// Metrics of a record written by [`record`].
fn parse_metrics(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut f = l.split(' ');
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect()
}

/// Compare this invocation's metrics against an earlier record. A record
/// from a host with another core count (and so another pool size) or
/// kernel backend is flagged and not compared.
pub fn compare(baseline: &str, host: &Host, metrics: &[Metric]) -> String {
    let theirs = baseline.lines().find_map(Host::parse);
    let ours = (host.nproc, host.simd.to_string());
    match theirs {
        None => return "compare: FLAGGED: baseline has no host record; not compared\n".into(),
        Some(t) if t != ours => {
            return format!(
                "compare: FLAGGED: baseline recorded on nproc={} simd={}, \
                 this host is nproc={} simd={}; not compared\n",
                t.0, t.1, ours.0, ours.1
            )
        }
        Some(_) => {}
    }
    let base = parse_metrics(baseline);
    let mut s = String::new();
    for m in metrics {
        if let Some((_, b)) = base.iter().find(|(n, _)| n == m.name) {
            let change = if *b == 0.0 {
                0.0
            } else {
                (m.value - b) / b * 100.0
            };
            let _ = writeln!(
                s,
                "compare {} {} -> {} ({change:+.1}%)",
                m.name,
                num(*b),
                num(m.value)
            );
        }
    }
    s
}

/// File name of the record of one invocation.
pub fn record_path(dir: &Path, req: &Request) -> PathBuf {
    dir.join(format!(
        "{}-seed{}-trace{}.txt",
        req.workload,
        req.seed,
        u8::from(req.trace)
    ))
}
