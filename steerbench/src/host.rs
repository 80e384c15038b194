//! The host record: what the numbers were measured on.

use std::fmt::Write;

/// Where and how a run was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Cores the process may run on.
    pub nproc: usize,
    /// Executor pool size (the calling thread included).
    pub pool_threads: usize,
    /// Kernel backend label (`GRIDSTEER_SIMD` / `lanes::Backend`).
    pub simd: &'static str,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// The current host, measured with a pool of `pool_threads`.
    pub fn detect(pool_threads: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads,
            simd: lanes::backend().label(),
            rustc: env!("STEERBENCH_RUSTC"),
        }
    }

    /// `host nproc=2 pool_threads=2 simd=simd rustc=rustc 1.95.0 (…)`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "host nproc={} pool_threads={} simd={} rustc={}",
            self.nproc, self.pool_threads, self.simd, self.rustc
        );
        s
    }

    /// Parse a line written by [`Host::render`]: `(nproc, simd)`.
    pub fn parse(line: &str) -> Option<(usize, String)> {
        let rest = line.strip_prefix("host ")?;
        let field = |key: &str| {
            rest.split(' ')
                .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        };
        Some((field("nproc")?.parse().ok()?, field("simd")?.to_string()))
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parses_back() {
        let h = Host {
            nproc: 2,
            pool_threads: 2,
            simd: "simd",
            rustc: "rustc 1.0.0 (abc 2020-01-01)",
        };
        assert_eq!(Host::parse(&h.render()), Some((2, "simd".into())));
    }
}
