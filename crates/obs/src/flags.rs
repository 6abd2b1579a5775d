//! Shared `--trace-out` / `--metrics-out` command-line handling.
//!
//! Every lab binary and example accepts the same two flags; this keeps
//! the parsing and the file writing in one place. `--trace-out` records
//! the run's [`TraceLog`] in the binary store format that `marp-trace`
//! consumes; `--metrics-out` dumps the per-node metrics registry as CSV.

use crate::registry::MetricsRegistry;
use crate::store::save_trace;
use marp_sim::TraceLog;
use std::path::PathBuf;
use std::time::Duration;

/// Observability output destinations extracted from argv.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ObsOptions {
    /// Destination for the binary trace (`--trace-out <path>`).
    pub trace_out: Option<PathBuf>,
    /// Destination for the metrics CSV (`--metrics-out <path>`).
    pub metrics_out: Option<PathBuf>,
}

impl ObsOptions {
    /// Remove `--trace-out <path>` / `--metrics-out <path>` (and the
    /// `=`-joined forms) from `args`, leaving the rest untouched so the
    /// binary's own argument handling sees only what it expects.
    pub fn extract(args: &mut Vec<String>) -> ObsOptions {
        let mut opts = ObsOptions::default();
        let mut kept = Vec::with_capacity(args.len());
        let mut iter = std::mem::take(args).into_iter();
        while let Some(arg) = iter.next() {
            if let Some(path) = arg.strip_prefix("--trace-out=") {
                opts.trace_out = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
                opts.metrics_out = Some(PathBuf::from(path));
            } else if arg == "--trace-out" {
                opts.trace_out = iter.next().map(PathBuf::from);
            } else if arg == "--metrics-out" {
                opts.metrics_out = iter.next().map(PathBuf::from);
            } else {
                kept.push(arg);
            }
        }
        *args = kept;
        opts
    }

    /// Parse directly from the process arguments (skipping `argv[0]`).
    pub fn from_env() -> ObsOptions {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        ObsOptions::extract(&mut args)
    }

    /// True when at least one output was requested.
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Write whichever outputs were requested. Returns a short status
    /// line per file written (for the binary to print), or the first
    /// I/O error encountered.
    pub fn write(&self, trace: &TraceLog) -> std::io::Result<Vec<String>> {
        let mut written = Vec::new();
        if let Some(path) = &self.trace_out {
            save_trace(path, trace)?;
            written.push(format!(
                "trace: {} records -> {}",
                trace.records().len(),
                path.display()
            ));
        }
        if let Some(path) = &self.metrics_out {
            let registry = MetricsRegistry::from_trace(trace, Duration::from_millis(100));
            std::fs::write(path, registry.to_csv())?;
            written.push(format!("metrics: csv -> {}", path.display()));
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_removes_only_obs_flags() {
        let mut args = argv(&[
            "--nodes",
            "5",
            "--trace-out",
            "/tmp/t.bin",
            "--seed=9",
            "--metrics-out=/tmp/m.csv",
        ]);
        let opts = ObsOptions::extract(&mut args);
        assert_eq!(opts.trace_out, Some(PathBuf::from("/tmp/t.bin")));
        assert_eq!(opts.metrics_out, Some(PathBuf::from("/tmp/m.csv")));
        assert_eq!(args, argv(&["--nodes", "5", "--seed=9"]));
        assert!(opts.any());
    }

    #[test]
    fn absent_flags_mean_no_outputs() {
        let mut args = argv(&["--nodes", "5"]);
        let opts = ObsOptions::extract(&mut args);
        assert!(!opts.any());
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn write_produces_both_files() {
        let dir = std::env::temp_dir().join("marp-obs-flags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ObsOptions {
            trace_out: Some(dir.join("t.bin")),
            metrics_out: Some(dir.join("m.csv")),
        };
        let trace = TraceLog::new();
        let written = opts.write(&trace).unwrap();
        assert_eq!(written.len(), 2);
        assert!(dir.join("t.bin").exists());
        assert!(std::fs::read_to_string(dir.join("m.csv"))
            .unwrap()
            .starts_with("section,node,metric"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
