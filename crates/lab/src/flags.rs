//! Command-line flags: the one observability flag, `--trace-out`,
//! which `marp-lab` and the examples share, and the check that an
//! experiment reading no flags was given none.
//!
//! `--trace-out` records the run's [`TraceLog`] in the binary store
//! format that `marp-trace` consumes (`marp-trace metrics` turns it into
//! the per-node CSV).

use marp_obs::save_trace;
use marp_sim::TraceLog;
use std::path::PathBuf;

/// Run an experiment that reads no flags, or name the first flag given.
pub(crate) fn flagless(args: &[String], run: impl FnOnce() -> String) -> Result<String, String> {
    match args.first() {
        Some(flag) => Err(format!("unknown flag {flag}")),
        None => Ok(run()),
    }
}

/// Observability output destinations extracted from argv.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ObsOptions {
    /// Destination for the binary trace (`--trace-out <path>`).
    pub trace_out: Option<PathBuf>,
}

impl ObsOptions {
    /// Remove `--trace-out <path>` (and the `=`-joined form) from
    /// `args`, leaving the rest untouched so the binary's own argument
    /// handling sees only what it expects.
    pub fn extract(args: &mut Vec<String>) -> ObsOptions {
        let mut opts = ObsOptions::default();
        let mut kept = Vec::with_capacity(args.len());
        let mut iter = std::mem::take(args).into_iter();
        while let Some(arg) = iter.next() {
            if let Some(path) = arg.strip_prefix("--trace-out=") {
                opts.trace_out = Some(PathBuf::from(path));
            } else if arg == "--trace-out" {
                opts.trace_out = iter.next().map(PathBuf::from);
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

    /// Save the trace if `--trace-out` was given. Returns a short status
    /// line for the binary to print when a file was written.
    pub fn write(&self, trace: &TraceLog) -> std::io::Result<Option<String>> {
        let Some(path) = &self.trace_out else {
            return Ok(None);
        };
        save_trace(path, trace)?;
        Ok(Some(format!(
            "trace: {} records -> {}",
            trace.records().len(),
            path.display()
        )))
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
        let mut args = argv(&["--nodes", "5", "--trace-out", "/tmp/t.bin", "--seed=9"]);
        let opts = ObsOptions::extract(&mut args);
        assert_eq!(opts.trace_out, Some(PathBuf::from("/tmp/t.bin")));
        assert_eq!(args, argv(&["--nodes", "5", "--seed=9"]));
    }

    #[test]
    fn absent_flags_mean_no_outputs() {
        let mut args = argv(&["--nodes", "5"]);
        let opts = ObsOptions::extract(&mut args);
        assert_eq!(opts, ObsOptions::default());
        assert_eq!(opts.write(&TraceLog::new()).unwrap(), None);
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn write_saves_the_trace() {
        let dir = std::env::temp_dir().join("marp-lab-flags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = ObsOptions {
            trace_out: Some(dir.join("t.bin")),
        };
        let trace = TraceLog::new();
        let written = opts.write(&trace).unwrap().unwrap();
        assert!(written.starts_with("trace: 0 records -> "), "{written}");
        let back = marp_obs::load_trace(&dir.join("t.bin")).unwrap();
        assert!(back.records().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
