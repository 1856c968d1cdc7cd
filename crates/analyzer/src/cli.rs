//! Flags of the `llama3sim analyze` subcommand: pre-flight static
//! analysis of a named configuration or the whole conformance grid,
//! with **no simulation**. Exit code 0 means no error-severity
//! findings; 1 means at least one plan would hang, deadlock or OOM; 2
//! is a usage error.

use crate::NAMED_CONFIGS;
use bench_harness::cli::Flags;

/// Parsed options for the `analyze` subcommand.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeArgs {
    /// Enumerate the named configurations and exit.
    pub list: bool,
    /// Analyze one named configuration.
    pub config: Option<String>,
    /// Sweep the 64-config conformance grid.
    pub grid: bool,
    /// Emit one JSON object per diagnostic instead of human text.
    pub json: bool,
}

impl AnalyzeArgs {
    /// Parses `--list | --config NAME [--json] | --grid [--json]`.
    pub fn parse(args: &[String]) -> Result<AnalyzeArgs, String> {
        let mut f = Flags::new(args);
        // lint: allow(cli-args) — the canonical constructor
        let parsed = AnalyzeArgs {
            list: f.switch("list"),
            config: f.opt("config")?,
            grid: f.switch("grid"),
            json: f.switch("json"),
        };
        f.finish()?;
        let modes = usize::from(parsed.list)
            + usize::from(parsed.config.is_some())
            + usize::from(parsed.grid);
        if modes != 1 {
            return Err("exactly one of --list, --config NAME, --grid is required".to_string());
        }
        Ok(parsed)
    }
}

/// Prints the usage text (to stderr) with the named-config catalog.
pub fn print_usage(invocation: &str) {
    eprintln!(
        "usage: {invocation} --config NAME [--json]\n       {invocation} --grid [--json]\n       {invocation} --list"
    );
    eprintln!("\nnamed configs:");
    for (name, desc) in NAMED_CONFIGS {
        eprintln!("  {name:<22} {desc}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exactly_one_mode_is_required() {
        assert!(AnalyzeArgs::parse(&args(&[])).is_err());
        assert!(AnalyzeArgs::parse(&args(&["--list", "--grid"])).is_err());
        let a = AnalyzeArgs::parse(&args(&["--config", "scaled_405b", "--json"])).unwrap();
        assert_eq!(a.config.as_deref(), Some("scaled_405b"));
        assert!(a.json && !a.list && !a.grid);
    }
}
