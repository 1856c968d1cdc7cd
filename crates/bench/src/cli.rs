//! Minimal shared flag parsing for the `llama3sim` subcommands.
//!
//! One deliberate shape: every subcommand consumes its CLI-only flags
//! through a [`Flags`] cursor (`--name` switches, `--name VALUE`
//! options) and either finishes with [`Flags::finish`] or hands the
//! rest to the query parser ([`Flags::into_rest`]), so unknown or
//! leftover arguments fail the same way everywhere.

/// A cursor over raw CLI arguments. Flags may appear in any order;
/// each accessor removes what it consumed, and [`Flags::finish`]
/// rejects anything left over.
#[derive(Debug, Clone)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Wraps the argument list (program name and subcommand already
    /// stripped).
    pub fn new(args: &[String]) -> Flags {
        Flags {
            args: args.to_vec(),
        }
    }

    /// Consumes `--name` if present; `true` when it was.
    pub fn switch(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        match self.args.iter().position(|a| *a == flag) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    /// Consumes `--name VALUE` if present. `Err` when the flag is
    /// present but its value is missing.
    pub fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let flag = format!("--{name}");
        let Some(i) = self.args.iter().position(|a| *a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{flag} requires a value"));
        }
        self.args.remove(i);
        Ok(Some(self.args.remove(i)))
    }

    /// The arguments no accessor consumed, in order, for a caller that
    /// hands them on to another parser.
    pub fn into_rest(self) -> Vec<String> {
        self.args
    }

    /// Errors on any argument not consumed by the accessors above.
    pub fn finish(self) -> Result<(), String> {
        match self.args.first() {
            None => Ok(()),
            Some(a) => Err(format!("unrecognized argument {a:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn switches_and_options_consume_in_any_order() {
        let mut f = Flags::new(&args(&["--seed", "0xC0FFEE", "--json", "--cases", "9"]));
        assert!(f.switch("json"));
        assert!(!f.switch("json"), "consumed switches do not repeat");
        assert_eq!(f.opt("cases").unwrap().as_deref(), Some("9"));
        assert_eq!(f.opt("seed").unwrap().as_deref(), Some("0xC0FFEE"));
        f.finish().unwrap();
    }

    #[test]
    fn leftovers_and_missing_values_error() {
        let f = Flags::new(&args(&["--what"]));
        assert!(f.finish().unwrap_err().contains("--what"));
        let mut f = Flags::new(&args(&["--cases"]));
        assert!(f.opt("cases").unwrap_err().contains("requires a value"));
    }
}
