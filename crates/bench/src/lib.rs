//! Shared harness for the experiment regenerators.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one table or figure of
//! the paper (see DESIGN.md § 3 for the index); this library holds the
//! codec roster, the evaluation loop, and the plain-text table printers
//! they share.

pub mod csv;
pub mod report;
pub mod roster;
pub mod run;

pub use csv::Csv;
pub use report::Table;
pub use roster::{codec_roster, CodecEntry};
pub use run::{eval_codec, throughput_gbps, EvalRow, QOZ_DECOMP_GBPS};

use cuszi_datagen::Scale;

/// Parse the common arguments of the `exp_*` binaries: `[--paper]`
/// selects Table II dimensions, `[--seed N]` the dataset seed (default
/// 42). An unknown argument, a missing seed or one that is not a `u64`
/// is an error naming the offending input.
pub fn parse_args_from<I>(args: I) -> Result<(Scale, u64), String>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut scale = Scale::Small;
    let mut seed = 42u64;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_ref() {
            "--paper" => scale = Scale::Paper,
            "--seed" => {
                let s = args.next().ok_or("--seed needs a value")?;
                let s = s.as_ref();
                seed = s.parse().map_err(|_| format!("--seed: `{s}` is not a u64"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((scale, seed))
}

/// [`parse_args_from`] over the process arguments; on bad input, print
/// a one-line usage error and exit 2.
pub fn parse_args() -> (Scale, u64) {
    parse_args_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e} (usage: [--paper] [--seed N])");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_accepts_the_common_flags() {
        let none: [&str; 0] = [];
        assert_eq!(parse_args_from(none), Ok((Scale::Small, 42)));
        assert_eq!(parse_args_from(["--seed", "7"]), Ok((Scale::Small, 7)));
        assert_eq!(parse_args_from(["--paper", "--seed", "9"]), Ok((Scale::Paper, 9)));
    }

    #[test]
    fn parse_args_takes_the_last_of_repeated_flags() {
        assert_eq!(parse_args_from(["--seed", "1", "--seed", "2"]), Ok((Scale::Small, 2)));
        assert_eq!(parse_args_from(["--paper", "--paper"]), Ok((Scale::Paper, 42)));
        let max = ["--seed", "18446744073709551615"];
        assert_eq!(parse_args_from(max), Ok((Scale::Small, u64::MAX)));
    }

    #[test]
    fn parse_args_rejects_unknown_arguments() {
        let err = parse_args_from(["--papr"]).unwrap_err();
        assert!(err.contains("unknown argument `--papr`"), "{err}");
        assert!(parse_args_from(["--seed", "1", "extra"]).is_err());
    }

    #[test]
    fn parse_args_rejects_malformed_seeds() {
        let err = parse_args_from(["--seed", "x"]).unwrap_err();
        assert!(err.contains("`x` is not a u64"), "{err}");
        assert!(parse_args_from(["--seed", "-1"]).is_err());
        assert_eq!(parse_args_from(["--seed"]), Err("--seed needs a value".to_string()));
    }
}
