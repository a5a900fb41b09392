//! The command-line flags `repro` and `realdata` share.

use std::fmt;

use rv_study::StudyParams;

/// A refused value of a shared flag. `Display` is the message each
/// binary prints after its own prefix before it exits 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagError {
    /// `--scale` without a positive, finite number.
    Scale,
    /// `--seed` without an unsigned integer.
    Seed,
    /// `--jobs` without a positive integer.
    Jobs,
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlagError::Scale => "--scale wants a positive number",
            FlagError::Seed => "--seed wants an integer",
            FlagError::Jobs => "--jobs wants a positive integer",
        })
    }
}

/// Parses `--scale`, `--seed` or `--jobs` with its `value` (the next
/// argument, if any) into `params`. `Ok(true)` when `flag` was one of
/// them and took `value`, `Ok(false)` when it is some other argument.
pub fn campaign_flag(
    params: &mut StudyParams,
    flag: &str,
    value: Option<&str>,
) -> Result<bool, FlagError> {
    match flag {
        "--scale" => {
            params.scale = value
                .and_then(|s| s.parse().ok())
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .ok_or(FlagError::Scale)?;
        }
        "--seed" => params.seed = value.and_then(|s| s.parse().ok()).ok_or(FlagError::Seed)?,
        "--jobs" => {
            params.jobs = value
                .and_then(|s| s.parse().ok())
                .filter(|j| *j >= 1)
                .ok_or(FlagError::Jobs)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flag: &str, value: Option<&str>) -> Result<StudyParams, FlagError> {
        let mut params = StudyParams::default();
        campaign_flag(&mut params, flag, value).map(|_| params)
    }

    #[test]
    fn shared_flags_set_their_params() {
        let p = parse("--scale", Some("0.25")).unwrap();
        assert_eq!(p.scale, 0.25);
        assert_eq!(parse("--seed", Some("777")).unwrap().seed, 777);
        assert_eq!(parse("--jobs", Some("3")).unwrap().jobs, 3);
        let mut params = StudyParams::default();
        assert_eq!(campaign_flag(&mut params, "--faults", None), Ok(false));
        assert_eq!(
            campaign_flag(&mut params, "fig11", Some("--jobs")),
            Ok(false)
        );
    }

    #[test]
    fn scale_refuses_zero_negative_and_non_finite() {
        for bad in ["0", "-1", "inf", "NaN", "x"] {
            assert_eq!(
                parse("--scale", Some(bad)).err(),
                Some(FlagError::Scale),
                "{bad}"
            );
        }
        assert_eq!(parse("--scale", None).err(), Some(FlagError::Scale));
    }

    #[test]
    fn seed_refuses_a_non_integer() {
        for bad in ["1.5", "-3", "seed"] {
            assert_eq!(
                parse("--seed", Some(bad)).err(),
                Some(FlagError::Seed),
                "{bad}"
            );
        }
        assert_eq!(parse("--seed", None).err(), Some(FlagError::Seed));
    }

    #[test]
    fn jobs_refuses_zero() {
        for bad in ["0", "-2", "two"] {
            assert_eq!(
                parse("--jobs", Some(bad)).err(),
                Some(FlagError::Jobs),
                "{bad}"
            );
        }
        assert_eq!(parse("--jobs", None).err(), Some(FlagError::Jobs));
    }

    #[test]
    fn messages_are_the_binaries_own() {
        assert_eq!(
            FlagError::Scale.to_string(),
            "--scale wants a positive number"
        );
        assert_eq!(FlagError::Seed.to_string(), "--seed wants an integer");
        assert_eq!(
            FlagError::Jobs.to_string(),
            "--jobs wants a positive integer"
        );
    }
}
