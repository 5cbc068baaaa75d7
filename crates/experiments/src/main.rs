//! The experiment harness: one subcommand per figure/statistic of the
//! paper, each printing the series the paper reports and writing CSVs
//! into `results/`.
//!
//! ```text
//! experiments <fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|summary|all>
//!             [--seed N] [--scale N_ASES] [--out DIR] [--threads N]
//! ```
//!
//! `--scale` shrinks the §3 survey below the paper's 646 ASes for quick
//! runs; everything else is full scale by default.

mod common;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod summary;

use common::Ctx;
use lastmile_repro::netsim::scenarios::survey::MIN_SURVEY_ASES;
use lastmile_repro::runner::MAX_WORKERS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: experiments <fig1..fig9|summary|all> [--seed N] [--scale N] [--out DIR] [--threads N]");
        std::process::exit(2);
    };

    let ctx = parse_args(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all(&ctx.out_dir).expect("create output directory");

    let started = std::time::Instant::now();
    match cmd.as_str() {
        "fig1" => fig1::run(&ctx),
        "fig2" => fig2::run(&ctx),
        "fig3" => fig3::run(&ctx),
        "fig4" => fig4::run(&ctx),
        "fig5" => fig5::run(&ctx),
        "fig6" => fig6::run(&ctx),
        "fig7" => fig7::run(&ctx),
        "fig8" => fig8::run(&ctx),
        "fig9" => fig9::run(&ctx),
        "summary" => summary::run(&ctx),
        "all" => {
            fig1::run(&ctx);
            fig2::run(&ctx);
            fig3::run(&ctx);
            fig4::run(&ctx);
            fig5::run(&ctx);
            fig6::run(&ctx);
            fig7::run(&ctx);
            fig8::run(&ctx);
            fig9::run(&ctx);
            summary::run(&ctx);
        }
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(2);
        }
    }
    eprintln!("\n[{cmd} done in {:.1}s]", started.elapsed().as_secs_f64());
}

/// The harness options after the subcommand. A malformed or missing
/// value, an unknown flag, a survey scale below [`MIN_SURVEY_ASES`] or a
/// thread count above [`MAX_WORKERS`] is a usage error, reported before
/// any work starts.
fn parse_args(args: &[String]) -> Result<Ctx, String> {
    fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("invalid value for {flag}: {value}"))
    }
    let mut ctx = Ctx::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--seed" => ctx.seed = parsed(flag, value()?)?,
            "--scale" => {
                ctx.survey_ases = parsed(flag, value()?)?;
                if ctx.survey_ases < MIN_SURVEY_ASES {
                    return Err(format!(
                        "--scale {} is below the minimum of {MIN_SURVEY_ASES}",
                        ctx.survey_ases
                    ));
                }
            }
            "--out" => ctx.out_dir = value()?.clone(),
            "--threads" => {
                ctx.threads = parsed(flag, value()?)?;
                if ctx.threads > MAX_WORKERS {
                    return Err(format!(
                        "--threads {} is above the limit of {MAX_WORKERS}",
                        ctx.threads
                    ));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Ctx, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    fn error(args: &[&str]) -> String {
        parse(args).err().expect("arguments are refused")
    }

    #[test]
    fn flags_set_the_context() {
        let ctx = parse(&[
            "--seed",
            "7",
            "--scale",
            "24",
            "--out",
            "dir",
            "--threads",
            "2",
        ])
        .unwrap();
        assert_eq!(
            (ctx.seed, ctx.survey_ases, ctx.out_dir.as_str(), ctx.threads),
            (7, 24, "dir", 2)
        );
        let ctx = parse(&[]).unwrap();
        assert_eq!((ctx.seed, ctx.survey_ases, ctx.threads), (20200427, 646, 0));
    }

    #[test]
    fn malformed_values_are_errors() {
        assert_eq!(error(&["--seed", "x"]), "invalid value for --seed: x");
        assert_eq!(error(&["--scale", "-3"]), "invalid value for --scale: -3");
        assert_eq!(
            error(&["--threads", "two"]),
            "invalid value for --threads: two"
        );
        assert_eq!(error(&["--out"]), "missing value for --out");
        assert_eq!(error(&["--verbose"]), "unknown flag --verbose");
    }

    #[test]
    fn survey_scale_has_a_floor() {
        let ctx = parse(&["--scale", &MIN_SURVEY_ASES.to_string()]).unwrap();
        assert_eq!(ctx.survey_ases, MIN_SURVEY_ASES);
        assert_eq!(
            error(&["--scale", "8"]),
            format!("--scale 8 is below the minimum of {MIN_SURVEY_ASES}")
        );
    }

    #[test]
    fn thread_counts_are_bounded() {
        let ctx = parse(&["--threads", &MAX_WORKERS.to_string()]).unwrap();
        assert_eq!(ctx.threads, MAX_WORKERS);
        assert_eq!(
            error(&["--threads", "100000"]),
            format!("--threads 100000 is above the limit of {MAX_WORKERS}")
        );
    }
}
