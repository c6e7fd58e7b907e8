//! Minimal flag parsing shared by the experiment binaries (no CLI crate —
//! a few optional flags do not justify a dependency).

/// Parsed common flags.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Master RNG seed (default 42, the workspace-wide experiment seed).
    pub seed: u64,
    /// Dataset-size override for scalable experiments.
    pub n: Option<usize>,
    /// Quick mode: shrink sweeps for smoke-testing (`--quick`).
    pub quick: bool,
    /// Worker-thread override (`--threads`); `None` leaves the process
    /// default (`IIM_THREADS` / available parallelism) in place.
    pub threads: Option<usize>,
}

impl Args {
    /// Parses `--seed <u64>`, `--n <usize>`, `--threads <usize>` and
    /// `--quick` from `std::env`.
    ///
    /// A `--threads` value is applied immediately via
    /// [`iim_exec::set_default_threads`], so every pool the binary touches
    /// afterwards uses it.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`Args::parse`] over an explicit argument iterator — the `paper`
    /// dispatcher strips its subcommand first.
    pub fn parse_from<I: Iterator<Item = String>>(args: I) -> Self {
        let mut out = Self {
            seed: 42,
            n: None,
            quick: false,
            threads: None,
        };
        let mut it = args;
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    out.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a u64");
                }
                "--n" => {
                    out.n = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--n needs a usize"),
                    );
                }
                "--threads" => {
                    let t = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads needs a positive usize");
                    assert!(t > 0, "--threads needs a positive usize");
                    out.threads = Some(t);
                    iim_exec::set_default_threads(t);
                }
                "--quick" => out.quick = true,
                other => panic!("unknown flag {other}; supported: --seed --n --threads --quick"),
            }
        }
        out
    }
}
