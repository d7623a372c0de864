//! The repo's benchmark: four seeded workloads over the commands users
//! run (`ute_cli::run`, in-process), six end-to-end metrics from untraced
//! reps, and a separate traced run that times every layer's public
//! functions from the harness side. See `README.md` beside this crate.

pub mod alloc;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod rep;
pub mod span;
pub mod summary;
pub mod traced;
pub mod workloads;

use std::path::PathBuf;

use harness::{Error, Options};
use workloads::{Prepared, Workload};

const USAGE: &str = "\
usage: ute-benchmark --workload deep4|wide256|pipe4|query4 --seed N --seconds S --trace 0|1
                     [--smoke] [--out DIR]
       ute-benchmark --compare A.json B.json
  --trace 0 prints the end-to-end metrics (use the `ute-benchmark` binary),
  --trace 1 the per-layer metrics (use `ute-benchmark-traced`, which links the
  counting allocator). `benchmark/run.sh` builds both and picks the right one.";

/// `--key value` pairs and bare switches of the command line.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, Error> {
        let v = self
            .value(key)
            .ok_or_else(|| format!("missing {key}\n{USAGE}"))?;
        v.parse()
            .map_err(|_| format!("{key}: bad value `{v}`").into())
    }

    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }

    fn workload(&self) -> Result<Workload, Error> {
        let name: String = self.parsed("--workload")?;
        Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}").into())
    }
}

fn dispatch(argv: Vec<String>) -> Result<bool, Error> {
    let args = Args(argv);
    if let Some(i) = args.0.iter().position(|a| a == "--compare") {
        return match &args.0[i + 1..] {
            [a, b] => harness::compare(a, b),
            _ => Err(USAGE.into()),
        };
    }
    if args.has("--child-reps") {
        let span: String = args.parsed("--span")?;
        let (a, b) = span.split_once(',').ok_or("--span wants A,B")?;
        let p = Prepared {
            workload: args.workload()?,
            seed: args.parsed("--seed")?,
            smoke: args.has("--smoke"),
            records: args.parsed("--records")?,
            events_cut: args.parsed("--events")?,
            span: (a.parse()?, b.parse()?),
        };
        harness::child_main(
            &p,
            args.parsed("--jobs")?,
            args.parsed("--child-reps")?,
            args.has("--calibrated"),
        )?;
        return Ok(true);
    }
    let opts = Options {
        workload: args.workload()?,
        seed: args.parsed("--seed")?,
        seconds: {
            let s: f64 = args.parsed("--seconds")?;
            if s.is_nan() || s <= 0.0 {
                return Err("--seconds: must be positive".into());
            }
            (s.round() as u32).max(1)
        },
        trace: match args.parsed::<u8>("--trace")? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace: wants 0 or 1, got {n}").into()),
        },
        smoke: args.has("--smoke"),
        out_dir: PathBuf::from(args.value("--out").unwrap_or("benchmark/out")),
    };
    let report = if opts.trace {
        traced::run_traced(&opts)?
    } else {
        harness::run_untraced(&opts)?
    };
    println!("{}", report.to_json());
    Ok(report.correct && report.failed == 0)
}

/// The whole program; returns the exit code.
pub fn main_with(argv: Vec<String>) -> i32 {
    match dispatch(argv) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ute-benchmark: {e}");
            2
        }
    }
}
