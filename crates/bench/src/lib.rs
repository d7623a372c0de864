//! What the figure and table bins regenerate the paper's results
//! through: the shipped `ute` commands, run in-process by
//! [`ute_cli::run`] at `--jobs 1` into `target/figures/<bin>/`, each call
//! timed and its text kept. The bins read what the commands published
//! with the shipped readers ([`RawTraceView`], [`SlogFile`]), so every
//! figure and Table 1 is checked on the path a user runs.

use std::path::PathBuf;
use std::time::Instant;

use ute_core::mmap::map_file;
use ute_rawtrace::RawTraceView;
use ute_slog::SlogFile;
use ute_view::model::View;
use ute_view::svg::SvgOptions;

/// One `ute` command's text and wall time.
pub struct Call {
    pub text: String,
    pub secs: f64,
}

/// A bin's output directory, `target/figures/<bin>/`.
pub struct RunDir {
    pub dir: PathBuf,
}

impl RunDir {
    /// The directory, emptied of an earlier run's files: a stale trace
    /// file of a node this run lacks would otherwise be ingested with it.
    pub fn fresh(bin: &str) -> RunDir {
        let dir = PathBuf::from("target/figures").join(bin);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        RunDir { dir }
    }

    /// Runs `ute CMD ARGS`, where `@NAME` stands for `DIR/NAME` and `@` for
    /// `DIR`; a failing command panics, naming itself.
    pub fn ute(&self, cmd: &str, args: &[&str]) -> Call {
        let arg = |a: &str| match a.strip_prefix('@') {
            Some("") => self.dir.display().to_string(),
            Some(name) => self.dir.join(name).display().to_string(),
            None => a.to_string(),
        };
        let argv: Vec<String> = [cmd].iter().chain(args).map(|a| arg(a)).collect();
        let t = Instant::now();
        let text = ute_cli::run(&argv).unwrap_or_else(|e| panic!("ute {}: {e}", argv.join(" ")));
        Call {
            text,
            secs: t.elapsed().as_secs_f64(),
        }
    }

    /// Figure 2's arrows in order, at `--jobs 1`: `ute trace`, `convert`,
    /// `merge` to `merged.ivl`, `slogmerge` (with `slog` options) to
    /// `run.slog`, and `stats --out stats`.
    pub fn pipeline(&self, workload: &str, slog: &[&str]) -> [(&'static str, Call); 5] {
        let ingest = ["--in", "@", "--jobs", "1", "--out"];
        let trace = ["--workload", workload, "--out", "@"];
        let merged = [&ingest[..], &["@merged.ivl"]].concat();
        let slogmerge = [&ingest[..], &["@run.slog"], slog].concat();
        let stats = ["--merged", "@merged.ivl", "--out", "@stats"];
        [
            ("trace", self.ute("trace", &trace)),
            ("convert", self.ute("convert", &ingest[..4])),
            ("merge", self.ute("merge", &merged)),
            ("slogmerge", self.ute("slogmerge", &slogmerge)),
            ("stats", self.ute("stats", &stats)),
        ]
    }

    /// Raw events in the `trace.N.raw` files, as [`RawTraceView`] reads them.
    pub fn raw_events(&self) -> u64 {
        let entries = std::fs::read_dir(&self.dir).expect("run directory");
        let paths = entries.map(|e| e.expect("directory entry").path());
        let raw = paths.filter(|p| p.to_string_lossy().ends_with(".raw"));
        raw.map(|p| {
            let bytes = map_file(&p).expect("trace file");
            let view =
                RawTraceView::open(&bytes).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            view.records as u64
        })
        .sum()
    }

    /// Prints `view` as text `width` columns wide and writes its SVG to
    /// `DIR/name`.
    pub fn show(&self, view: &View, width: usize, name: &str) {
        print!("{}", ute_view::ascii::render(view, width));
        let path = self.dir.join(name);
        std::fs::write(&path, ute_view::svg::render(view, &SvgOptions::default())).unwrap();
        println!("\nwrote {}", path.display());
    }

    /// `run.slog`, read back.
    pub fn slog(&self) -> SlogFile {
        SlogFile::read_from(&self.dir.join("run.slog")).expect("run.slog")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pipeline_publishes_every_artifact_the_bins_read() {
        let run = RunDir::fresh("run-dir-test");
        let calls = run.pipeline("pingpong", &[]);
        assert!(calls[0].1.text.starts_with("traced pingpong: 2 nodes"));
        assert!(run.raw_events() > 0);
        assert!(run.slog().total_records() > 0);
        assert!(run.dir.join("stats/interesting_by_node_bin.tsv").exists());
        std::fs::remove_dir_all(&run.dir).unwrap();
    }
}
