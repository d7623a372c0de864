//! # ute-stats — the statistics utility and viewer (§3.2)
//!
//! "A statistics utility was developed using the API to generate
//! statistics from interval files. It reads one or more interval files
//! and generates tables specified by a program written in a declarative
//! language."
//!
//! The language is the paper's:
//!
//! ```text
//! table name=sample
//!       condition=(start < 2)
//!       x=("node", node)
//!       x=("processor", cpu)
//!       y=("avg(duration)", dura, avg)
//! ```
//!
//! * `condition` selects intervals (an arithmetic/boolean expression over
//!   the profile's field names — `start` and `dura` are exposed in
//!   seconds);
//! * each `x` declares a free variable of the table;
//! * each `y` declares a dependent value and its aggregator (`avg`,
//!   `sum`, `count`, `min`, `max`).
//!
//! "The generated tables is a tab-separated-value text file" —
//! [`table::Table::to_tsv`]. When no program is given, the pre-defined
//! tables of [`predefined`] are produced (including Figure 6's
//! sum-of-interesting-duration per node × 50 time bins), and
//! [`viewer`] renders them as ASCII heat maps or SVG.

pub mod expr;
pub mod parser;
pub mod predefined;
pub mod runner;
pub mod table;
pub mod viewer;

pub use expr::{EvalContext, Expr};
pub use parser::parse_program;
pub use runner::{run_tables, run_tables_over};
pub use table::{Agg, Table, TableSpec};
