//! What an experiment prints, and the only code that prints it: `#`
//! comment lines, CSV rows under a `# columns:` line, and pivot tables.
//!
//! A results file is this module's output under `#@` provenance lines, so
//! its grammar is fixed here: a `# columns: a,b,c` line opens a row
//! family; every line up to the next blank one is a row of it or a `#`
//! comment; a `## title` line opens a table that ends at a blank line.

use flexio_pfs::OstLog;
use std::fmt::Write;
use std::sync::Arc;

/// One CSV column: its name in the `# columns:` line and how a
/// floating-point cell under it is written.
struct Col {
    name: &'static str,
    /// Decimal places of an `f64` cell; `None` writes the shortest form
    /// that round-trips (`0.002`, `16`).
    places: Option<usize>,
}

/// A row family's columns from its spec, `"clients,combo,mbps:3"`: names
/// in order, `:N` after the ones whose floats are written to N places.
fn columns(spec: &'static str) -> Vec<Col> {
    let col = |c: &'static str| match c.split_once(':') {
        Some((name, places)) => Col { name, places: Some(places.parse().expect("places")) },
        None => Col { name: c, places: None },
    };
    spec.split(',').map(col).collect()
}

/// One value of a CSV row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Cell {
    Int(u64),
    Num(f64),
    Text(String),
}

impl Cell {
    fn render(&self, col: &Col) -> String {
        match (self, col.places) {
            (Cell::Int(v), _) => v.to_string(),
            (Cell::Num(v), Some(p)) => format!("{v:.p$}"),
            (Cell::Num(v), None) => v.to_string(),
            (Cell::Text(s), _) => s.clone(),
        }
    }

    fn value(&self) -> f64 {
        match self {
            Cell::Int(v) => *v as f64,
            Cell::Num(v) => *v,
            Cell::Text(s) => panic!("pivot over the text cell {s:?}"),
        }
    }
}

macro_rules! cell_from {
    ($($from:ty => $cell:expr),*) => {
        $(impl From<$from> for Cell {
            fn from(v: $from) -> Cell {
                $cell(v)
            }
        })*
    };
}
cell_from!(
    u64 => Cell::Int,
    usize => |v| Cell::Int(v as u64),
    u32 => |v: u32| Cell::Int(v.into()),
    f64 => Cell::Num,
    String => Cell::Text,
    &str => |v: &str| Cell::Text(v.to_string())
);

/// Push one CSV row: `row!(report; aggs, "serial", bw)`.
macro_rules! row {
    ($report:expr; $($cell:expr),+ $(,)?) => {
        $report.row(vec![$($crate::report::Cell::from($cell)),+])
    };
}
pub(crate) use row;

/// The output of one experiment run.
#[derive(Default)]
pub(crate) struct Report {
    columns: Vec<Col>,
    rows: Vec<Vec<Cell>>,
    /// Under `--ost-log`: every row printed, with the service logs of the
    /// file systems built since the row before it.
    ost_logs: Option<Vec<(String, Vec<Arc<OstLog>>)>>,
}

impl Report {
    /// A `# text` comment line.
    pub fn note(&mut self, text: &str) {
        println!("# {text}");
    }

    /// A blank line, closing whatever family or table came before, then a
    /// `# text` comment line: the start of a new panel or of closing
    /// remarks.
    pub fn heading(&mut self, text: &str) {
        println!("\n# {text}");
    }

    /// Open a row family: every [`Report::row`] up to the next `section`
    /// has the columns `spec` lists (`"clients,combo,mbps:3"`: `:N` marks
    /// floats written to N places).
    pub fn section(&mut self, spec: &'static str) {
        self.columns = columns(spec);
        self.rows.clear();
        println!("{}", columns_line(&self.columns));
    }

    /// One CSV row of the current family. Prefer [`row!`].
    pub fn row(&mut self, cells: Vec<Cell>) {
        let line = csv_line(&self.columns, &cells);
        println!("{line}");
        if let Some(logs) = &mut self.ost_logs {
            logs.push((line, flexio_pfs::take_ost_logs()));
        }
        self.rows.push(cells);
    }

    /// Keep each row's OST service logs for [`Report::print_ost_log`]:
    /// those of the file systems built since the row before it, which are
    /// the ones an experiment builds for a row.
    pub fn log_ost_service(&mut self) {
        self.ost_logs = Some(Vec::new());
    }

    /// After the rows, under `--ost-log`: for every row, what each OST of
    /// each of its file systems served in each world on it.
    pub fn print_ost_log(&self) {
        let Some(logs) = &self.ost_logs else { return };
        println!("\n# OST service log: per row, its file systems (fs), each one's worlds in order, each OST");
        println!("# that served a request; busy = Σ service, wait = Σ queueing, inversions = requests served");
        println!("# before an earlier arrival (arrival, then rank), inverted_ns = their service");
        println!(
            "# columns: row,fs,world,ost,requests,bytes,busy_ns,wait_ns,inversions,inverted_ns"
        );
        for (i, (line, fss)) in logs.iter().enumerate() {
            println!("# row {i}: {line}");
            for (f, log) in fss.iter().enumerate() {
                for s in flexio_pfs::service(&log.records()) {
                    println!(
                        "{i},{f},{},{},{},{},{},{},{},{}",
                        s.world,
                        s.ost,
                        s.requests,
                        s.bytes,
                        s.busy_ns,
                        s.wait_ns,
                        s.inversions,
                        s.inverted_ns
                    );
                }
            }
        }
    }

    /// Tables read off the rows pushed since [`Report::section`]: one
    /// line per distinct value of column `x`, one column per distinct
    /// combination of the `series` columns, one table per distinct value
    /// of `panel` (all in order of first appearance), cells from column
    /// `value`. `{}` in `title` stands for the panel's value.
    pub fn pivot(
        &mut self,
        title: &str,
        panel: Option<&str>,
        x: &str,
        series: &[&str],
        value: &str,
    ) {
        print!("{}", pivot_tables(&self.columns, &self.rows, title, panel, x, series, value));
    }

    /// A table that is not a projection of the rows (a summary over
    /// them): lines = `xs`, columns = `series`.
    pub fn table(
        &mut self,
        title: &str,
        xlabel: &str,
        xs: &[String],
        series: &[(String, Vec<f64>)],
    ) {
        print!("{}", format_table(title, xlabel, xs, series));
    }
}

fn columns_line(columns: &[Col]) -> String {
    let names: Vec<&str> = columns.iter().map(|c| c.name).collect();
    format!("# columns: {}", names.join(","))
}

fn csv_line(columns: &[Col], cells: &[Cell]) -> String {
    assert_eq!(cells.len(), columns.len(), "row width differs from its `# columns:` line");
    let fields: Vec<String> = cells.iter().zip(columns).map(|(v, c)| v.render(c)).collect();
    fields.join(",")
}

fn pivot_tables(
    columns: &[Col],
    rows: &[Vec<Cell>],
    title: &str,
    panel: Option<&str>,
    x: &str,
    series: &[&str],
    value: &str,
) -> String {
    let at = |name: &str| {
        columns.iter().position(|c| c.name == name).unwrap_or_else(|| panic!("no column {name:?}"))
    };
    let label = |row: &[Cell], i: usize| row[i].render(&columns[i]);
    let (xlabel, x, value) = (x, at(x), at(value));
    let series: Vec<usize> = series.iter().map(|s| at(s)).collect();
    let series_of =
        |row: &[Cell]| series.iter().map(|&i| label(row, i)).collect::<Vec<_>>().join(" ");
    let panel_of = |row: &[Cell]| panel.map(|c| label(row, at(c))).unwrap_or_default();

    let mut out = String::new();
    for panel in distinct(rows.iter().map(|r| panel_of(r))) {
        let rows: Vec<&Vec<Cell>> = rows.iter().filter(|r| panel_of(r) == panel).collect();
        let xs = distinct(rows.iter().map(|r| label(r, x)));
        let table: Vec<(String, Vec<f64>)> = distinct(rows.iter().map(|r| series_of(r)))
            .into_iter()
            .map(|name| {
                let vals = xs
                    .iter()
                    .map(|xv| {
                        rows.iter()
                            .find(|r| label(r, x) == *xv && series_of(r) == name)
                            .map_or(f64::NAN, |r| r[value].value())
                    })
                    .collect();
                (name, vals)
            })
            .collect();
        out += &format_table(&title.replace("{}", &panel), xlabel, &xs, &table);
    }
    out
}

fn distinct(items: impl Iterator<Item = String>) -> Vec<String> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// An aligned text table, values to two places. Columns are as wide as
/// their longest label needs, and never narrower than 12 (`x`) and 14
/// (series) characters.
fn format_table(title: &str, xlabel: &str, xs: &[String], series: &[(String, Vec<f64>)]) -> String {
    let wx = xs.iter().map(|x| x.len() + 2).chain([xlabel.len() + 2, 12]).max().unwrap();
    let ws = series.iter().map(|(name, _)| name.len() + 2).chain([14]).max().unwrap();
    let mut out = format!("\n## {title}\n{xlabel:>wx$}");
    for (name, _) in series {
        write!(out, "{name:>ws$}").unwrap();
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        write!(out, "{x:>wx$}").unwrap();
        for (_, vals) in series {
            write!(out, "{:>ws$.2}", vals[i]).unwrap();
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_is_written_in_its_columns_formats() {
        let cols = columns("clients,combo,mbps:3,rate");
        assert_eq!(columns_line(&cols), "# columns: clients,combo,mbps,rate");
        let cells = vec![8usize.into(), "pfr/fr-align".into(), 253.80449.into(), 0.002.into()];
        assert_eq!(csv_line(&cols, &cells), "8,pfr/fr-align,253.804,0.002");
        let cells = vec![8u64.into(), String::from("x").into(), 1.0.into(), 16.0.into()];
        assert_eq!(csv_line(&cols, &cells), "8,x,1.000,16");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn a_row_of_the_wrong_width_is_a_bug() {
        csv_line(&columns("a,b"), &[1u64.into()]);
    }

    #[test]
    fn series_columns_fit_an_18_character_name() {
        let series = vec![
            ("pfr/fr-align".to_string(), vec![1.0]),
            ("no-pfr/no-fr-align".to_string(), vec![2.5]),
        ];
        let t = format_table("T", "clients", &["8".to_string()], &series);
        assert_eq!(
            t,
            "\n## T\n     clients        pfr/fr-align  no-pfr/no-fr-align\n\
             \x20          8                1.00                2.50\n"
        );
        // Short names keep the 14-column layout.
        let t = format_table("T", "x", &["1".to_string()], &[("a".to_string(), vec![0.125])]);
        assert_eq!(t, "\n## T\n           x             a\n           1          0.12\n");
    }

    #[test]
    fn pivot_groups_by_panel_then_x_then_series_in_first_seen_order() {
        let cols = columns("aggs,size,engine,mode,mbps:2");
        let mut rows = Vec::new();
        for (aggs, base) in [(4u64, 10.0), (2, 20.0)] {
            for size in [64u64, 8] {
                for (engine, mode, add) in [("new", "s", 0.0), ("new", "p", 1.0), ("old", "s", 2.0)]
                {
                    let bw = base + add + size as f64 / 100.0;
                    rows.push(vec![
                        aggs.into(),
                        size.into(),
                        engine.into(),
                        mode.into(),
                        bw.into(),
                    ]);
                }
            }
        }
        let want = "\n## 4 aggs\n        size         new s         new p         old s\n\
                    \x20         64         10.64         11.64         12.64\n\
                    \x20          8         10.08         11.08         12.08\n\
                    \n## 2 aggs\n        size         new s         new p         old s\n\
                    \x20         64         20.64         21.64         22.64\n\
                    \x20          8         20.08         21.08         22.08\n";
        let got = pivot_tables(
            &cols,
            &rows,
            "{} aggs",
            Some("aggs"),
            "size",
            &["engine", "mode"],
            "mbps",
        );
        assert_eq!(got, want);
    }
}
