//! Table, chart and CSV helpers for `cakectl`'s output. Figure CSVs go to
//! `results/` (or `$CAKE_RESULTS_DIR`, read by [`results_dir`] alone); the
//! committed copies there are what `cakectl fig all` reproduces byte for
//! byte.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory results are written to: `$CAKE_RESULTS_DIR`, else
/// `results`. The one reader of the variable.
pub fn results_dir() -> PathBuf {
    results_dir_for(std::env::var("CAKE_RESULTS_DIR").ok())
}

/// The results directory for a `CAKE_RESULTS_DIR` value: the value itself,
/// or `results` when it is unset.
fn results_dir_for(var: Option<String>) -> PathBuf {
    PathBuf::from(var.unwrap_or_else(|| "results".to_string()))
}

/// Write `header` + `rows` to `<dir>/<name>.csv`, creating `dir` on
/// demand; returns the path.
pub fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(f, "{r}")?;
    }
    Ok(path)
}

/// Render rows of equal arity as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        assert_eq!(r.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>w$}", w = *w));
        }
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Format a float with 2 decimals (table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Check if `--flag` is present in the process args.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Value of `--key value` in the process args.
pub fn arg_value(key: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == key {
            return args.next();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join(format!("cake_test_{}", std::process::id()));
        let path = write_csv(&dir, "unit", "a,b", &["1,2".to_string()]).unwrap();
        assert_eq!(path, dir.join("unit.csv"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_dir_honors_the_variable() {
        assert_eq!(results_dir_for(Some("/tmp/xyz".into())), PathBuf::from("/tmp/xyz"));
        assert_eq!(results_dir_for(None), PathBuf::from("results"));
    }
}

/// Render one or more named series as an ASCII line chart (the terminal
/// stand-in for the paper's plots). Each series is a list of `(x, y)`
/// points; x values are assumed shared/ordered.
pub fn ascii_chart(title: &str, series: &[(&str, Vec<(f64, f64)>)], height: usize) -> String {
    const MARKS: &[char] = &['*', 'o', '+', 'x', '#', '@'];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, pts)| pts.iter().copied()).collect();
    if all.is_empty() || height < 2 {
        out.push_str("(no data)\n");
        return out;
    }
    let (xmin, xmax) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| (lo.min(p.0), hi.max(p.0)));
    let (ymin, ymax) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| (lo.min(p.1), hi.max(p.1)));
    let yspan = (ymax - ymin).max(1e-12);
    let xspan = (xmax - xmin).max(1e-12);
    let width = 64usize;

    let mut canvas = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in pts {
            let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
            let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row;
            canvas[r][col.min(width - 1)] = mark;
        }
    }
    for (r, line) in canvas.iter().enumerate() {
        let label = if r == 0 {
            format!("{ymax:>10.2} |")
        } else if r == height - 1 {
            format!("{ymin:>10.2} |")
        } else {
            format!("{:>10} |", "")
        };
        out.push_str(&label);
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>11}+{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:>12}{:<.1}{:>width$.1}\n", "", xmin, xmax, width = width - 3));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", MARKS[i % MARKS.len()], name))
        .collect();
    out.push_str(&format!("{:>12}{}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod chart_tests {
    use super::ascii_chart;

    #[test]
    fn chart_renders_all_series() {
        let s1: Vec<(f64, f64)> = (1..=10).map(|p| (p as f64, p as f64 * 2.0)).collect();
        let s2: Vec<(f64, f64)> = (1..=10).map(|p| (p as f64, 5.0)).collect();
        let chart = ascii_chart("test", &[("grows", s1), ("flat", s2)], 10);
        assert!(chart.contains("test"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("grows"));
        assert!(chart.contains("flat"));
        // y-axis labels present.
        assert!(chart.contains("20.00"));
    }

    #[test]
    fn empty_series_is_graceful() {
        let chart = ascii_chart("empty", &[("none", vec![])], 8);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 3.0)).collect();
        let chart = ascii_chart("const", &[("c", s)], 5);
        assert!(chart.contains('*'));
    }
}
