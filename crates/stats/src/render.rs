//! Plain-text rendering of figures: aligned tables, bar charts, and CDF
//! line plots. The `repro` binary prints every paper figure through these.
//!
//! Each renderer appends to a caller's `String`, writing cells, rows,
//! canvas lines and legends in place: a figure renders into one buffer,
//! and a buffer with room for the figure takes no allocation from them
//! but a table's column widths.

use std::fmt::{self, Write as _};

/// Appends an aligned, pipe-separated table to `out`: a header row, a
/// rule, then one row per item of `rows`.
///
/// `cell(out, row, col)` writes column `col`'s header when `row` is
/// `None` and its cell in `row` otherwise. The table asks for every
/// column of every row, so no row can be short; it asks twice (once to
/// measure the column widths, once to write), so `cell` must write the
/// same text both times. Trailing whitespace is trimmed from each line.
pub fn table<R>(
    out: &mut String,
    columns: usize,
    rows: impl Iterator<Item = R> + Clone,
    cell: impl Fn(&mut String, Option<&R>, usize) -> fmt::Result,
) {
    // Writing into a `String` never fails, so `cell`'s result carries
    // nothing: it is a `fmt::Result` only so `write!` can be its body.
    let mut widths = vec![0usize; columns];
    let mut measure = |row: Option<&R>| {
        for (col, w) in widths.iter_mut().enumerate() {
            let start = out.len();
            let _ = cell(out, row, col);
            *w = (*w).max(out.len() - start);
            out.truncate(start);
        }
    };
    measure(None);
    for row in rows.clone() {
        measure(Some(&row));
    }
    let write_row = |out: &mut String, row: Option<&R>| {
        let line = out.len();
        for (col, w) in widths.iter().enumerate() {
            if col > 0 {
                out.push_str(" | ");
            }
            let start = out.len();
            let _ = cell(out, row, col);
            let chars = out[start..].chars().count();
            push_n(out, ' ', w.saturating_sub(chars));
        }
        let kept = out[line..].trim_end().len();
        out.truncate(line + kept);
        out.push('\n');
    };
    write_row(out, None);
    let rule = widths.iter().sum::<usize>() + 3 * columns.saturating_sub(1);
    push_n(out, '-', rule);
    out.push('\n');
    for row in rows {
        write_row(out, Some(&row));
    }
}

/// Appends `(label, value)` pairs to `out` as a horizontal ASCII bar
/// chart scaled to `width` characters for the largest value.
pub fn bar_chart<'a>(
    out: &mut String,
    items: impl Iterator<Item = (&'a str, f64)> + Clone,
    width: usize,
) {
    let max = items.clone().map(|(_, v)| v).fold(0.0f64, f64::max);
    let label_w = items.clone().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in items {
        let bar_len = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        let _ = write!(out, "{label:<label_w$} | ");
        push_n(out, '#', bar_len);
        let _ = writeln!(out, " {value:.4}");
    }
}

/// The x positions a [`cdf_plot`] evaluates its series at: `points`
/// evenly spaced values spanning `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// First x.
    pub lo: f64,
    /// Last x.
    pub hi: f64,
    /// Number of x values (at least two draw anything).
    pub points: usize,
}

impl Grid {
    /// The `i`-th x value.
    fn x(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / (self.points - 1) as f64
    }
}

/// Appends a plot of one or more named CDF series on a shared text
/// canvas to `out`.
///
/// Each series is a name and its F(x) (in `[0, 1]`), drawn at every x of
/// `grid`. The plot is `width` x `height` characters; each series draws
/// with its own glyph, a later series over an earlier one.
pub fn cdf_plot<'a, F: Fn(f64) -> f64>(
    out: &mut String,
    series: impl Iterator<Item = (&'a str, F)> + Clone,
    grid: Grid,
    width: usize,
    height: usize,
) {
    const GLYPHS: [&str; 8] = ["*", "o", "+", "x", "#", "@", "%", "&"];
    let (lo, mut hi) = if grid.points < 2 {
        (f64::NAN, f64::NAN)
    } else {
        (grid.x(0), grid.x(grid.points - 1))
    };
    if series.clone().next().is_none() || !lo.is_finite() || !hi.is_finite() {
        out.push_str("(no data)\n");
        return;
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    // The canvas: `height` lines of blanks behind their F labels (every
    // label four characters, so every line the same length), then the
    // glyphs, each written over a blank.
    let canvas = out.len();
    for i in 0..height {
        let y = 1.0 - i as f64 / (height - 1) as f64;
        let _ = write!(out, "{y:4.2} |");
        push_n(out, ' ', width);
        out.push('\n');
    }
    if height > 0 && width > 0 {
        let line = (out.len() - canvas) / height;
        let margin = line - width - 1;
        for (si, (_, f)) in series.clone().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for i in 0..grid.points {
                let x = grid.x(i);
                let col = (((x - lo) / (hi - lo)) * (width - 1) as f64).round() as usize;
                let row = ((1.0 - f(x).clamp(0.0, 1.0)) * (height - 1) as f64).round() as usize;
                let at = canvas + row.min(height - 1) * line + margin + col.min(width - 1);
                out.replace_range(at..at + 1, glyph);
            }
        }
    }
    out.push_str("      ");
    push_n(out, '-', width);
    out.push('\n');
    let _ = writeln!(
        out,
        "      {lo:<12.4}{:>width$.4}",
        hi,
        width = width.saturating_sub(12)
    );
    out.push_str("      legend:");
    for (i, (name, _)) in series.enumerate() {
        let sep = if i == 0 { " " } else { "   " };
        let _ = write!(out, "{sep}{} {name}", GLYPHS[i % GLYPHS.len()]);
    }
    out.push('\n');
}

/// Appends a `(x, y)` numeric series to `out` as two aligned columns, the
/// raw data dump accompanying a plotted figure.
pub fn series_columns(out: &mut String, name_x: &str, name_y: &str, points: &[(f64, f64)]) {
    table(out, 2, points.iter(), |out, point, col| {
        match (point, col) {
            (None, 0) => out.write_str(name_x),
            (None, _) => out.write_str(name_y),
            (Some((x, _)), 0) => write!(out, "{x:.4}"),
            (Some((_, y)), _) => write!(out, "{y:.4}"),
        }
    });
}

/// Pushes `n` copies of `c`.
fn push_n(out: &mut String, c: char, n: usize) {
    out.extend(std::iter::repeat_n(c, n));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_column_table(rows: &[(&str, &str)]) -> String {
        let mut out = String::new();
        table(&mut out, 2, rows.iter(), |out, row, col| match (row, col) {
            (None, 0) => out.write_str("name"),
            (None, _) => out.write_str("count"),
            (Some((name, _)), 0) => out.write_str(name),
            (Some((_, count)), _) => out.write_str(count),
        });
        out
    }

    #[test]
    fn table_aligns_columns() {
        let out = two_column_table(&[("us", "2100"), ("egypt", "8")]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "name  | count");
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines[2], "us    | 2100");
        assert_eq!(lines[3], "egypt | 8");
    }

    #[test]
    fn table_asks_every_column_of_every_row() {
        // A cell function that writes nothing still gets every separator:
        // the table, not the caller, decides how many cells a row has.
        let mut out = String::new();
        table(&mut out, 3, 0..2, |out, row, col| match (row, col) {
            (None, _) => write!(out, "h{col}"),
            (Some(r), 1) => write!(out, "{r}"),
            _ => Ok(()),
        });
        assert_eq!(out, "h0 | h1 | h2\n------------\n   | 0  |\n   | 1  |\n");
    }

    #[test]
    fn table_appends_to_what_the_buffer_holds() {
        let mut out = String::from("headline\n\n");
        table(&mut out, 1, ["a"].iter(), |out, row, _| match row {
            None => out.write_str("col"),
            Some(cell) => out.write_str(cell),
        });
        assert_eq!(out, "headline\n\ncol\n---\na\n");
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let mut out = String::new();
        bar_chart(&mut out, [("big", 10.0), ("half", 5.0)].into_iter(), 10);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(&"#".repeat(10)));
        assert!(lines[1].contains(&"#".repeat(5)));
        assert!(!lines[1].contains(&"#".repeat(6)));
    }

    #[test]
    fn bar_chart_all_zero() {
        let mut out = String::new();
        bar_chart(&mut out, [("a", 0.0)].into_iter(), 10);
        assert!(!out.contains('#'));
        assert_eq!(out, "a |  0.0000\n");
    }

    fn ramp(x: f64) -> f64 {
        x / 10.0
    }

    #[test]
    fn cdf_plot_renders_axes_and_legend() {
        let mut out = String::new();
        let grid = Grid {
            lo: 0.0,
            hi: 10.0,
            points: 3,
        };
        cdf_plot(&mut out, [("all", ramp)].into_iter(), grid, 40, 10);
        assert!(out.contains("1.00 |"));
        assert!(out.contains("0.00 |"));
        assert!(out.contains("legend: * all"));
        assert!(out.contains('*'));
        // F(0) = 0 lands bottom left, F(10) = 1 top right.
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].ends_with('*'));
        assert!(lines[9].starts_with("0.00 |*"));
    }

    #[test]
    fn cdf_plot_handles_empty() {
        let grid = Grid {
            lo: 0.0,
            hi: 1.0,
            points: 2,
        };
        let mut out = String::new();
        cdf_plot(
            &mut out,
            std::iter::empty::<(&str, fn(f64) -> f64)>(),
            grid,
            10,
            5,
        );
        assert_eq!(out, "(no data)\n");
        let mut out = String::new();
        let no_points = Grid { points: 0, ..grid };
        cdf_plot(&mut out, [("none", ramp)].into_iter(), no_points, 10, 5);
        assert_eq!(out, "(no data)\n");
    }

    #[test]
    fn cdf_plot_multiple_series_use_distinct_glyphs() {
        let grid = Grid {
            lo: 0.0,
            hi: 1.0,
            points: 2,
        };
        let a = |x: f64| 0.1 + 0.8 * x;
        let b = |x: f64| 0.3 + 0.4 * x;
        let mut out = String::new();
        cdf_plot(
            &mut out,
            [("a", &a as &dyn Fn(f64) -> f64), ("b", &b)].into_iter(),
            grid,
            20,
            8,
        );
        assert!(out.contains('*') && out.contains('o'));
        assert!(out.contains("legend: * a   o b"));
    }

    #[test]
    fn series_columns_formats() {
        let mut out = String::new();
        series_columns(&mut out, "fps", "cdf", &[(3.0, 0.25)]);
        assert!(out.contains("3.0000"));
        assert!(out.contains("0.2500"));
    }
}
