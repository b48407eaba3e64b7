//! Shared helpers for the table/figure-regenerating binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the experiment index) and prints it as an aligned
//! text table plus, when useful, machine-readable JSON.  The helpers here
//! keep the binaries small and the formatting consistent.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::Instant;

/// Median wall-clock seconds of `reps` (at least one) timed runs of `f`,
/// after one warm-up run that pages in the operands and spins up the
/// thread pool — the workspace's one stopwatch.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Formats a floating point value with a sensible number of digits for a
/// performance table ("—" for missing values).
pub fn fmt_opt(value: Option<f64>, digits: usize) -> String {
    match value {
        Some(v) => format!("{v:.digits$}"),
        None => "—".to_string(),
    }
}

/// Prints a section header for a regenerated table or figure.
pub fn header(title: &str) {
    println!();
    println!("{}", "=".repeat(title.len()));
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Prints an aligned table: a header row followed by data rows.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Renders a greyscale image (row-major, arbitrary positive scale) as
/// ASCII art, used for the Fig. 6 maximum-intensity projections.
pub fn ascii_image(pixels: &[f64], width: usize, height: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = pixels.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::with_capacity((width + 1) * height);
    for y in 0..height {
        for x in 0..width {
            let v = (pixels[y * width + x] / max).clamp(0.0, 1.0);
            let idx = ((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_opt_handles_missing_values() {
        assert_eq!(fmt_opt(Some(1.23456), 2), "1.23");
        assert_eq!(fmt_opt(None, 2), "—");
    }

    #[test]
    fn ascii_image_maps_intensity_to_ramp() {
        let img = ascii_image(&[0.0, 1.0, 0.5, 0.0], 2, 2);
        let lines: Vec<&str> = img.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].chars().count(), 2);
        assert_eq!(lines[0].chars().next().unwrap(), ' ');
        assert_eq!(lines[0].chars().nth(1).unwrap(), '@');
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "b"],
            &[vec!["1".into()], vec!["22".into(), "333".into()]],
        );
    }
}
