//! Shared harness utilities for the per-figure/per-table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper (see
//! `DESIGN.md`'s per-experiment index) and prints it in the same row/series layout
//! the paper uses, so each binary can print paper-vs-measured side by side.
//! Run them in release mode:
//!
//! ```text
//! cargo run --release -p lserve-bench --bin fig10_decode_speed
//! ```

/// Prints a titled ASCII table with right-aligned numeric columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch in '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Formats a ratio like `1.67x`.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a 0..1 fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Human-readable context length (`65536` → `"64K"`).
pub fn klen(tokens: usize) -> String {
    if tokens.is_multiple_of(1024) {
        format!("{}K", tokens / 1024)
    } else {
        tokens.to_string()
    }
}

/// The context-length sweep used by most decode figures.
pub fn decode_lengths() -> Vec<usize> {
    vec![
        65_536, 98_304, 131_072, 163_840, 196_608, 229_376, 262_144, 327_680,
    ]
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn klen_formats() {
        assert_eq!(klen(65_536), "64K");
        assert_eq!(klen(1000), "1000");
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.01234), "12.34");
        assert_eq!(ratio(1.6666), "1.67x");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    #[should_panic(expected = "geomean of empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
