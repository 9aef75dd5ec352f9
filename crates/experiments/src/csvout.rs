//! Minimal CSV/text output helpers: every figure/table binary writes its data
//! series next to the printed summary so plots can be regenerated externally.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Default output directory for experiment artifacts, relative to the current
/// working directory.
pub const DEFAULT_RESULTS_DIR: &str = "results";

/// Write `content` to `<dir>/<name>` (creating `dir` if needed) and return the
/// full path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_text(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Build a CSV string from a header and rows of already-formatted cells.
/// A cell holding a `,`, a `"` or a line break is quoted, its inner quotes
/// doubled (RFC 4180); every other cell is written as is.
#[must_use]
pub fn csv_from_rows(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    push_row(&mut out, header.iter().copied());
    for row in rows {
        push_row(&mut out, row.iter().map(String::as_str));
    }
    out
}

/// Append one line of cells to `out`.
fn push_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>) {
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_from_rows_builds_expected_text() {
        let csv = csv_from_rows(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(csv, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn cells_with_separators_quotes_or_line_breaks_are_quoted() {
        let csv = csv_from_rows(
            &["name", "n"],
            &[
                vec!["Algorithm 2: ((A B) C) [gemm,gemm]".into(), "3".into()],
                vec!["say \"hi\"".into(), "two\nlines".into()],
                vec!["plain text".into(), String::new()],
            ],
        );
        assert_eq!(
            csv,
            "name,n\n\
             \"Algorithm 2: ((A B) C) [gemm,gemm]\",3\n\
             \"say \"\"hi\"\"\",\"two\nlines\"\n\
             plain text,\n"
        );
    }

    #[test]
    fn write_text_creates_directories_and_files() {
        let dir = std::env::temp_dir().join(format!("lamb-csv-test-{}", std::process::id()));
        let path = write_text(&dir, "probe.csv", "x,y\n1,2\n").unwrap();
        assert!(path.exists());
        let read_back = fs::read_to_string(&path).unwrap();
        assert!(read_back.contains("1,2"));
        fs::remove_dir_all(&dir).ok();
    }
}
