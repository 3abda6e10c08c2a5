//! Trace serialization: a simple CSV format for exchanging workloads with
//! external tools (plotting, other simulators) and for regression fixtures.
//!
//! Format: a `ticks,class,size` header line followed by one row per packet
//! arrival, time-sorted.

use std::fmt::{self, Write as _};
use std::path::Path;

use simcore::Time;

use crate::trace::{Trace, TraceEntry};

/// Errors from parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace CSV line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl Trace {
    /// Renders the trace as CSV (`ticks,class,size` header + one row per
    /// arrival).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(16 * self.len() + 16);
        out.push_str("ticks,class,size\n");
        for e in self.entries() {
            writeln!(out, "{},{},{}", e.at.ticks(), e.class, e.size)
                .expect("writing to a String cannot fail");
        }
        out
    }

    /// Parses a CSV produced by [`Trace::to_csv`] (header required).
    /// Rows are re-sorted by time, so externally edited files are safe.
    pub fn from_csv(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == "ticks,class,size" => {}
            Some((_, h)) => {
                return Err(TraceParseError {
                    line: 1,
                    message: format!("expected header 'ticks,class,size', got '{h}'"),
                })
            }
            None => {
                return Err(TraceParseError {
                    line: 1,
                    message: "empty input".into(),
                })
            }
        }
        let mut entries = Vec::new();
        for (idx, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let parse = |s: Option<&str>, what: &str| -> Result<u64, TraceParseError> {
                s.ok_or_else(|| TraceParseError {
                    line: idx + 1,
                    message: format!("missing {what}"),
                })?
                .trim()
                .parse::<u64>()
                .map_err(|e| TraceParseError {
                    line: idx + 1,
                    message: format!("bad {what}: {e}"),
                })
            };
            let at = parse(parts.next(), "ticks")?;
            let class = parse(parts.next(), "class")?;
            let size = parse(parts.next(), "size")?;
            if class > u8::MAX as u64 {
                return Err(TraceParseError {
                    line: idx + 1,
                    message: format!("class {class} out of range"),
                });
            }
            if size == 0 || size > u32::MAX as u64 {
                return Err(TraceParseError {
                    line: idx + 1,
                    message: format!("size {size} out of range"),
                });
            }
            if parts.next().is_some() {
                return Err(TraceParseError {
                    line: idx + 1,
                    message: "too many fields".into(),
                });
            }
            entries.push(TraceEntry {
                at: Time::from_ticks(at),
                class: class as u8,
                size: size as u32,
            });
        }
        Ok(Trace::from_entries(entries))
    }

    /// Writes the trace as CSV to `path`.
    pub fn save_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Loads a trace from a CSV file.
    pub fn load_csv<P: AsRef<Path>>(path: P) -> std::io::Result<Result<Trace, TraceParseError>> {
        Ok(Trace::from_csv(&std::fs::read_to_string(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::IatDist;
    use crate::sizes::SizeDist;
    use crate::source::ClassSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_trace() -> Trace {
        let mut sources = vec![
            ClassSource::new(0, IatDist::paper_pareto(100.0).unwrap(), SizeDist::paper()),
            ClassSource::new(
                1,
                IatDist::exponential(150.0).unwrap(),
                SizeDist::fixed(500),
            ),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        Trace::generate(&mut sources, Time::from_ticks(50_000), &mut rng)
    }

    #[test]
    fn csv_round_trip_preserves_entries() {
        let t = sample_trace();
        let back = Trace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(t.entries(), back.entries());
    }

    #[test]
    fn file_round_trip() {
        let t = sample_trace();
        let path = std::env::temp_dir().join("pdd_trace_io_test.csv");
        t.save_csv(&path).unwrap();
        let back = Trace::load_csv(&path).unwrap().unwrap();
        assert_eq!(t.entries(), back.entries());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert_eq!(Trace::from_csv("").unwrap_err().line, 1);
        assert!(Trace::from_csv("wrong,header,here\n").is_err());
        let bad_row = "ticks,class,size\n10,0,100\nnope,0,100\n";
        let err = Trace::from_csv(bad_row).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
        assert!(Trace::from_csv("ticks,class,size\n1,300,100\n").is_err());
        assert!(Trace::from_csv("ticks,class,size\n1,0,0\n").is_err());
        assert!(Trace::from_csv("ticks,class,size\n1,0,10,extra\n").is_err());
        assert!(Trace::from_csv("ticks,class,size\n1,0\n").is_err());
    }

    #[test]
    fn unsorted_rows_are_resorted() {
        let t = Trace::from_csv("ticks,class,size\n20,1,10\n5,0,10\n").unwrap();
        assert_eq!(t.entries()[0].at.ticks(), 5);
        assert_eq!(t.entries()[1].at.ticks(), 20);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = Trace::from_csv("ticks,class,size\n\n10,0,100\n\n").unwrap();
        assert_eq!(t.len(), 1);
    }
}
