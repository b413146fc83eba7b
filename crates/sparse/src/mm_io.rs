//! Matrix Market (`.mtx`) I/O for sparse matrices.
//!
//! The de-facto interchange format for sparse matrices; supported here so
//! precomputed blocks and test systems can be inspected with standard
//! tooling (SciPy, Julia, MATLAB). Coordinate format only, `real` field,
//! `general` or `symmetric` symmetry.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{Error, Result};
use crate::mem::MAX_DIM;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Parses a Matrix Market coordinate-format string.
pub fn parse_matrix_market(text: &str) -> Result<CsrMatrix> {
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| Error::InvalidStructure("empty MatrixMarket input".into()))?;
    let header_lc = header.to_ascii_lowercase();
    if !header_lc.starts_with("%%matrixmarket") {
        return Err(Error::InvalidStructure("missing %%MatrixMarket header".into()));
    }
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(Error::InvalidStructure(format!("unsupported MatrixMarket header: {header}")));
    }
    if tokens[3] != "real" && tokens[3] != "integer" {
        return Err(Error::InvalidStructure(format!(
            "unsupported MatrixMarket field type: {}",
            tokens[3]
        )));
    }
    let symmetric = match tokens[4] {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(Error::InvalidStructure(format!(
                "unsupported MatrixMarket symmetry: {other}"
            )))
        }
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| Error::InvalidStructure("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse().map_err(|_| Error::InvalidStructure(format!("bad size line: {size_line}")))
        })
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(Error::InvalidStructure(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(Error::InvalidStructure(format!("dimensions too large: {size_line}")));
    }

    // The header's count is untrusted: reserve no more entries than the
    // text can hold (each takes at least "r c" and a line break).
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz.min(text.len() / 4 + 1));
    let mut read = 0usize;
    for line in lines {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let r: usize = parts
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| Error::InvalidStructure(format!("bad entry: {t}")))?;
        let c: usize = parts
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| Error::InvalidStructure(format!("bad entry: {t}")))?;
        let v: f64 = match parts.next() {
            Some(x) => x
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .ok_or_else(|| Error::InvalidStructure(format!("bad value in: {t}")))?,
            None => 1.0, // pattern-ish files
        };
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(Error::IndexOutOfBounds { index: r.max(c), bound: nrows.max(ncols) });
        }
        coo.push(r - 1, c - 1, v);
        if symmetric && r != c {
            coo.push(c - 1, r - 1, v);
        }
        read += 1;
    }
    if read != nnz {
        return Err(Error::InvalidStructure(format!("expected {nnz} entries, found {read}")));
    }
    Ok(coo.to_csr())
}

/// Reads a `.mtx` file.
pub fn read_matrix_market(path: &Path) -> Result<CsrMatrix> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::InvalidStructure(format!("cannot read {}: {e}", path.display())))?;
    parse_matrix_market(&text)
}

/// Writes a matrix in Matrix Market coordinate/general format.
pub fn write_matrix_market(m: &CsrMatrix, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::InvalidStructure(format!("cannot create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    let io_err = |e: std::io::Error| Error::InvalidStructure(format!("write error: {e}"));
    writeln!(w, "%%MatrixMarket matrix coordinate real general").map_err(io_err)?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz()).map_err(io_err)?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v).map_err(io_err)?;
    }
    Ok(())
}

/// Reads from any `BufRead` (exposed for streaming use).
pub fn read_matrix_market_from<R: BufRead>(mut reader: R) -> Result<CsrMatrix> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|e| Error::InvalidStructure(format!("read error: {e}")))?;
    parse_matrix_market(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 0, 1.5);
        coo.push(1, 2, -2.0);
        coo.push(2, 3, 0.25);
        coo.to_csr()
    }

    #[test]
    fn parse_general_matrix() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 1 2.0\n\
                    3 2 -1.0\n";
        let m = parse_matrix_market(text).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn parse_symmetric_expands_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 3.0\n\
                    2 1 1.0\n";
        let m = parse_matrix_market(text).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn file_round_trip() {
        let m = sample();
        let path = std::env::temp_dir().join("bear_mm_round_trip.mtx");
        write_matrix_market(&m, &path).unwrap();
        let back = read_matrix_market(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_matrix_market("").is_err());
        assert!(parse_matrix_market("not a header\n1 1 0\n").is_err());
        assert!(parse_matrix_market("%%MatrixMarket matrix array real general\n2 2\n").is_err());
        // Entry count mismatch.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(parse_matrix_market(text).is_err());
        // Out-of-range index.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(parse_matrix_market(text).is_err());
        // Zero-based index (MM is 1-based).
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(parse_matrix_market(text).is_err());
    }

    /// Every mutation of a valid file — truncation at each offset, each
    /// byte replaced, and extreme dimensions, counts, indices and values
    /// spliced in — parses or fails with a typed error; none panics, and
    /// a huge header count never becomes a huge reservation.
    #[test]
    fn mutated_files_never_panic() {
        let head = "%%MatrixMarket matrix coordinate real general\n% c\n";
        let base = format!("{head}3 4 3\n1 1 1.5\n2 3 -2.0\n3 4 0.25\n");
        let parse = |text: &str| {
            if let Ok(m) = parse_matrix_market(text) {
                assert!(m.nrows() <= 1_000_000 && m.ncols() <= 1_000_000, "{text:?}");
            }
        };
        for k in 0..=base.len() {
            parse(&base[..k]);
        }
        for i in 0..base.len() {
            for b in [b'0', b'9', b'-', b'.', b' ', b'\n', b'%', b'x', b'e'] {
                let mut bytes = base.as_bytes().to_vec();
                bytes[i] = b;
                parse(std::str::from_utf8(&bytes).unwrap());
            }
        }
        // Dimensions that overflow a row pointer, counts no text can
        // hold, and ids and values that are no numbers at all.
        let entries = "1 1 1.5\n2 3 -2.0\n3 4 0.25\n";
        let huge = ["18446744073709551615", "2305843009213693952", "-1", "NaN", "inf", "-inf"];
        for x in huge {
            for size in [format!("{x} 4 3"), format!("3 {x} 3"), format!("3 4 {x}")] {
                assert!(
                    parse_matrix_market(&format!("{head}{size}\n{entries}")).is_err(),
                    "{size}"
                );
            }
            for entry in [format!("{x} 1 1.0"), format!("1 {x} 1.0")] {
                assert!(
                    parse_matrix_market(&format!("{head}3 4 1\n{entry}\n")).is_err(),
                    "{entry}"
                );
            }
        }
        assert!(parse_matrix_market(&format!("{head}3 4 10000000000000\n{entries}")).is_err());
        for v in ["NaN", "inf", "-inf"] {
            assert!(parse_matrix_market(&format!("{head}3 4 1\n1 1 {v}\n")).is_err(), "{v}");
        }
    }

    #[test]
    fn complex_and_hermitian_rejected() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n";
        assert!(parse_matrix_market(text).is_err());
        let text = "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n";
        assert!(parse_matrix_market(text).is_err());
    }
}
