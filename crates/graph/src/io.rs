//! Edge-list I/O in the SNAP-style whitespace format the paper's datasets
//! ship in: one `u v [w]` per line, `#` comments, blank lines ignored.

use crate::graph::Graph;
use bear_sparse::mem::MAX_DIM;
use bear_sparse::{Error, Result};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Parses an edge list from a string. Node count is
/// `max(node id) + 1` unless `n` is given.
pub fn parse_edge_list(text: &str, n: Option<usize>) -> Result<Graph> {
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_id = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| Error::InvalidStructure(format!("line {}: bad source", lineno + 1)))?;
        let v: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| Error::InvalidStructure(format!("line {}: bad target", lineno + 1)))?;
        let w: f64 = match parts.next() {
            Some(t) => t
                .parse()
                .map_err(|_| Error::InvalidStructure(format!("line {}: bad weight", lineno + 1)))?,
            None => 1.0,
        };
        max_id = max_id.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = match n {
        Some(n) => n,
        None if edges.is_empty() => 0,
        None => max_id.checked_add(1).filter(|&n| n <= MAX_DIM).ok_or_else(|| {
            Error::InvalidStructure(format!("node id {max_id} is too large for a node count"))
        })?,
    };
    Graph::from_weighted_edges(n, &edges)
}

/// Reads an edge list from a file.
pub fn read_edge_list(path: &Path, n: Option<usize>) -> Result<Graph> {
    let file = std::fs::File::open(path)
        .map_err(|e| Error::InvalidStructure(format!("cannot open {}: {e}", path.display())))?;
    let mut text = String::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| Error::InvalidStructure(format!("read error: {e}")))?;
        text.push_str(&line);
        text.push('\n');
    }
    parse_edge_list(&text, n)
}

/// Writes a graph as an edge list (weights included when ≠ 1).
pub fn write_edge_list(g: &Graph, path: &Path) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::InvalidStructure(format!("cannot create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())
        .map_err(|e| Error::InvalidStructure(format!("write error: {e}")))?;
    for (u, v, weight) in g.edges() {
        let line = if (weight - 1.0).abs() < f64::EPSILON {
            format!("{u} {v}")
        } else {
            format!("{u} {v} {weight}")
        };
        writeln!(w, "{line}").map_err(|e| Error::InvalidStructure(format!("write error: {e}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_edge_list() {
        let g = parse_edge_list("# comment\n0 1\n1 2\n\n2 0\n", None).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parses_weights() {
        let g = parse_edge_list("0 1 2.5\n", None).unwrap();
        assert_eq!(g.adjacency().get(0, 1), 2.5);
    }

    #[test]
    fn explicit_node_count_overrides() {
        let g = parse_edge_list("0 1\n", Some(10)).unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_edge_list("a b\n", None).is_err());
        assert!(parse_edge_list("0\n", None).is_err());
        assert!(parse_edge_list("0 1 zzz\n", None).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("bear_graph_io_test.txt");
        let g = Graph::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 3.0), (3, 0, 1.0)]).unwrap();
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path, Some(4)).unwrap();
        assert_eq!(back, g);
        let _ = std::fs::remove_file(&path);
    }

    /// Every mutation of a valid edge list — truncation at each offset,
    /// each byte replaced, and extreme ids and weights spliced in — parses
    /// to a graph or fails with a typed error; none panics. Ids stay small
    /// enough that the inferred node count is at most 10⁶.
    #[test]
    fn mutated_edge_lists_never_panic() {
        let base = "# nodes 5\n0 1\n1 2 0.5\n2 0\n% c\n3 4 2\n4 4\n";
        let parse = |text: &str| {
            if let Ok(g) = parse_edge_list(text, None) {
                assert!(g.num_nodes() <= 1_000_000, "{text:?}");
            }
        };
        for k in 0..=base.len() {
            parse(&base[..k]);
        }
        for i in 0..base.len() {
            for b in [b'0', b'9', b'-', b'.', b' ', b'\n', b'#', b'x', b'e'] {
                let mut bytes = base.as_bytes().to_vec();
                bytes[i] = b;
                parse(std::str::from_utf8(&bytes).unwrap());
            }
        }
        let extremes = [
            "18446744073709551615",
            "18446744073709551614",
            "-1",
            "-0",
            "NaN",
            "inf",
            "-inf",
            "1e308",
        ];
        for x in extremes {
            for line in [format!("{x} 1"), format!("0 {x}"), format!("0 1 {x}")] {
                parse(&format!("{base}{line}\n"));
            }
        }
        for line in ["18446744073709551615 0", "0 18446744073709551614"] {
            let err = parse_edge_list(line, None).unwrap_err();
            assert!(matches!(err, Error::InvalidStructure(_)), "{line}: {err:?}");
        }
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list("# nothing\n", None).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }
}
