//! Plain-text edge-list input/output.
//!
//! The format matches SNAP's: one edge per line, `src dst` or `src dst weight`
//! separated by whitespace, with `#`-prefixed comment lines. The paper's
//! ingress loads such text files from HDFS; we read from the local filesystem
//! (see DESIGN.md for the substitution rationale).

use crate::graph::{Graph, VertexId};
use crate::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors surfaced while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem / reader error.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads an edge list from any reader. Vertex ids are taken verbatim, and the
/// vertex count is `max id + 1` (or larger if `min_vertices` says so).
/// Weighted and unweighted lines must not be mixed.
pub fn read_edge_list<R: Read>(reader: R, min_vertices: usize) -> Result<Graph, IoError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId, Option<f64>)> = Vec::new();
    let mut max_id: usize = 0;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u64> { tok.and_then(|t| t.parse().ok()) };
        let (src, dst) = match (parse(it.next()), parse(it.next())) {
            (Some(s), Some(d)) => (s, d),
            _ => {
                return Err(IoError::Parse {
                    line: idx + 1,
                    content: trimmed.to_string(),
                })
            }
        };
        let weight = match it.next() {
            Some(tok) => Some(tok.parse::<f64>().map_err(|_| IoError::Parse {
                line: idx + 1,
                content: trimmed.to_string(),
            })?),
            None => None,
        };
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return Err(IoError::Parse {
                line: idx + 1,
                content: trimmed.to_string(),
            });
        }
        max_id = max_id.max(src as usize).max(dst as usize);
        edges.push((src as VertexId, dst as VertexId, weight));
    }

    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_id + 1).max(min_vertices)
    };
    let mut b = GraphBuilder::new(n);
    let weighted = edges.first().map(|e| e.2.is_some()).unwrap_or(false);
    for (i, (s, d, w)) in edges.into_iter().enumerate() {
        match (weighted, w) {
            (true, Some(w)) => b.add_weighted_edge(s, d, w),
            (false, None) => b.add_edge(s, d),
            _ => {
                return Err(IoError::Parse {
                    line: i + 1,
                    content: "mixed weighted and unweighted lines".to_string(),
                })
            }
        }
    }
    Ok(b.build())
}

/// Reads an edge-list file from `path`. See [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let f = std::fs::File::open(path)?;
    read_edge_list(f, 0)
}

/// Writes `graph` as an edge list. Weights are emitted only for weighted
/// graphs. The output round-trips through [`read_edge_list`].
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# cyclops edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, t, weight) in graph.edges() {
        if graph.is_weighted() {
            writeln!(w, "{s} {t} {weight}")?;
        } else {
            writeln!(w, "{s} {t}")?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes `graph` to the file at `path`. See [`write_edge_list`].
pub fn write_edge_list_file<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), IoError> {
    let f = std::fs::File::create(path)?;
    write_edge_list(graph, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\n0 1\n1 2\n# trailer\n2 0\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
    }

    #[test]
    fn parses_weights() {
        let text = "0 1 2.5\n1 0 0.25\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0), &[2.5]);
    }

    #[test]
    fn rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_mixed_weightedness() {
        let err = read_edge_list("0 1 2.0\n1 0\n".as_bytes(), 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn min_vertices_pads_isolated_tail() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn round_trip_unweighted() {
        let text = "0 2\n2 1\n1 0\n0 1\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn round_trip_weighted_file() {
        let dir = std::env::temp_dir().join(format!("cyclops-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.5);
        b.add_weighted_edge(2, 0, 3.25);
        let g = b.build();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_edge_list_file(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
