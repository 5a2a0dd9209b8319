//! Edge-list file I/O.
//!
//! Two formats:
//! * **text** — one `src dst` pair per line, `#`-prefixed comment lines
//!   ignored (the SNAP dataset convention, so real LiveJournal/Twitter dumps
//!   can be dropped in as replacements for the synthetic stand-ins);
//! * **binary** — a fixed little-endian header (`magic, version, |V|, |E|`)
//!   followed by `|E|` pairs of `u32`, for fast reload of generated graphs.

use crate::{Edge, EdgeList};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: u32 = 0x4849_5041; // "HIPA"
const VERSION: u32 = 1;

/// Edges read per chunk by [`read_binary`] (512 KiB of payload): memory
/// grows with the bytes actually present, never with the header's claim.
const READ_CHUNK_EDGES: usize = 1 << 16;

/// Largest vertex count whose ids all fit a `u32`.
const MAX_VERTICES: u64 = 1 << 32;

/// Reads a SNAP-style text edge list. Vertex count is inferred from the
/// maximum endpoint unless a `# Nodes: <n>` comment declares it.
pub fn read_text<R: Read>(r: R) -> io::Result<EdgeList> {
    let reader = BufReader::new(r);
    let mut edges: Vec<Edge> = Vec::new();
    let mut declared_nodes: Option<u64> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            if let Some(n) = rest.trim().strip_prefix("Nodes:") {
                declared_nodes = n.split_whitespace().next().and_then(|t| t.parse::<u64>().ok());
                if declared_nodes.is_some_and(|d| d > MAX_VERTICES) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {}: Nodes header exceeds the u32 id space", lineno + 1),
                    ));
                }
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: missing field", lineno + 1),
                )
            })?
            .parse()
            .map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", lineno + 1))
            })
        };
        let src = parse(it.next())?;
        let dst = parse(it.next())?;
        edges.push(Edge { src, dst });
    }
    let inferred = edges.iter().map(|e| e.src.max(e.dst) as usize + 1).max().unwrap_or(0);
    let n = declared_nodes.map_or(inferred, |d| (d as usize).max(inferred));
    EdgeList::try_new(n, edges)
}

/// Writes the text format, with a `# Nodes:` header so isolated trailing
/// vertices round-trip.
pub fn write_text<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# Nodes: {} Edges: {}", el.num_vertices(), el.num_edges())?;
    for e in el.edges() {
        writeln!(w, "{}\t{}", e.src, e.dst)?;
    }
    w.flush()
}

/// Reads the binary format written by [`write_binary`].
pub fn read_binary<R: Read>(mut r: R) -> io::Result<EdgeList> {
    let mut head = [0u8; 16];
    r.read_exact(&mut head)?;
    let word = |i: usize| u32::from_le_bytes(head[i * 4..i * 4 + 4].try_into().unwrap());
    if word(0) != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    if word(1) != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported version {}", word(1)),
        ));
    }
    let n = word(2) as usize;
    let m = word(3) as usize;
    // The header is untrusted: read in bounded chunks so a short file
    // fails before its claimed edge count is ever allocated.
    let mut buf = vec![0u8; 8 * m.min(READ_CHUNK_EDGES)];
    let mut edges = Vec::with_capacity(m.min(READ_CHUNK_EDGES));
    let mut left = m;
    while left > 0 {
        let chunk = &mut buf[..8 * left.min(READ_CHUNK_EDGES)];
        r.read_exact(chunk)?;
        edges.extend(chunk.chunks_exact(8).map(|c| Edge {
            src: u32::from_le_bytes(c[0..4].try_into().unwrap()),
            dst: u32::from_le_bytes(c[4..8].try_into().unwrap()),
        }));
        left -= chunk.len() / 8;
    }
    EdgeList::try_new(n, edges)
}

/// Writes the binary format. Its header holds the vertex and edge counts as
/// u32, so a list with more of either is `InvalidInput`, and nothing is
/// written.
pub fn write_binary<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let header_word = |what: &str, count: usize| {
        u32::try_from(count).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{count} {what} do not fit the binary header's u32 count"),
            )
        })
    };
    let n = header_word("vertices", el.num_vertices())?;
    let m = header_word("edges", el.num_edges())?;
    let mut w = BufWriter::new(w);
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    for e in el.edges() {
        w.write_all(&e.src.to_le_bytes())?;
        w.write_all(&e.dst.to_le_bytes())?;
    }
    w.flush()
}

/// Loads a graph from a path, picking the format by extension: `.bin` is
/// binary, anything else is text.
pub fn load_path<P: AsRef<Path>>(path: P) -> io::Result<EdgeList> {
    let f = std::fs::File::open(&path)?;
    if path.as_ref().extension().is_some_and(|e| e == "bin") {
        read_binary(f)
    } else {
        read_text(f)
    }
}

/// Saves a graph to a path, picking the format by extension as in
/// [`load_path`].
pub fn save_path<P: AsRef<Path>>(path: P, el: &EdgeList) -> io::Result<()> {
    let f = std::fs::File::create(&path)?;
    if path.as_ref().extension().is_some_and(|e| e == "bin") {
        write_binary(f, el)
    } else {
        write_text(f, el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(6, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(4, 0)])
    }

    #[test]
    fn text_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &el).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn text_parses_comments_and_blank_lines() {
        let input = b"# a comment\n\n0 1\n2 3\n" as &[u8];
        let el = read_text(input).unwrap();
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.num_vertices(), 4);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text(b"0 x\n" as &[u8]).is_err());
        assert!(read_text(b"0\n" as &[u8]).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = [0u8; 16];
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncated() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn text_rejects_nodes_header_beyond_u32_ids() {
        let err = read_text(b"# Nodes: 4294967297\n0 1\n" as &[u8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // 2^32 vertices is the whole id space and still allowed.
        assert_eq!(read_text(b"# Nodes: 4294967296\n" as &[u8]).unwrap().num_vertices(), 1 << 32);
    }

    #[test]
    fn binary_rejects_counts_beyond_its_u32_header() {
        let mut buf = Vec::new();
        let err = write_binary(&mut buf, &EdgeList::new(1 << 32, vec![])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may be written before the error");
    }

    #[test]
    fn binary_out_of_range_endpoint_is_invalid_data() {
        let mut buf = Vec::new();
        for w in [MAGIC, VERSION, 2, 1, 0, 2] {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let err = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn path_round_trip_by_extension() {
        let dir = std::env::temp_dir();
        let tp = dir.join("hipa_io_test.txt");
        let bp = dir.join("hipa_io_test.bin");
        let el = sample();
        save_path(&tp, &el).unwrap();
        save_path(&bp, &el).unwrap();
        assert_eq!(load_path(&tp).unwrap(), el);
        assert_eq!(load_path(&bp).unwrap(), el);
        let _ = std::fs::remove_file(tp);
        let _ = std::fs::remove_file(bp);
    }
}
