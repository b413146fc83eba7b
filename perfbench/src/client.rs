//! HTTP/1.1 client with both connection disciplines the workloads need:
//! a pooled keep-alive connection reused across requests, and a fresh
//! `Connection: close` socket per request.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What the benchmark needs from a response.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    /// `X-Graph-Version`, when the server sent one.
    pub graph_version: Option<u64>,
    /// Whether the server tagged the answer as degraded (`X-Degraded`).
    pub degraded: bool,
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

/// The exact bytes the benchmark sends for one request.
pub fn request_bytes(method: &str, target: &str, addr: SocketAddr, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: {connection}\r\n\r\n")
        .into_bytes()
}

fn read_reply(reader: &mut impl BufRead) -> std::io::Result<Reply> {
    let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut reply = Reply { status, keep_alive: true, ..Reply::default() };
    let mut content_length = None;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => content_length = value.parse::<usize>().ok(),
            "x-graph-version" => reply.graph_version = value.parse().ok(),
            "x-degraded" => reply.degraded = true,
            "connection" => reply.keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let len = content_length.ok_or_else(|| bad("response without Content-Length".into()))?;
    reply.body.resize(len, 0);
    reader.read_exact(&mut reply.body)?;
    Ok(reply)
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// A persistent keep-alive connection; reconnects transparently when
/// the server closed it after the previous response.
pub struct KeepAlive {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl KeepAlive {
    pub fn new(addr: SocketAddr) -> Self {
        KeepAlive { addr, conn: None }
    }

    pub fn send(&mut self, method: &str, target: &str) -> std::io::Result<Reply> {
        let (writer, reader) = match &mut self.conn {
            Some(conn) => conn,
            None => {
                let stream = open(self.addr)?;
                let reader = BufReader::new(stream.try_clone()?);
                self.conn.insert((stream, reader))
            }
        };
        let result = writer
            .write_all(&request_bytes(method, target, self.addr, true))
            .and_then(|()| read_reply(reader));
        match &result {
            Ok(reply) if reply.keep_alive => {}
            _ => self.conn = None,
        }
        result
    }
}

/// One request on a fresh connection (`Connection: close`).
pub fn one_shot(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<Reply> {
    let mut stream = open(addr)?;
    stream.write_all(&request_bytes(method, target, addr, false))?;
    read_reply(&mut BufReader::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headers_and_exact_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Graph-Version: 2\r\n\
                     Connection: keep-alive\r\n\r\nhelloHTTP/1.1 503 Service Unavailable\r\n\
                     Content-Length: 0\r\nConnection: close\r\nX-Degraded: deadline\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_reply(&mut reader).unwrap();
        assert_eq!((first.status, first.graph_version, first.keep_alive), (200, Some(2), true));
        assert_eq!(first.body, b"hello");
        let second = read_reply(&mut reader).unwrap();
        assert_eq!((second.status, second.keep_alive, second.degraded), (503, false, true));
        assert!(read_reply(&mut reader).is_err());
    }
}
