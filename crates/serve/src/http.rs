//! Minimal HTTP/1.1 wire handling: request parsing, response writing,
//! and a tiny blocking client for tests.
//!
//! This is deliberately a small subset of the protocol — exactly what
//! the serving front-end needs and nothing more:
//!
//! * requests: request line + headers, optional `Content-Length` body
//!   (bodies are read and discarded; every endpoint takes its input
//!   from the URL query string and headers);
//! * responses: fixed status line, explicit `Content-Length`, optional
//!   keep-alive; the head is built in one buffer and leaves with the
//!   body in one vectored write (DESIGN.md §14, write discipline);
//! * no chunked transfer encoding, no `Expect: continue`, no TLS.
//!
//! Hard limits keep a malicious or broken peer from pinning a
//! connection worker: header blocks over [`MAX_HEAD_BYTES`] and bodies
//! over [`MAX_BODY_BYTES`] are rejected with a typed [`HttpError`].

use std::io::{BufRead, IoSlice, Read, Write};

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, in bytes (bodies are discarded).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire do not form a well-formed request.
    BadRequest(String),
    /// The request exceeded [`MAX_HEAD_BYTES`] or [`MAX_BODY_BYTES`].
    TooLarge,
    /// The underlying socket failed or timed out *before any byte of a
    /// request was consumed* — an idle connection. Retrying the read is
    /// safe.
    Io(std::io::Error),
    /// The socket timed out or failed *mid-request*: bytes of a partial
    /// request were already consumed off the wire, so the stream
    /// position is unrecoverable. Retrying the read would parse from the
    /// middle of the torn request (connection poisoning); the only safe
    /// move is to close.
    TornRead(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::TornRead(e) => write!(f, "torn read mid-request: {e}"),
        }
    }
}

/// One parsed request: method, decoded path, decoded query parameters,
/// and headers with lower-cased names.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Percent-decoded `key=value` pairs from the query string, in
    /// order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercase-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Whether the peer asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a URL component. Invalid
/// escapes pass through literally — query values here are node ids and
/// graph names, not arbitrary payloads.
fn percent_decode(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s.as_bytes();
    while let Some((&b, tail)) = rest.split_first() {
        rest = tail;
        match b {
            b'+' => out.push(b' '),
            b'%' => {
                let decoded = tail.split_at_checked(2).and_then(|(hex, after)| {
                    let byte = u8::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                    Some((byte, after))
                });
                match decoded {
                    Some((byte, after)) => {
                        out.push(byte);
                        rest = after;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw target (`/v1/query?seed=3&graph=g`) into a decoded path
/// and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), pairs)
}

/// Reads one CRLF- (or bare-LF-) terminated line, enforcing the running
/// head-size budget.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let take = *budget as u64 + 1;
    let n = match reader.by_ref().take(take).read_until(b'\n', &mut raw) {
        Ok(n) => n,
        // `read_until` may consume bytes *before* failing (e.g. a slow
        // peer trickles half a line, then the read timeout fires). Those
        // bytes are gone from the stream; report the loss as a torn read
        // so the caller closes instead of re-parsing from mid-line.
        Err(e) => {
            return Err(if raw.is_empty() { HttpError::Io(e) } else { HttpError::TornRead(e) })
        }
    };
    if n == 0 {
        return Ok(None); // clean EOF
    }
    if raw.last() != Some(&b'\n') {
        // Either the peer sent a torn line or the budget ran out.
        return Err(if n as u64 >= take {
            HttpError::TooLarge
        } else {
            HttpError::Io(std::io::ErrorKind::UnexpectedEof.into())
        });
    }
    *budget -= n.min(*budget);
    while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("non-UTF-8 bytes in request head".into()))
}

/// Escalates a retryable idle-socket error into a fatal torn read. Used
/// once the request line is in hand: from that point, any timeout left
/// a partial request on the wire.
fn escalate(e: HttpError) -> HttpError {
    match e {
        HttpError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            HttpError::TornRead(io)
        }
        other => other,
    }
}

/// Parses one request off `reader`. Returns `Ok(None)` on a clean EOF
/// before any bytes (the peer closed an idle keep-alive connection).
/// A timeout before the first byte is [`HttpError::Io`] (retry is
/// safe); a timeout after any byte was consumed is
/// [`HttpError::TornRead`] (the connection must close).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let Some(request_line) = read_line(reader, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line '{request_line}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported version '{version}'")));
    }
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, &mut budget).map_err(escalate)? else {
            return Err(HttpError::Io(std::io::ErrorKind::UnexpectedEof.into()));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header line '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = parse_target(target);
    let request =
        Request { keep_alive: keep_alive_of(version, &headers), method, path, query, headers };
    // Read and discard any body so the next keep-alive request parses
    // from a clean stream position.
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length '{len}'")))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        std::io::copy(&mut reader.by_ref().take(len as u64), &mut std::io::sink())
            .map_err(|e| escalate(HttpError::Io(e)))?;
    }
    Ok(Some(request))
}

/// HTTP/1.1 defaults to keep-alive unless `Connection: close`; HTTP/1.0
/// defaults to close unless `Connection: keep-alive`.
fn keep_alive_of(version: &str, headers: &[(String, String)]) -> bool {
    let connection =
        headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.to_ascii_lowercase());
    match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version != "HTTP/1.0",
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-emitted `Content-Length`,
    /// `Content-Type`, and `Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value.
    pub content_type: &'static str,
}

impl Response {
    /// An empty response with `status`.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response onto `w`: the status line and headers
    /// into one small head buffer, then head and body in one vectored
    /// write, so a socket never sees a run of small writes for Nagle's
    /// algorithm to hold back. The body is never copied.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        use std::fmt::Write as _;
        // Room for the fixed lines plus a handful of short headers.
        let mut head = String::with_capacity(256);
        // Writing into a `String` cannot fail.
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        write_all_vectored(w, &mut [IoSlice::new(head.as_bytes()), IoSlice::new(&self.body)])?;
        w.flush()
    }
}

/// Writes every byte of `bufs` with `write_vectored`, resuming after
/// short writes. A writer that accepts nothing fails with
/// [`std::io::ErrorKind::WriteZero`] instead of spinning.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Blocking one-shot client (tests)
// ---------------------------------------------------------------------------

/// A response as seen by the [`client`] helpers.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers as `(lowercase-name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Minimal blocking HTTP client: one request per connection
/// (`Connection: close`), used by the integration tests, plus
/// [`client::read_response`] for tests that hold a keep-alive
/// connection themselves. Not exposed as a general-purpose client.
pub mod client {
    use super::ClientResponse;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// Issues `method` `target` against `addr` with extra `headers` and
    /// returns the parsed response.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        // The whole request head leaves in one write.
        let mut head =
            format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        (&stream).write_all(head.as_bytes())?;
        read_response(&mut BufReader::new(stream))
    }

    /// Reads one response off `reader`: status line, headers, and a body
    /// framed by `Content-Length` (or running to EOF without one). On a
    /// keep-alive connection the reader is left at the next response.
    pub fn read_response(reader: &mut impl BufRead) -> std::io::Result<ClientResponse> {
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line '{status_line}'")))?;
        let mut headers = Vec::new();
        let mut content_length = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse::<usize>().ok();
                }
                headers.push((name, value));
            }
        }
        let mut body = Vec::new();
        match content_length {
            Some(len) => {
                body.resize(len, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
        Ok(ClientResponse { status, headers, body })
    }

    /// `GET target`.
    pub fn get(
        addr: SocketAddr,
        target: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        request(addr, "GET", target, headers)
    }

    /// `POST target` (no body — every endpoint takes URL parameters).
    pub fn post(
        addr: SocketAddr,
        target: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        request(addr, "POST", target, headers)
    }

    /// Extracts the JSON number array stored under `"key":[...]` in
    /// `body`. Good enough for the fixed shapes this server emits; not a
    /// general JSON parser.
    pub fn json_number_array(body: &str, key: &str) -> Option<Vec<f64>> {
        let (_, after) = body.split_once(&format!("\"{key}\":["))?;
        let (inner, _) = after.split_once(']')?;
        if inner.trim().is_empty() {
            return Some(Vec::new());
        }
        inner.split(',').map(|tok| tok.trim().parse::<f64>().ok()).collect()
    }

    /// Extracts the JSON number stored under `"key":` in `body`.
    pub fn json_number(body: &str, key: &str) -> Option<f64> {
        let (_, after) = body.split_once(&format!("\"{key}\":"))?;
        let mut tokens =
            after.trim_start().split(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
        tokens.next()?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let req = parse(
            "GET /v1/query?graph=web%20graph&seed=42&flag HTTP/1.1\r\n\
             Host: localhost\r\nX-Deadline-Ms: 250\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.query_param("graph"), Some("web graph"));
        assert_eq!(req.query_param("seed"), Some("42"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.header("x-deadline-ms"), Some("250"));
        assert_eq!(req.header("X-DEADLINE-MS"), Some("250"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_torn_requests_are_errors() {
        assert!(parse("").unwrap().is_none());
        assert!(matches!(parse("GET /incomplete"), Err(HttpError::Io(_))));
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n"), Err(HttpError::BadRequest(_))));
    }

    /// Yields `data`, then fails every further read with `WouldBlock` —
    /// the shape of a slow peer tripping the socket read timeout.
    struct StallAfter(&'static [u8]);

    impl std::io::Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.0.len().min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn timeout_before_any_byte_is_retryable_io() {
        let mut reader = BufReader::new(StallAfter(b""));
        assert!(matches!(read_request(&mut reader), Err(HttpError::Io(_))));
    }

    #[test]
    fn timeout_mid_request_line_is_a_torn_read() {
        // Half a request line trickles in, then the timeout fires: the
        // consumed bytes are unrecoverable, so retrying the read would
        // parse from mid-stream. Must be TornRead, not retryable Io.
        let mut reader = BufReader::new(StallAfter(b"GET /v1/que"));
        assert!(matches!(read_request(&mut reader), Err(HttpError::TornRead(_))));
    }

    #[test]
    fn timeout_mid_headers_is_a_torn_read() {
        // The request line parsed cleanly but a header is in flight: the
        // stream holds a partial request, so an idle-style retry would
        // poison the connection.
        let mut reader = BufReader::new(StallAfter(b"GET / HTTP/1.1\r\nHost: lo"));
        assert!(matches!(read_request(&mut reader), Err(HttpError::TornRead(_))));
        let mut reader = BufReader::new(StallAfter(b"GET / HTTP/1.1\r\n"));
        assert!(matches!(read_request(&mut reader), Err(HttpError::TornRead(_))));
    }

    #[test]
    fn timeout_mid_body_drain_is_a_torn_read() {
        let mut reader = BufReader::new(StallAfter(
            b"POST /admin/load HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel",
        ));
        assert!(matches!(read_request(&mut reader), Err(HttpError::TornRead(_))));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let huge = format!("GET / HTTP/1.1\r\nX-Filler: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge)));
    }

    #[test]
    fn body_is_drained_for_keep_alive_reuse() {
        let raw = "POST /admin/load HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
    }

    #[test]
    fn response_serialization_round_trips_through_client_parser() {
        let resp = Response::json(200, "{\"ok\":true}".into()).header("X-Graph-Version", "3");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, false).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Graph-Version: 3\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    /// Accepts at most 7 bytes per call, spread over as many slices as
    /// they cover, so every head/body boundary is crossed by a short
    /// write.
    struct SevenBytes(Vec<u8>);

    impl Write for SevenBytes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut room = 7;
            for buf in bufs {
                let n = buf.len().min(room);
                self.0.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(7 - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Accepts nothing: every write returns `Ok(0)`.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_send_every_byte_in_order() {
        let resp = Response::json(200, "{\"ok\":true}".into()).header("X-Graph-Version", "3");
        let expected = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                        Content-Length: 11\r\nConnection: keep-alive\r\n\
                        X-Graph-Version: 3\r\n\r\n{\"ok\":true}";
        let mut short = SevenBytes(Vec::new());
        resp.write_to(&mut short, true).unwrap();
        assert_eq!(String::from_utf8(short.0).unwrap(), expected);

        // An empty body ends the response at the blank line.
        let mut short = SevenBytes(Vec::new());
        Response::new(404).write_to(&mut short, false).unwrap();
        assert_eq!(
            String::from_utf8(short.0).unwrap(),
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn a_writer_that_accepts_nothing_fails_with_write_zero() {
        let err = Response::json(200, "{}".into()).write_to(&mut Full, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn json_helpers_extract_numbers() {
        let body = "{\"seed\":7,\"scores\":[0.5,1e-3,-2.25],\"empty\":[]}";
        assert_eq!(client::json_number(body, "seed"), Some(7.0));
        assert_eq!(client::json_number_array(body, "scores"), Some(vec![0.5, 1e-3, -2.25]));
        assert_eq!(client::json_number_array(body, "empty"), Some(vec![]));
        assert_eq!(client::json_number_array(body, "missing"), None);
        assert_eq!(client::json_number_array("{\"a\":[1,2", "a"), None);
        assert_eq!(client::json_number_array("{\"a\":[1,x]}", "a"), None);
        assert_eq!(client::json_number("{\"n\": -3.5e2}", "n"), Some(-350.0));
        assert_eq!(client::json_number("{\"n\":}", "n"), None);
        assert_eq!(client::json_number("{\"n\":", "n"), None);
        assert_eq!(client::json_number("{\"n\":x}", "missing"), None);
    }

    #[test]
    fn percent_decode_table() {
        let cases = [
            ("", ""),
            ("%", "%"),
            ("%4", "%4"),
            ("a%4", "a%4"),
            ("%41", "A"),
            ("a%41b", "aAb"),
            ("%zz", "%zz"),
            ("%%41", "%A"),
            ("a+b", "a b"),
            ("%E2%82%AC", "€"),
            // A `%` before a multi-byte char stays literal, and the
            // char survives whole.
            ("%é", "%é"),
            ("%4é", "%4é"),
            ("é%41", "éA"),
            // `from_str_radix` takes a sign, so `%+1` is byte 0x01.
            ("%+1", "\u{1}"),
            // A decoded byte that is not UTF-8 becomes U+FFFD.
            ("%FF", "\u{FFFD}"),
        ];
        for (input, want) in cases {
            assert_eq!(percent_decode(input), want, "input {input:?}");
        }
    }
}
