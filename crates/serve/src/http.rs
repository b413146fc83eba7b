//! Minimal HTTP/1.1 wire handling: request parsing, response writing,
//! and a tiny blocking client for tests.
//!
//! This is deliberately a small subset of the protocol — exactly what
//! the serving front-end needs and nothing more:
//!
//! * requests: request line + headers, optional `Content-Length` body
//!   (bodies are read and discarded; every endpoint takes its input
//!   from the URL query string and headers); conflicting
//!   `Content-Length` values and any `Transfer-Encoding` are rejected,
//!   so a body can never be parsed as the next keep-alive request;
//! * responses: fixed status line, explicit `Content-Length`, optional
//!   keep-alive; the head is built in one buffer and leaves with the
//!   body's parts in one vectored write (DESIGN.md §14, write
//!   discipline);
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
    let body_len = body_length(&headers)?;
    let (path, query) = parse_target(target);
    let request =
        Request { keep_alive: keep_alive_of(version, &headers), method, path, query, headers };
    // Read and discard the body so the next keep-alive request parses
    // from a clean stream position; a body cut short by EOF leaves the
    // stream position unknown, so it is a torn read.
    let drained = std::io::copy(&mut reader.by_ref().take(body_len), &mut std::io::sink())
        .map_err(|e| escalate(HttpError::Io(e)))?;
    if drained < body_len {
        return Err(HttpError::TornRead(std::io::ErrorKind::UnexpectedEof.into()));
    }
    Ok(Some(request))
}

/// The body length the headers frame, in bytes (0 without a
/// `Content-Length`). Anything that would let two parsers disagree on
/// where this request ends — and so read body bytes as the next request
/// on a keep-alive stream — is rejected: `Content-Length` values that
/// differ, a value that is not plain decimal digits, and any
/// `Transfer-Encoding` (this server does not decode chunked bodies).
fn body_length(headers: &[(String, String)]) -> Result<u64, HttpError> {
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::BadRequest("transfer-encoding is not supported".into()));
    }
    let mut len = None;
    for (_, value) in headers.iter().filter(|(k, _)| k == "content-length") {
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadRequest(format!("bad content-length '{value}'")));
        }
        // All digits: a parse failure can only be overflow.
        let this = value.parse::<u64>().map_err(|_| HttpError::TooLarge)?;
        match len {
            Some(prev) if prev != this => {
                return Err(HttpError::BadRequest(format!(
                    "conflicting content-length values {prev} and {this}"
                )))
            }
            _ => len = Some(this),
        }
    }
    let len = len.unwrap_or(0);
    if len > MAX_BODY_BYTES as u64 {
        return Err(HttpError::TooLarge);
    }
    Ok(len)
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
    /// Response body bytes, as parts sent back to back (a body encoded
    /// in pieces is never concatenated).
    pub body: Vec<Vec<u8>>,
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

    /// A JSON response. `body` is the finished JSON text: the encoders
    /// build it as bytes, error bodies as a `String`.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::json_parts(status, vec![body.into()])
    }

    /// A JSON response whose text is the concatenation of `parts`, sent
    /// as they are.
    pub fn json_parts(status: u16, parts: Vec<Vec<u8>>) -> Self {
        Response { status, headers: Vec::new(), body: parts, content_type: "application/json" }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: vec![body.into().into_bytes()],
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response onto `w`: the status line and headers
    /// into one small head buffer, then head and body parts in one
    /// vectored write, so a socket never sees a run of small writes for
    /// Nagle's algorithm to hold back. `Content-Length` is the parts'
    /// total; the body is never copied.
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
            self.body.iter().map(Vec::len).sum::<usize>(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut bufs: Vec<IoSlice<'_>> = std::iter::once(head.as_bytes())
            .chain(self.body.iter().map(Vec::as_slice))
            .map(IoSlice::new)
            .collect();
        write_all_vectored(w, &mut bufs)?;
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

    /// Every outcome `read_request` may give untrusted bytes: a parsed
    /// request, a clean EOF, or a typed error — reaching this at all
    /// means it did not panic.
    fn typed(result: &Result<Option<Request>, HttpError>) -> &'static str {
        match result {
            Ok(Some(_)) => "request",
            Ok(None) => "eof",
            Err(HttpError::BadRequest(_)) => "bad_request",
            Err(HttpError::TooLarge) => "too_large",
            Err(HttpError::Io(_)) => "io",
            Err(HttpError::TornRead(_)) => "torn_read",
        }
    }

    /// `prefix`, then `filler` forever, counting the bytes handed out:
    /// a peer that never stops sending.
    struct Endless {
        prefix: Vec<u8>,
        filler: u8,
        served: usize,
    }

    impl std::io::Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for (i, slot) in buf.iter_mut().enumerate() {
                *slot = self.prefix.get(self.served + i).copied().unwrap_or(self.filler);
            }
            self.served += buf.len();
            Ok(buf.len())
        }
    }

    /// Parses off an [`Endless`] stream and returns the outcome with the
    /// number of bytes it pulled off the wire.
    fn parse_endless(prefix: &[u8], filler: u8) -> (&'static str, usize) {
        let mut reader =
            BufReader::with_capacity(1024, Endless { prefix: prefix.to_vec(), filler, served: 0 });
        let outcome = typed(&read_request(&mut reader));
        (outcome, reader.get_ref().served)
    }

    const WITH_BODY: &str = "POST /admin/load?graph=g&index=x HTTP/1.1\r\nHost: a\r\n\
                             Content-Length: 5\r\nX-Deadline-Ms: 9\r\n\r\nhello";

    #[test]
    fn mutation_sweep_gives_typed_outcomes_never_a_panic() {
        let raw = WITH_BODY.as_bytes();
        // Truncation at every offset: only the empty stream is a clean
        // EOF and only the whole request parses; a cut inside the body
        // is a torn read, and every other cut a typed error.
        for cut in 0..=raw.len() {
            let outcome = typed(&read_request(&mut BufReader::new(&raw[..cut])));
            match cut {
                0 => assert_eq!(outcome, "eof"),
                c if c == raw.len() => assert_eq!(outcome, "request"),
                c if c >= raw.len() - 5 => assert_eq!(outcome, "torn_read", "cut at {c}"),
                c => assert!(outcome != "request" && outcome != "eof", "cut at {c}: {outcome}"),
            }
        }
        // Byte flips and substitutions at every offset: any typed
        // outcome, never a panic.
        for at in 0..raw.len() {
            for sub in [raw[at] ^ 0x01, raw[at] ^ 0x20, raw[at] ^ 0x80, b'\n', b':', b'-', 0] {
                let mut bytes = raw.to_vec();
                bytes[at] = sub;
                bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut reader = BufReader::new(bytes.as_slice());
                let _ = typed(&read_request(&mut reader));
            }
        }
    }

    #[test]
    fn content_length_must_be_one_plain_decimal_value() {
        let with = |headers: &str| {
            let raw = format!("POST / HTTP/1.1\r\n{headers}\r\n12345GET / HTTP/1.1\r\n\r\n");
            typed(&parse(&raw))
        };
        for bad in ["-1", "+5", "5.0", "0x10", "abc", "5,5", "5 5", "", "\u{0665}"] {
            assert_eq!(with(&format!("Content-Length: {bad}\r\n")), "bad_request", "{bad:?}");
        }
        // Too large for u64, or over the body bound: refused before any
        // body byte is read.
        for huge in ["99999999999999999999999999", "18446744073709551615", "1048577"] {
            assert_eq!(with(&format!("Content-Length: {huge}\r\n")), "too_large", "{huge}");
        }
        // Differing duplicates would let two parsers frame the request
        // differently; equal duplicates frame it one way.
        assert_eq!(with("Content-Length: 5\r\nContent-Length: 0\r\n"), "bad_request");
        assert_eq!(with("Content-Length: 0\r\ncontent-length: 5\r\n"), "bad_request");
        assert_eq!(with("Content-Length: 5\r\nContent-Length: 05\r\n"), "request");
        // Any Transfer-Encoding: this server does not decode chunked
        // bodies, so reading past the head would desync the stream.
        for te in ["chunked", "identity", "gzip, chunked"] {
            assert_eq!(with(&format!("Transfer-Encoding: {te}\r\n")), "bad_request", "{te}");
            let both = format!("Content-Length: 5\r\nTransfer-Encoding: {te}\r\n");
            assert_eq!(with(&both), "bad_request", "{te}");
        }
    }

    #[test]
    fn hostile_streams_are_cut_off_at_the_size_bounds() {
        // A request line or a header that never ends is refused at the
        // head bound: the parser pulls at most the bound plus one buffer
        // refill off the wire, and keeps at most the bound plus one byte.
        let bound = MAX_HEAD_BYTES + 1 + 1024;
        for prefix in [&b"GET /"[..], b"GET / HTTP/1.1\r\nX-Filler: "] {
            let (outcome, read) = parse_endless(prefix, b'a');
            assert_eq!(outcome, "too_large");
            assert!(read <= bound, "read {read} bytes");
        }
        // Endless short headers add up to the same bound.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..4_000 {
            many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        let (outcome, read) = parse_endless(&many, b'\n');
        assert_eq!(outcome, "too_large");
        assert!(read <= bound, "read {read} bytes");
        // A 100k-seed batch does not fit in a request head.
        let seeds: Vec<String> = (0..100_000).map(|s| s.to_string()).collect();
        let batch = format!("GET /v1/batch?graph=g&seeds={} HTTP/1.1\r\n\r\n", seeds.join(","));
        let (outcome, read) = parse_endless(batch.as_bytes(), b'\n');
        assert_eq!(outcome, "too_large");
        assert!(read <= bound, "read {read} bytes of a {}-byte request", batch.len());
        // A body over its bound is refused before any of it is read.
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let (outcome, read) = parse_endless(head.as_bytes(), b'x');
        assert_eq!(outcome, "too_large");
        assert!(read <= 1024, "read {read} bytes");
        // A body at the bound is drained, not buffered whole, and the
        // next request on the stream parses.
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let mut stream = head.into_bytes();
        stream.resize(stream.len() + MAX_BODY_BYTES, b'x');
        stream.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let mut reader = BufReader::new(stream.as_slice());
        assert_eq!(typed(&read_request(&mut reader)), "request");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/next");
    }

    #[test]
    fn response_serialization_round_trips_through_client_parser() {
        let resp = Response::json(200, "{\"ok\":true}").header("X-Graph-Version", "3");
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
        let resp = Response::json(200, "{\"ok\":true}").header("X-Graph-Version", "3");
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

    /// Accepts one byte per call, from the first non-empty slice.
    struct OneByte(Vec<u8>);

    impl Write for OneByte {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            match bufs.iter().find(|b| !b.is_empty()) {
                Some(buf) => {
                    self.0.push(buf[0]);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A body in parts (one of them empty) leaves head and parts in
    /// order, one byte per write, under a `Content-Length` that is the
    /// parts' total.
    #[test]
    fn multi_part_body_written_one_byte_at_a_time_arrives_in_order() {
        let parts = vec![b"{\"a\":".to_vec(), Vec::new(), b"[1,".to_vec(), b"2]}".to_vec()];
        let resp = Response::json_parts(200, parts).header("X-Graph-Version", "3");
        let mut slow = OneByte(Vec::new());
        resp.write_to(&mut slow, false).unwrap();
        assert_eq!(
            String::from_utf8(slow.0).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 11\r\nConnection: close\r\n\
             X-Graph-Version: 3\r\n\r\n{\"a\":[1,2]}"
        );
    }

    #[test]
    fn a_writer_that_accepts_nothing_fails_with_write_zero() {
        let err = Response::json(200, "{}").write_to(&mut Full, true).unwrap_err();
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
