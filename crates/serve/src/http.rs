//! A minimal HTTP/1.1 server-side codec — just enough protocol for the
//! `magic serve` API, hand-rolled over `std::net` with no dependencies
//! (the same discipline as `magic-json`).
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! case-insensitive header lookup, and fixed-length responses. Not
//! supported (and answered with a clean error status rather than
//! undefined behavior): chunked transfer encoding and request
//! pipelining. Every response carries `Connection: close`; clients open
//! one connection per request, which on loopback costs far less than
//! the model forward it precedes.

use std::io::{BufRead, Write};

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/v1/predict` (query strings are kept
    /// verbatim; the serve API defines none).
    pub path: String,
    /// Header `(name, value)` pairs in arrival order; look up through
    /// [`Request::header`] for case-insensitive access.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup, first match wins.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line.
    ConnectionClosed,
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    /// Maps to status 400.
    Malformed(String),
    /// The declared body length exceeds the server's limit. Maps to
    /// status 413.
    BodyTooLarge {
        /// The `Content-Length` the client declared.
        declared: usize,
        /// The server's body-size limit.
        limit: usize,
    },
    /// The socket failed mid-read.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => f.write_str("connection closed"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit} byte limit")
            }
            HttpError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one HTTP/1.1 request from a buffered stream.
///
/// `max_body` bounds the accepted `Content-Length`; larger declarations
/// fail *before* reading the body so an oversized upload cannot occupy
/// an IO thread.
pub fn read_request(stream: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let request_line = read_line(stream)?;
    let Some(request_line) = request_line else {
        return Err(HttpError::ConnectionClosed);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::Malformed(format!("bad request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(stream)?
            .ok_or_else(|| HttpError::Malformed("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
        if headers.len() > 100 {
            return Err(HttpError::Malformed("too many headers".into()));
        }
    }

    let mut request = Request { method, path, headers, body: Vec::new() };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed("chunked transfer encoding is not supported".into()));
    }
    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge { declared: content_length, limit: max_body });
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                HttpError::Malformed("connection closed inside body".into())
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(request)
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the
/// terminator. `Ok(None)` means the peer closed before sending a byte.
fn read_line(stream: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let n = stream.read_until(b'\n', &mut raw).map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    while raw.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        raw.pop();
    }
    if raw.len() > 8192 {
        return Err(HttpError::Malformed("header line over 8 KiB".into()));
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))
}

/// The standard reason phrase for the status codes the server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` response with a JSON body.
///
/// `extra_headers` lets call sites attach semantics-bearing headers
/// (e.g. `Retry-After` on a 503 load-shed).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    write_response_typed(stream, status, "application/json", extra_headers, body)
}

/// [`write_response`] with an explicit `Content-Type` — the `/metrics`
/// endpoint answers in the Prometheus text exposition format rather
/// than JSON.
pub fn write_response_typed(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason_phrase(status),
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_bodyless_get_with_bare_lf_lines() {
        let req = parse("GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET /x SPDY/3\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn enforces_the_body_limit_before_reading() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { declared: 4096, limit: 1024 }));
    }

    #[test]
    fn response_wire_format_is_parseable() {
        let mut out = Vec::new();
        write_response(&mut out, 503, &[("retry-after", "1".into())], "{\"error\":\"full\"}")
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("content-length: 16\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"full\"}"));
    }
}
