//! A deliberately minimal HTTP/1.1 subset — just enough for `curl`, load
//! generators, and health probes to talk to the daemon without pulling a
//! web framework into a std-only workspace.
//!
//! Supported: persistent connections with request pipelining (HTTP/1.1
//! keep-alive semantics), `Connection: close` / `keep-alive` headers,
//! HTTP/1.0 requests (which default to close), `Content-Length` bodies,
//! CRLF or bare-LF line endings. Not supported (and not needed): chunked
//! transfer, TLS.
//!
//! # Keep-alive and pipelining contract
//!
//! [`RequestReader`] owns the connection's read buffer across requests:
//! bytes read past one request's `Content-Length` are retained as the
//! next request's prefix, so a client may pipeline — write several
//! requests back-to-back before reading any response — and receives the
//! responses in request order. The connection stays open until the client
//! sends `Connection: close` (or an HTTP/1.0 request without
//! `Connection: keep-alive`), closes its write side at a request
//! boundary, or goes idle past the server's read timeout. A parse error
//! always closes the connection: after a malformed request the framing is
//! untrustworthy, so the server answers 4xx with `Connection: close` and
//! drops any pipelined bytes.

use std::io::{self, Read, Write};

/// Largest accepted request body (64 MiB) — a million-tuple batch fits
/// comfortably; anything bigger should be split by the client.
pub const MAX_BODY_BYTES: u64 = 64 * 1024 * 1024;

/// Largest accepted header block (64 KiB).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/impute`), query string included if any.
    pub path: String,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection: close` / `keep-alive` header overrides either way.
    pub keep_alive: bool,
}

/// Why a request could not be parsed; maps to a 4xx response.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Body larger than [`MAX_BODY_BYTES`].
    TooLarge,
    /// Socket-level failure.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Offset just past the first blank line (CRLF or bare LF), if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    // The head is tiny relative to bodies, so a simple windows scan per
    // read is cheap; the first terminator found is the real one (nothing
    // before it can contain a blank line).
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .into_iter()
        .chain(buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
        .min()
}

/// A timeout-ish read error: the peer is still connected but sent nothing
/// within the socket's read timeout (both kinds occur depending on
/// platform).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads a stream of requests off one connection, carrying over-read
/// bytes from one request to the next (see the module docs for the
/// keep-alive / pipelining contract).
#[derive(Default)]
pub struct RequestReader {
    /// Bytes already read off the socket but not yet consumed by a
    /// request — the head-in-progress plus, after a pipelined request,
    /// the next request's prefix.
    buf: Vec<u8>,
}

impl RequestReader {
    /// A reader with an empty carry-over buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the next request. `Ok(None)` means the client finished
    /// cleanly: EOF (or an idle read timeout) at a request boundary.
    /// EOF mid-request is `Malformed`.
    pub fn read_request<S: Read>(&mut self, stream: &mut S) -> Result<Option<Request>, HttpError> {
        // Chunked reads into one buffer (not a syscall per byte — this is
        // the per-request hot path). Bytes past the blank line already
        // read here are the body's prefix; bytes past the body are the
        // next pipelined request's prefix and are kept for the next call.
        let mut chunk = [0u8; 4096];
        let head_len = loop {
            if let Some(end) = head_end(&self.buf) {
                break end;
            }
            if self.buf.len() >= MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("header block too large"));
            }
            match stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(HttpError::Malformed("connection closed mid-request")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) && self.buf.is_empty() => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
        let mut lines = head.lines();
        let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or(HttpError::Malformed("missing method"))?
            .to_string();
        let path = parts
            .next()
            .ok_or(HttpError::Malformed("missing path"))?
            .to_string();
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 (and anything older)
        // to close; a Connection header below overrides the default.
        let mut keep_alive = !parts
            .next()
            .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));

        let mut content_length: Option<u64> = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    let parsed = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::Malformed("bad content-length"))?;
                    // Repeated Content-Length headers are a
                    // request-smuggling staple (RFC 9112 §6.3): reject the
                    // request outright rather than silently picking one —
                    // even when the copies agree.
                    if content_length.is_some() {
                        return Err(HttpError::Malformed("duplicate content-length"));
                    }
                    content_length = Some(parsed);
                } else if name.eq_ignore_ascii_case("connection") {
                    for token in value.split(',') {
                        let token = token.trim();
                        if token.eq_ignore_ascii_case("close") {
                            keep_alive = false;
                        } else if token.eq_ignore_ascii_case("keep-alive") {
                            keep_alive = true;
                        }
                    }
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        let content_length = content_length as usize;
        // Body prefix already read alongside the head, then exactly the
        // rest; anything past the body stays buffered for the next call.
        let mut body = self.buf.split_off(head_len);
        self.buf.clear();
        if body.len() > content_length {
            self.buf = body.split_off(content_length);
        } else {
            let already = body.len();
            body.resize(content_length, 0);
            stream.read_exact(&mut body[already..])?;
        }
        Ok(Some(Request {
            method,
            path,
            body,
            keep_alive,
        }))
    }
}

/// Appends a complete response (status line, minimal headers, body) to
/// `out` without any I/O — the daemon assembles each response in a
/// reusable buffer and ships it with one `write_all`, keeping the
/// keep-alive hot path at one syscall per response.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the first request in `raw`.
    fn read_request(raw: &[u8]) -> Result<Request, HttpError> {
        RequestReader::new()
            .read_request(&mut &raw[..])
            .map(|r| r.expect("a request, not a clean end of stream"))
    }

    /// One complete response as text.
    fn response(keep_alive: bool) -> String {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "text/plain", keep_alive, &[], b"ok\n");
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /impute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/impute");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_bare_lf_get() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(close).unwrap().keep_alive);
        let ka10 = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(ka10).unwrap().keep_alive);
        let plain10 = b"GET / HTTP/1.0\r\nHost: x\r\n\r\n";
        assert!(
            !read_request(plain10).unwrap().keep_alive,
            "HTTP/1.0 defaults to close"
        );
        // Token list form, mixed case.
        let listed = b"GET / HTTP/1.1\r\nConnection: TE, Close\r\n\r\n";
        assert!(!read_request(listed).unwrap().keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        // Two requests written back-to-back: the reader must hand the
        // over-read bytes of the first to the second, then report a clean
        // end-of-stream.
        let raw =
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut stream = &raw[..];
        let mut reader = RequestReader::new();
        let first = reader.read_request(&mut stream).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        let second = reader.read_request(&mut stream).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
        assert!(reader.read_request(&mut stream).unwrap().is_none());
    }

    #[test]
    fn clean_eof_at_boundary_is_none_but_mid_request_is_malformed() {
        let mut empty: &[u8] = b"";
        assert!(RequestReader::new()
            .read_request(&mut empty)
            .unwrap()
            .is_none());
        let mut partial: &[u8] = b"GET / HT";
        assert!(matches!(
            RequestReader::new().read_request(&mut partial),
            Err(HttpError::Malformed("connection closed mid-request"))
        ));
    }

    #[test]
    fn large_body_spans_multiple_read_chunks() {
        // Head + body prefix arrive in the first 4 KiB chunk; the rest of
        // the body comes from the length-delimited read_exact tail.
        let body: String = "x".repeat(10_000);
        let raw = format!(
            "POST /impute HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.body.len(), body.len());
        assert_eq!(req.body, body.as_bytes());
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        // Two disagreeing lengths: the classic smuggling shape. Before the
        // fix the last header silently won; now the request is malformed.
        let raw = b"POST /impute HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello";
        assert!(matches!(
            read_request(raw),
            Err(HttpError::Malformed("duplicate content-length"))
        ));
    }

    #[test]
    fn rejects_duplicate_content_lengths_even_when_equal() {
        let raw = b"POST /impute HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(
            read_request(raw),
            Err(HttpError::Malformed("duplicate content-length"))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn response_shape() {
        let text = response(false);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        assert!(response(true).contains("Connection: keep-alive\r\n"));
    }
}
