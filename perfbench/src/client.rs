//! A keep-alive HTTP/1.1 client: one TCP connection, many requests, each
//! response framed by its `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a response may take before the request counts as failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// One response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A persistent connection to the daemon.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Builds the bytes of one `POST` request.
pub fn post_bytes(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, RESPONSE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

impl Client {
    /// Opens a connection.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            addr,
            stream: connect(addr)?,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends one request and reads its response. An I/O error or timeout
    /// leaves the connection re-opened for the next call, so one failure
    /// never poisons the requests after it.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<Response> {
        let result = self
            .stream
            .write_all(request)
            .and_then(|()| self.read_response());
        if result.is_err() {
            self.buf.clear();
            if let Ok(stream) = connect(self.addr) {
                self.stream = stream;
            }
        }
        result
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.call(req.as_bytes())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 8192];
            let got = self.stream.read(&mut chunk)?;
            if got == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..got]);
        };
        let (status, content_length) = parse_head(&self.buf[..head_end])?;
        let mut body = self.buf.split_off(head_end);
        self.buf.clear();
        if body.len() > content_length {
            self.buf = body.split_off(content_length);
        } else {
            let have = body.len();
            body.resize(content_length, 0);
            self.stream.read_exact(&mut body[have..])?;
        }
        Ok(Response { status, body })
    }
}

fn bad(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Status code and `Content-Length` of a response head.
pub fn parse_head(head: &[u8]) -> std::io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let content_length = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())
                .flatten()
        })
        .ok_or_else(|| bad("response without Content-Length"))?;
    Ok((status, content_length))
}
