//! The load generator's HTTP/1.1 client: one persistent connection, one
//! request at a time, written against the protocol rather than the
//! program's own client so that the program is measured from outside.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: the status code and the de-framed body bytes.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// The exact bytes of one keep-alive request with a `Content-Length` body.
pub fn request_bytes(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
        body.len()
    );
    for (name, value) in headers {
        wire.push_str(&format!("{name}: {value}\r\n"));
    }
    wire.push_str("\r\n");
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(body);
    wire
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// A persistent connection that reconnects (and counts it) after the
/// server announces `Connection: close` or the transport fails.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub reconnects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            reconnects: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            s.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Send pre-built request bytes and read the reply.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(&[wire]);
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    /// Build and send one request.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Reply> {
        self.send(&request_bytes(method, target, headers, body))
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.request("GET", target, &[], b"")
    }

    /// POST `body` with `Transfer-Encoding: chunked` in `chunk`-byte pieces
    /// (the streamed-upload path of the ingest route).
    pub fn post_chunked(&mut self, target: &str, body: &[u8], chunk: usize) -> io::Result<Reply> {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
        );
        let mut parts: Vec<Vec<u8>> = vec![head.into_bytes()];
        for piece in body.chunks(chunk.max(1)) {
            let mut framed = format!("{:x}\r\n", piece.len()).into_bytes();
            framed.extend_from_slice(piece);
            framed.extend_from_slice(b"\r\n");
            parts.push(framed);
        }
        parts.push(b"0\r\n\r\n".to_vec());
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        let result = self.exchange(&refs);
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    fn drop_stream(&mut self) {
        if self.stream.take().is_some() {
            self.reconnects += 1;
        }
    }

    fn exchange(&mut self, parts: &[&[u8]]) -> io::Result<Reply> {
        let stream = self.stream()?;
        for part in parts {
            stream.write_all(part)?;
        }
        let (reply, close) = self.read_reply()?;
        if !self.buf.is_empty() {
            return Err(bad("bytes after the response: framing is off"));
        }
        if close {
            self.drop_stream();
        }
        Ok(reply)
    }

    fn fill(&mut self) -> io::Result<()> {
        let stream = self.stream.as_mut().expect("connected");
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            _ => Ok(()),
        }
    }

    /// Read one response; returns it with whether the server announced
    /// `Connection: close`.
    fn read_reply(&mut self) -> io::Result<(Reply, bool)> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not utf-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|l| l.get(..3))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        for line in lines {
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header line"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let body_start = head_end + 4;
        let body = if chunked {
            self.read_chunked(body_start)?
        } else {
            let length = length.ok_or_else(|| bad("response without a length"))?;
            while self.buf.len() < body_start + length {
                self.fill()?;
            }
            let body = self.buf[body_start..body_start + length].to_vec();
            self.buf.drain(..body_start + length);
            body
        };
        Ok((Reply { status, body }, close))
    }

    fn read_chunked(&mut self, mut pos: usize) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let line_end = loop {
                if let Some(off) = self.buf[pos..].windows(2).position(|w| w == b"\r\n") {
                    break pos + off;
                }
                self.fill()?;
            };
            let size = std::str::from_utf8(&self.buf[pos..line_end])
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                .ok_or_else(|| bad("bad chunk size"))?;
            let data = line_end + 2;
            while self.buf.len() < data + size + 2 {
                self.fill()?;
            }
            if &self.buf[data + size..data + size + 2] != b"\r\n" {
                return Err(bad("chunk not terminated"));
            }
            body.extend_from_slice(&self.buf[data..data + size]);
            pos = data + size + 2;
            if size == 0 {
                self.buf.drain(..pos);
                return Ok(body);
            }
        }
    }
}
