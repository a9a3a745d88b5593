//! Minimal std-only HTTP/1.1 plumbing for the job API.
//!
//! The service speaks exactly the subset of HTTP/1.1 its endpoints need:
//! requests with `Content-Length` bodies, fixed-length JSON responses,
//! and chunked transfer encoding for the result streams. Every
//! connection is `Connection: close` — one request per connection keeps
//! the server free of keep-alive state, and clients (curl, `report
//! submit`) reconnect per call.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on accepted request bodies (whole-grid submissions are a
/// few KiB; anything larger is malformed or hostile).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on a request head: the request line plus every header
/// line, through the blank line that ends them.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (no query parsing — the API uses none).
    pub path: String,
    /// Body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Body as UTF-8, lossy.
    #[must_use]
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads and parses one request off `stream`, which must arrive whole
/// (head and body) `within` the given time. `None` on a connection closed
/// before a full request line, malformed framing, a head over
/// [`MAX_HEAD_BYTES`], an oversized body, or a request still incomplete at
/// the deadline.
pub fn read_request(stream: &TcpStream, within: Duration) -> Option<Request> {
    let deadline = Deadline {
        stream,
        until: Instant::now() + within,
    };
    // The head is read through the cap: a line cut off by it ends
    // without a newline and fails the request.
    let mut reader = BufReader::new(deadline.take(MAX_HEAD_BYTES as u64));
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 || !line.ends_with('\n') {
        return None;
    }
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_ascii_uppercase();
    let path = parts.next()?.to_string();

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header).ok()? == 0 || !header.ends_with('\n') {
            return None;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request { method, path, body })
}

/// A socket reader with one deadline across all its reads: each read
/// waits only for the time left, so a client trickling a byte at a time
/// cannot stretch a request past it.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut s = self.stream;
        s.read(buf)
    }
}

/// Writes a fixed-length response; `status` is e.g. `"200 OK"`.
pub fn respond(
    stream: &TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut w = stream;
    write!(
        w,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Writes a JSON error body under `status`.
pub fn respond_error(stream: &TcpStream, status: &str, message: &str) -> std::io::Result<()> {
    let body = wsrs_telemetry::Json::Obj(vec![(
        "error".to_string(),
        wsrs_telemetry::Json::Str(message.to_string()),
    )])
    .to_string_compact();
    respond(stream, status, "application/json", &body)
}

/// An open chunked-transfer response: one chunk per JSON line, flushed
/// eagerly so watchers see each cell the moment it finishes.
pub struct ChunkedWriter<'a> {
    stream: &'a TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn begin(stream: &'a TcpStream, content_type: &str) -> std::io::Result<Self> {
        let mut w = stream;
        write!(
            w,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        w.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk (skipped when empty — an empty chunk would
    /// terminate the stream).
    pub fn write_chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut w = self.stream;
        write!(w, "{:x}\r\n", data.len())?;
        w.write_all(data)?;
        w.write_all(b"\r\n")?;
        w.flush()
    }

    /// Terminates the stream with the final zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        let mut w = self.stream;
        w.write_all(b"0\r\n\r\n")?;
        w.flush()
    }
}
