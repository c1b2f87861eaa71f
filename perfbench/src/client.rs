//! A minimal blocking HTTP/1.1 client, kept apart from the service's own
//! client so that changes to the code under test cannot change how the
//! load is offered.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// Longest any single request may take before the benchmark gives up.
const DEADLINE: Duration = Duration::from_secs(60);

/// One keep-alive connection to `addr`, reopened when the server closes it.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection to `addr` (`host:port`), opened on first use.
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn open(&self) -> std::io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEADLINE))?;
        stream.set_write_timeout(Some(DEADLINE))?;
        Ok(BufReader::new(stream))
    }

    /// `POST path` with a JSON body; returns status and body.
    ///
    /// # Errors
    ///
    /// Connect, write or read failures (after one retry on a fresh socket
    /// when a reused one turns out to be closed).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// As [`Conn::post`].
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        let first = match self.stream.take() {
            Some(s) => Ok(s),
            None => self.open(),
        }
        .and_then(|s| self.round_trip(s, method, path, body));
        match first {
            Ok(r) => Ok(r),
            // the server closed an idle keep-alive socket: retry once
            Err(_) if reused => {
                let s = self.open()?;
                self.round_trip(s, method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn round_trip(
        &mut self,
        mut s: BufReader<TcpStream>,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        );
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body.as_bytes());
        s.get_mut().write_all(&msg)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if s.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before a status line"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut keep) = (None, true);
        loop {
            line.clear();
            if s.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => length = value.parse::<usize>().ok(),
                    "connection" => keep = !value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let length = length.ok_or_else(|| bad("reply without Content-Length"))?;
        let mut buf = vec![0u8; length];
        s.read_exact(&mut buf)?;
        let text = String::from_utf8(buf).map_err(|_| bad("reply body is not UTF-8"))?;
        if keep {
            self.stream = Some(s);
        }
        Ok((status, text))
    }
}

/// One `GET` on a fresh connection that is then dropped — for control
/// probes that must not pin a server connection worker.
///
/// # Errors
///
/// As [`Conn::post`].
pub fn get_once(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    Conn::new(addr).get(path)
}

/// One `POST` on a fresh connection, dropped afterwards.
///
/// # Errors
///
/// As [`Conn::post`].
pub fn post_once(addr: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    Conn::new(addr).post(path, body)
}
