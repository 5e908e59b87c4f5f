//! A minimal HTTP/1.1 client that keeps its connection open unless the
//! server answers `Connection: close`, and counts the connections it
//! opens so connections-per-request is measured, not assumed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// A client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
    /// Requests sent so far.
    pub requests: u64,
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    /// A client with no open connection yet.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
            requests: 0,
        }
    }

    /// Sends one request and reads its response. A request on a reused
    /// connection that fails before any response byte arrives is retried
    /// once on a fresh connection (the server may have closed it idle).
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.requests += 1;
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => self.exchange(method, path, body),
            other => other,
        }
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, body)
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: fdcbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = Vec::with_capacity(head.len() + body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(body.as_bytes());
        let result = read_response(conn, &wire);
        match result {
            Ok((response, keep)) => {
                if !keep {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn read_response(
    conn: &mut BufReader<TcpStream>,
    wire: &[u8],
) -> std::io::Result<(Response, bool)> {
    conn.get_mut().write_all(wire)?;
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length: Option<usize> = None;
    let mut keep = true;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                keep = false;
            }
        }
    }
    let mut raw = Vec::new();
    match length {
        Some(n) => {
            raw.resize(n, 0);
            conn.read_exact(&mut raw)?;
        }
        None => {
            // No length: the body runs to the end of the connection.
            conn.read_to_end(&mut raw)?;
            keep = false;
        }
    }
    let body = String::from_utf8(raw).map_err(|_| bad("body is not UTF-8"))?;
    Ok((Response { status, body }, keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread server answering `per_conn` requests on each of
    /// `conns` connections, the last of each with `Connection: close`.
    fn serve(per_conn: usize, conns: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                for i in 0..per_conn {
                    let mut len = 0usize;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        if line.trim_end().is_empty() {
                            break;
                        }
                        if let Some(v) = line.strip_prefix("Content-Length: ") {
                            len = v.trim().parse().unwrap();
                        }
                    }
                    let mut body = vec![0u8; len];
                    reader.read_exact(&mut body).unwrap();
                    let close = if i + 1 == per_conn {
                        "Connection: close\r\n"
                    } else {
                        ""
                    };
                    let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n{close}\r\nok");
                    reader.get_mut().write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn keeps_the_connection_until_the_server_closes_it() {
        let addr = serve(3, 2);
        let mut c = Client::new(addr);
        for _ in 0..6 {
            let r = c.post("/x", "{}").unwrap();
            assert_eq!((r.status, r.body.as_str()), (200, "ok"));
        }
        assert_eq!((c.requests, c.connects), (6, 2));
    }
}
