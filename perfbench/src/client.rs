//! The load client: one TCP connection per client thread, either wire.
//!
//! Every socket sets `TCP_NODELAY` and every request leaves in one
//! `write`: a request written in pieces without it meets Nagle's
//! algorithm and the peer's delayed ACK, tens of milliseconds a request.

use crate::check::{check, Truth, Wire};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct Conn {
    wire: Wire,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr, wire: Wire) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            wire,
            stream,
            reader,
            line: String::new(),
        })
    }

    pub fn wire(&self) -> Wire {
        self.wire
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Reads one answer: the `/match` or delta JSON body on HTTP (with
    /// its status), the response line on the line protocol (status 200
    /// unless it is an `ERR` line).
    pub fn recv(&mut self) -> io::Result<(u16, String)> {
        match self.wire {
            Wire::Line => {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let body = self.line.trim_end_matches(['\r', '\n']).to_string();
                let status = if body.starts_with("ERR") { 503 } else { 200 };
                Ok((status, body))
            }
            Wire::Http => {
                self.line.clear();
                if self.reader.read_line(&mut self.line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                let status: u16 = self
                    .line
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("bad status line {:?}", self.line)))?;
                let mut length = 0usize;
                loop {
                    self.line.clear();
                    if self.reader.read_line(&mut self.line)? == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    let header = self.line.trim_end();
                    if header.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = header.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value
                                .trim()
                                .parse()
                                .map_err(|_| bad(format!("bad length {value:?}")))?;
                        }
                    }
                }
                let mut body = vec![0u8; length];
                self.reader.read_exact(&mut body)?;
                let body = String::from_utf8(body).map_err(|e| bad(e.to_string()))?;
                Ok((status, body))
            }
        }
    }

    /// One request, one answer: the closed-loop exchange.
    pub fn exchange(&mut self, bytes: &[u8]) -> io::Result<(u16, String)> {
        self.send(bytes)?;
        self.recv()
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Percent-encodes a query for the `q` parameter (unreserved bytes
/// pass, space becomes `+`).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The bytes of one match request.
pub fn match_request(wire: Wire, query: &str) -> Vec<u8> {
    match wire {
        Wire::Http => {
            format!("GET /match?q={} HTTP/1.1\r\n\r\n", percent_encode(query)).into_bytes()
        }
        Wire::Line => format!("{query}\n").into_bytes(),
    }
}

/// The bytes of one dictionary delta (the delta TSV body).
pub fn delta_request(wire: Wire, tsv: &str) -> Vec<u8> {
    match wire {
        Wire::Http => format!(
            "POST /admin/dict/delta HTTP/1.1\r\nContent-Length: {}\r\n\r\n{tsv}",
            tsv.len()
        )
        .into_bytes(),
        Wire::Line => {
            let mut line = String::from("#dict");
            for row in tsv.lines() {
                line.push('\t');
                line.push_str(row);
            }
            line.push('\n');
            line.into_bytes()
        }
    }
}

/// Whether a delta answer acknowledges the delta.
pub fn delta_acked(wire: Wire, status: u16, body: &str) -> bool {
    match wire {
        Wire::Http => {
            status == 200 && (body.contains("\"ok\":true") || body.starts_with("{\"applied\":"))
        }
        Wire::Line => body.starts_with("DICT\tapplied="),
    }
}

/// Requests one client sends, with their truth.
pub struct Requests<'a> {
    pub bytes: &'a [Vec<u8>],
    pub truth: &'a [Truth],
    /// `truth[i].render(wire)`, precomputed.
    pub expected: &'a [Option<String>],
}

/// What one client saw in a phase.
#[derive(Default)]
pub struct Outcome {
    /// Per-request latency, µs, in completion order.
    pub latency_us: Vec<f64>,
    /// Completion time of each request since the phase started, s.
    pub done_at: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations that answered correctly but missed the stall
    /// probe's deadline (counted in `failed` too).
    pub late: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Adds `other`'s timings and counts.
    pub fn merge(&mut self, other: Outcome) {
        self.latency_us.extend(&other.latency_us);
        self.done_at.extend(&other.done_at);
        self.count(&other);
    }

    /// Adds `other`'s counts and errors only.
    pub fn count(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.late += other.late;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// Replays `log` (indices into `reqs`) keeping up to `depth` requests
/// in flight; `depth` 1 is the paced, closed-loop client. Every answer
/// is checked against its truth, and counted in `progress` if given.
pub fn replay(
    conn: &mut Conn,
    reqs: &Requests,
    log: &[u32],
    depth: usize,
    t0: Instant,
    progress: Option<&AtomicUsize>,
) -> io::Result<Outcome> {
    let mut out = Outcome {
        latency_us: Vec::with_capacity(log.len()),
        done_at: Vec::with_capacity(log.len()),
        ..Outcome::default()
    };
    let mut in_flight: VecDeque<(u32, Instant)> = VecDeque::with_capacity(depth);
    let wire = conn.wire();
    let mut next = 0;
    while next < log.len() || !in_flight.is_empty() {
        if next < log.len() && in_flight.len() < depth.max(1) {
            let i = log[next];
            next += 1;
            let sent = Instant::now();
            conn.send(&reqs.bytes[i as usize])?;
            in_flight.push_back((i, sent));
            continue;
        }
        let (i, sent) = in_flight.pop_front().expect("in flight");
        let (status, body) = conn.recv()?;
        let now = Instant::now();
        out.latency_us.push((now - sent).as_secs_f64() * 1e6);
        out.done_at.push((now - t0).as_secs_f64());
        out.attempted += 1;
        if let Some(p) = progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        let i = i as usize;
        let verdict = if status != 200 {
            Err(format!("status {status}: {body}"))
        } else {
            check(&reqs.truth[i], reqs.expected[i].as_deref(), &body, wire)
        };
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
    Ok(out)
}
