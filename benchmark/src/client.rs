//! A keep-alive HTTP/1.1 client and the load loops that drive it.
//!
//! Load comes from this one process over at most two connections, opened
//! once per server and reused for warm-up and every timed phase. The
//! client sets read and write deadlines and no other socket option, so
//! it meets the server's socket behaviour exactly as a plain client does.

use crate::mix::Req;
use lacnet_types::codec::fnv1a64;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long one exchange may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One kept-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What came back for one request: its status and a hash of its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `codec::fnv1a64` of the body.
    pub hash: u64,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// `GET target`, returning the status and the whole body.
    pub fn get_body(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        self.writer
            .write_all(format!("GET {target} HTTP/1.1\r\nhost: lacnet\r\n\r\n").as_bytes())?;
        read_reply(&mut self.reader)
    }

    /// `GET target`, keeping only the status and the body's hash.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let (status, body) = self.get_body(target)?;
        Ok(Reply {
            status,
            hash: fnv1a64(&body),
        })
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// Read one `Content-Length`-framed response.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a reply",
        ));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut len: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("truncated header block"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok();
            }
        }
    }
    let len = len.ok_or_else(|| invalid("reply without content-length"))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

/// One exchange as the load loop saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in the plan (or key list) it came from.
    pub index: usize,
    /// When the request was due to be sent.
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When the last byte of its reply arrived (or the exchange failed).
    pub done: Instant,
    /// The reply, or the I/O error that ended the exchange.
    pub reply: Result<Reply, String>,
}

impl Sample {
    /// Latency counted from the due time: includes any wait for a free
    /// connection and the generator's own lateness.
    pub fn since_due(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Send `plan` over `conns`, each connection taking the next request
/// from one shared queue. Request `i` is not sent before
/// `start + due[i]`; with an empty `due` every request is due at `start`
/// and the queue drains as fast as replies return. A request still
/// unsent at `give_up` is abandoned and comes back as `None`, as does
/// every request after an I/O error has closed both connections.
pub fn drive_queue(
    conns: &mut [Conn],
    plan: &[Req],
    due: &[Duration],
    start: Instant,
    give_up: Instant,
) -> Vec<Option<Sample>> {
    let next = AtomicUsize::new(0);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= plan.len() {
                            break;
                        }
                        let due_at = start + due.get(i).copied().unwrap_or_default();
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        if sent > give_up {
                            break;
                        }
                        let reply = conn.get(&plan[i].target).map_err(|e| e.to_string());
                        let broken = reply.is_err();
                        samples.push(Sample {
                            index: i,
                            due: due_at,
                            sent,
                            done: Instant::now(),
                            reply,
                        });
                        if broken {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = vec![None; plan.len()];
    for sample in per_conn.into_iter().flatten() {
        let i = sample.index;
        out[i] = Some(sample);
    }
    out
}

/// Closed loop: each connection sends its next request as soon as the
/// previous reply has arrived, drawing keys uniformly from `keys` with
/// its own stream of the benchmark seed, until `until`.
pub fn drive_closed(conns: &mut [Conn], keys: &[Req], seed: u64, until: Instant) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                scope.spawn(move || {
                    let mut rng = crate::mix::Rng::new(seed, 0x4057 + lane as u64);
                    let mut samples = Vec::new();
                    while Instant::now() < until {
                        let i = rng.below(keys.len());
                        let sent = Instant::now();
                        let reply = conn.get(&keys[i].target).map_err(|e| e.to_string());
                        let broken = reply.is_err();
                        samples.push(Sample {
                            index: i,
                            due: sent,
                            sent,
                            done: Instant::now(),
                            reply,
                        });
                        if broken {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}
