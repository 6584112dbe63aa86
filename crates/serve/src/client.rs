//! A minimal blocking client for the wire protocol — what the `lapush
//! client` CLI subcommand, the integration tests, and the `fig_serve`
//! bench drive the server with.

use crate::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a `lapush serve` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    // Unbuffered: `write_frame` sends each frame in one vectored write —
    // combined with TCP_NODELAY this keeps request latency free of
    // Nagle/delayed-ACK stalls on the ~tens-of-bytes frames the protocol
    // mostly carries.
    writer: TcpStream,
    max_frame: usize,
}

impl Client {
    /// Connect once.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Connect with retries spaced by bounded exponential backoff — for
    /// scripts that race a server still binding its listener. The wait
    /// after attempt `i` is `base · 2ⁱ`, capped at
    /// [`Client::BACKOFF_CAP`]; see [`Client::backoff_delay`] for the
    /// exact (deterministic) schedule.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        attempts: u32,
        base: Duration,
    ) -> io::Result<Client> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(Client::backoff_delay(base, attempt));
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
    }

    /// Ceiling of the retry backoff: no single wait exceeds two seconds,
    /// so a bounded `attempts` budget keeps a bounded worst-case total.
    pub const BACKOFF_CAP: Duration = Duration::from_secs(2);

    /// Wait before retry number `attempt + 1` (0-based): `base · 2ⁱ`,
    /// saturating at [`Client::BACKOFF_CAP`]. Pure and deterministic —
    /// no jitter — so scripted sessions and tests can reason about the
    /// exact schedule.
    pub fn backoff_delay(base: Duration, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(31);
        base.saturating_mul(factor).min(Client::BACKOFF_CAP)
    }

    /// Send one request body and read the matching response body.
    /// The server closing the stream instead of answering is an
    /// [`io::ErrorKind::UnexpectedEof`] error.
    pub fn request(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.writer, body)?;
        read_frame(&mut self.reader, self.max_frame)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let base = Duration::from_millis(25);
        let waits: Vec<Duration> = (0..8).map(|i| Client::backoff_delay(base, i)).collect();
        assert_eq!(waits[0], Duration::from_millis(25));
        assert_eq!(waits[1], Duration::from_millis(50));
        assert_eq!(waits[2], Duration::from_millis(100));
        assert_eq!(waits[6], Duration::from_millis(1600));
        // 25ms · 2⁷ = 3200ms caps at 2s, as does everything after.
        assert_eq!(waits[7], Client::BACKOFF_CAP);
        assert_eq!(Client::backoff_delay(base, 60), Client::BACKOFF_CAP);
        // Monotone non-decreasing schedule.
        assert!(waits.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn backoff_handles_degenerate_bases() {
        // A zero base never sleeps; a huge base is clamped immediately.
        assert_eq!(Client::backoff_delay(Duration::ZERO, 5), Duration::ZERO);
        assert_eq!(
            Client::backoff_delay(Duration::from_secs(60), 0),
            Client::BACKOFF_CAP
        );
    }
}
