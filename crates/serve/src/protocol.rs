//! Wire protocol v1: framing, request grammar, response rendering.
//!
//! Both directions speak **length-prefixed UTF-8 frames**:
//!
//! ```text
//! <decimal byte length of body>\n<body>
//! ```
//!
//! The header is the body's byte length in ASCII decimal followed by one
//! `\n`; the body is exactly that many bytes of UTF-8 text (which may
//! itself contain newlines — multi-line commands like `INGEST` and
//! multi-line responses like `QUERY` answers need no escaping). One
//! request frame yields exactly one response frame, in order.
//!
//! A request body's first line starts with a command word (`QUERY`,
//! `TOPK`, `INGEST`, `STATS`, `PING`, `QUIT`). A response body's first line is
//! either `OK …` or `ERR <CODE> <message>`; any further lines are
//! command-specific payload. The human-readable spec with annotated
//! example sessions lives in `docs/PROTOCOL.md`; this module is its
//! executable counterpart and must stay in sync.

use lapush_engine::AnswerSet;
use lapush_storage::Value;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, IoSlice, Read, Write};

/// Version of the wire protocol implemented by this crate; reported by
/// `STATS` as `proto.version`. Bump on any incompatible framing or
/// grammar change (see `docs/PROTOCOL.md` for the compatibility policy).
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on one frame's body size (16 MiB). Guards the server
/// against a bad length header committing it to an unbounded allocation.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Write one frame: decimal length header, `\n`, body, then flush (a
/// frame is only useful to the peer once it is fully on the wire).
///
/// Header and body go out in one vectored write, so a frame written
/// straight to a socket is one `writev(2)` — with `TCP_NODELAY`, a large
/// body no longer trails a segment carrying its header alone. A short
/// write resumes where it stopped.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    let header = format!("{}\n", body.len());
    let (header, body) = (header.as_bytes(), body.as_bytes());
    let mut sent = 0;
    while sent < header.len() + body.len() {
        let parts = match sent.checked_sub(header.len()) {
            None => [IoSlice::new(&header[sent..]), IoSlice::new(body)],
            Some(at) => [IoSlice::new(&body[at..]), IoSlice::new(&[])],
        };
        match w.write_vectored(&parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Longest well-formed header: the 20 decimal digits of `u64::MAX` and
/// the `\n`. [`read_frame`] reads no further looking for the newline, so
/// a peer cannot grow the header buffer by never sending one.
const MAX_HEADER: u64 = 21;

/// Read one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); a malformed header (anything but ASCII digits, or no
/// `\n` within 21 bytes) or an over-`max` length is an
/// [`io::ErrorKind::InvalidData`] error, EOF inside the body an
/// [`io::ErrorKind::UnexpectedEof`] one. At most `21 + max` bytes are ever
/// buffered for one frame.
pub fn read_frame(r: &mut impl BufRead, max: usize) -> io::Result<Option<String>> {
    let mut header = String::new();
    if r.by_ref().take(MAX_HEADER).read_line(&mut header)? == 0 {
        return Ok(None);
    }
    // `usize::from_str` accepts a sign; the grammar is digits only.
    let len: usize = header
        .strip_suffix('\n')
        .filter(|digits| !digits.starts_with('+'))
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| invalid(format!("bad frame header {:?}", header.trim_end())))?;
    if len > max {
        return Err(invalid(format!("frame of {len} bytes exceeds cap {max}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| invalid("frame body is not UTF-8".into()))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Machine-readable error class of an `ERR` response (the token between
/// `ERR` and the message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unknown command word, or arguments that don't fit its grammar.
    BadCommand,
    /// `QUERY`: the query text did not parse as a sjfCQ.
    Parse,
    /// `QUERY`: evaluation failed (unknown relation, arity mismatch, …).
    Exec,
    /// `INGEST`: the rows were rejected (bad probability, ragged arity,
    /// arity mismatch with an existing relation, …).
    Ingest,
}

impl ErrorCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadCommand => "BADCMD",
            ErrorCode::Parse => "PARSE",
            ErrorCode::Exec => "EXEC",
            ErrorCode::Ingest => "INGEST",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `PING` — liveness check.
    Ping,
    /// `QUERY <datalog>` — evaluate a query's propagation score.
    Query {
        /// The datalog text after the command word.
        text: String,
    },
    /// `TOPK <k> <datalog>` — rank only the `k` best answers through the
    /// engine's anytime top-k driver: bit-identical to the first `k` of the
    /// `OptLevel::MultiPlan` ranking (multi-plan ρ). `QUERY` ranks with the
    /// single Opt12 plan, which can score below ρ, so this is not always a
    /// prefix of the `QUERY` response (ROADMAP.md, item 15).
    Topk {
        /// How many answers to rank (≥ 1).
        k: usize,
        /// The datalog text after the count.
        text: String,
    },
    /// `INGEST <relation>` + one CSV row per following line.
    Ingest {
        /// Target relation name.
        relation: String,
        /// The raw row lines (CSV, last column = probability).
        rows: String,
    },
    /// `STATS` — cache and database counters.
    Stats,
    /// `QUIT` — polite connection close.
    Quit,
}

/// Parse a request body. Errors are `(code, message)` pairs ready for
/// [`err_response`].
pub fn parse_request(body: &str) -> Result<Request, (ErrorCode, String)> {
    let (first, rest) = match body.split_once('\n') {
        Some((f, r)) => (f, r),
        None => (body, ""),
    };
    let first = first.trim_end_matches('\r');
    let (word, args) = match first.split_once(char::is_whitespace) {
        Some((w, a)) => (w, a.trim()),
        None => (first.trim(), ""),
    };
    let bare = |req: Request| {
        if args.is_empty() && rest.trim().is_empty() {
            Ok(req)
        } else {
            Err((ErrorCode::BadCommand, format!("{word} takes no arguments")))
        }
    };
    match word {
        "PING" => bare(Request::Ping),
        "STATS" => bare(Request::Stats),
        "QUIT" => bare(Request::Quit),
        "QUERY" => {
            if args.is_empty() || !rest.trim().is_empty() {
                return Err((
                    ErrorCode::BadCommand,
                    "usage: QUERY <datalog query> (one line)".into(),
                ));
            }
            Ok(Request::Query { text: args.into() })
        }
        "TOPK" => {
            let usage = || {
                (
                    ErrorCode::BadCommand,
                    "usage: TOPK <k> <datalog query> (one line, k >= 1)".into(),
                )
            };
            if !rest.trim().is_empty() {
                return Err(usage());
            }
            let (count, text) = args.split_once(char::is_whitespace).ok_or_else(usage)?;
            // `usize::from_str` accepts a sign; `<k>` is digits only.
            let k: usize = Some(count)
                .filter(|count| !count.starts_with('+'))
                .and_then(|count| count.parse().ok())
                .filter(|&k| k >= 1)
                .ok_or_else(usage)?;
            let text = text.trim();
            if text.is_empty() {
                return Err(usage());
            }
            Ok(Request::Topk {
                k,
                text: text.into(),
            })
        }
        "INGEST" => {
            if args.is_empty() || args.split_whitespace().count() != 1 {
                return Err((
                    ErrorCode::BadCommand,
                    "usage: INGEST <relation>, rows on following lines".into(),
                ));
            }
            Ok(Request::Ingest {
                relation: args.into(),
                rows: rest.into(),
            })
        }
        other => Err((
            ErrorCode::BadCommand,
            format!(
                "unknown command `{other}` (expected QUERY, TOPK, INGEST, STATS, PING, or QUIT)"
            ),
        )),
    }
}

/// Render an `ERR` response body: `ERR <CODE> <message>`, message
/// flattened to one line so the status line stays machine-parsable.
pub fn err_response(code: ErrorCode, msg: &str) -> String {
    let flat: String = msg
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {code} {}", flat.trim())
}

/// Render one answer key, on the wire and in the `lapush` CLI alike:
/// values joined by `", "`, the Boolean query's empty tuple as `(true)`.
pub fn render_key(key: &[Value]) -> String {
    let mut out = String::new();
    write_key(&mut out, key);
    out
}

/// [`render_key`], appended to `out`.
fn write_key(out: &mut String, key: &[Value]) {
    if key.is_empty() {
        out.push_str("(true)");
    }
    for (i, v) in key.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

/// Render a `QUERY` response body: `OK <n> answers`, then one
/// `<key>\t<score>` line per answer in ranked (descending-score) order.
///
/// Scores use Rust's shortest round-trip float formatting, so the wire
/// text preserves the answer's exact `f64` bits — "bit-identical to
/// direct evaluation" is checkable from the outside.
///
/// The rows are [`AnswerSet::ranked_refs`]', written straight into one
/// buffer: no key is cloned and no row or score gets a `String` of its
/// own.
pub fn render_answers(ans: &AnswerSet) -> String {
    let rows = ans.ranked_refs();
    // ≈ 29 bytes a row on the TPC-H workload's 43 475-answer query; a
    // short guess costs one reallocation, never a second pass.
    let mut out = String::with_capacity(32 * (rows.len() + 1));
    write!(out, "OK {} answers", rows.len()).expect("writing to a String cannot fail");
    for (key, score) in rows {
        out.push('\n');
        write_key(&mut out, key);
        write!(out, "\t{score}").expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Counts `write_vectored` calls, taking at most `cap` bytes per call.
    struct Wire {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let take = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        let body = "x".repeat(1 << 20);
        let want = format!("{}\n{body}", body.len()).into_bytes();
        let mut whole = Wire {
            bytes: Vec::new(),
            calls: 0,
            cap: usize::MAX,
        };
        write_frame(&mut whole, &body).unwrap();
        assert_eq!(whole.calls, 1, "header and body in one call");
        assert_eq!(whole.bytes, want);
        // A peer taking 7 bytes a call gets the same bytes, resumed
        // mid-header and mid-body.
        let mut short = Wire {
            bytes: Vec::new(),
            calls: 0,
            cap: 7,
        };
        write_frame(&mut short, &body).unwrap();
        assert_eq!(short.bytes, want);
        assert_eq!(short.calls, want.len().div_ceil(7));
        // An empty body is its header alone.
        let mut empty = Vec::new();
        write_frame(&mut empty, "").unwrap();
        assert_eq!(empty, b"0\n");
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "PING").unwrap();
        write_frame(&mut wire, "INGEST R\n1,0.5\n2,0.25").unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), "PING");
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().unwrap(),
            "INGEST R\n1,0.5\n2,0.25"
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_and_malformed_frames_rejected() {
        let mut r = BufReader::new(&b"999\nabc"[..]);
        // Honest header, truncated body: invalid, not silent EOF.
        assert!(read_frame(&mut r, 10).is_err());
        let mut r = BufReader::new(&b"nope\nabc"[..]);
        assert!(read_frame(&mut r, 1024).is_err());
        let mut wire = Vec::new();
        write_frame(&mut wire, "QUERY too big").unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert!(read_frame(&mut r, 4).is_err());
    }

    #[test]
    fn header_is_bounded_and_digits_only() {
        // A peer that never sends the newline: refused after MAX_HEADER
        // bytes, whatever `max` is, with the rest of the stream unread.
        let flood = vec![b'1'; 4096];
        let mut r = BufReader::new(&flood[..]);
        let e = read_frame(&mut r, usize::MAX).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad frame header"), "{e}");
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert!(flood.len() - rest.len() <= 32, "consumed too much");

        let mut r = BufReader::new(&b"+5\nhello"[..]);
        let e = read_frame(&mut r, 1024).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("bad frame header"), "{e}");

        // The longest header there is still parses and meets the cap.
        let mut r = BufReader::new(&b"10000000000000000000\nx"[..]);
        let e = read_frame(&mut r, 1024).unwrap_err();
        assert!(e.to_string().contains("exceeds cap"), "{e}");
    }

    #[test]
    fn request_grammar() {
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("STATS\n"), Ok(Request::Stats));
        assert_eq!(parse_request("QUIT"), Ok(Request::Quit));
        assert_eq!(
            parse_request("QUERY q(x) :- R(x), S(x, y)"),
            Ok(Request::Query {
                text: "q(x) :- R(x), S(x, y)".into()
            })
        );
        assert_eq!(
            parse_request("INGEST R\n1,0.5\n2,0.5"),
            Ok(Request::Ingest {
                relation: "R".into(),
                rows: "1,0.5\n2,0.5".into()
            })
        );
        assert_eq!(
            parse_request("TOPK 5 q(x) :- R(x), S(x, y)"),
            Ok(Request::Topk {
                k: 5,
                text: "q(x) :- R(x), S(x, y)".into()
            })
        );
        for bad in [
            "",
            "NOSUCH",
            "PING extra",
            "QUERY",
            "INGEST",
            "INGEST a b",
            "TOPK",
            "TOPK 5",
            "TOPK 0 q :- R(x)",
            "TOPK five q :- R(x)",
            "TOPK +5 q :- R(x)",
            "TOPK 5 q :- R(x)\nextra line",
        ] {
            assert_eq!(
                parse_request(bad).unwrap_err().0,
                ErrorCode::BadCommand,
                "{bad:?}"
            );
        }
    }

    #[test]
    fn err_responses_are_one_status_line() {
        let resp = err_response(ErrorCode::Parse, "line 1\nline 2");
        assert_eq!(resp, "ERR PARSE line 1 line 2");
        assert_eq!(resp.lines().count(), 1);
    }

    /// The renderer before it wrote into one buffer: `ranked()`, then a
    /// `String` per key, per value and per score.
    fn render_answers_by_ranked(ans: &AnswerSet) -> String {
        let mut out = format!("OK {} answers", ans.len());
        for (key, score) in ans.ranked() {
            out.push('\n');
            if key.is_empty() {
                out.push_str("(true)");
            } else {
                let vals: Vec<String> = key.iter().map(ToString::to_string).collect();
                out.push_str(&vals.join(", "));
            }
            out.push('\t');
            out.push_str(&score.to_string());
        }
        out
    }

    #[test]
    fn one_buffer_render_writes_the_ranked_bytes() {
        let set = |rows: Vec<(Vec<Value>, f64)>| AnswerSet {
            vars: vec![],
            rows: rows
                .into_iter()
                .map(|(k, s)| (k.into_boxed_slice(), s))
                .collect(),
        };
        let cases = [
            set(vec![]),
            // Boolean query: the empty tuple.
            set(vec![(vec![], 0.1 + 0.2)]),
            // Int keys, tied scores broken by key, awkward float bits.
            set(vec![
                (vec![Value::Int(3)], 0.5),
                (vec![Value::Int(-1)], 0.5),
                (vec![Value::Int(2)], 1.0),
                (vec![Value::Int(10)], 1e-7),
                (vec![Value::Int(7)], 0.0),
                (vec![Value::Int(4)], 0.30000000000000004),
            ]),
            // String keys, float-looking ones included, and mixed arity-2
            // keys with tied scores.
            set(vec![
                (vec![Value::str("b")], 0.25),
                (vec![Value::str("a")], 0.25),
                (vec![Value::str("1.5")], 0.75),
                (vec![Value::str("0.25")], 2.0 / 3.0),
            ]),
            set(vec![
                (vec![Value::Int(1), Value::str("x")], 0.125),
                (vec![Value::Int(1), Value::Int(2)], 0.125),
                (vec![Value::str("y"), Value::Int(0)], 0.999),
            ]),
        ];
        for ans in &cases {
            assert_eq!(render_answers(ans), render_answers_by_ranked(ans));
        }
        assert_eq!(
            render_answers(&cases[1]),
            "OK 1 answers\n(true)\t0.30000000000000004"
        );
        assert_eq!(render_key(&[Value::Int(1), Value::str("x")]), "1, x");
    }
}
