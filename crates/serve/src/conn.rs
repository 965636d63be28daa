//! Non-blocking connection plumbing for the event-loop front end: a
//! compacting receive buffer that reassembles wire frames from partial
//! reads, and a send buffer that survives partial writes.
//!
//! Both sides of the wire codec meet here. A peer may deliver a frame one
//! byte at a time, or twenty frames in one TCP segment; [`RecvBuf`]
//! accumulates bytes until a complete `header + payload` is resident and
//! only then exposes it ([`RecvBuf::peek_frame`]), with the header
//! validated in place by [`crate::wire::parse_header`] — exactly the
//! checks the blocking reader applies, so a malformed stream fails
//! identically whichever front end reads it. Payload bytes are borrowed
//! straight out of the buffer (no per-frame allocation) and handed to
//! `Request::decode`.
//!
//! [`SendBuf`] is the mirror: responses are encoded straight onto its end
//! ([`SendBuf::tail`]) and flushed as far as the socket allows; a short
//! write leaves the tail buffered for the next writability event. The
//! event loop pauses reading from a connection whose send buffer grows
//! past a threshold (backpressure: a peer that won't read its responses
//! stops being served, rather than ballooning server memory — see
//! DESIGN.md §11).
//!
//! [`Conn`] ties the two to a stream. Every request is answered before
//! the next frame is parsed, so responses enter the send buffer — and
//! leave it — strictly in request order.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::wire::{parse_header, Direction, WireError, HEADER_LEN};

/// Bytes read from a connection per readiness event. Bounding the chunk —
/// and leaving the rest in the kernel buffer for level-triggered epoll to
/// re-report — is what keeps one hot connection from starving the rest.
pub const READ_CHUNK: usize = 64 * 1024;

/// Send-buffer size at which the server stops *reading* from the
/// connection (resumed at half). Responses already owed are still
/// delivered; the peer just can't mint new work until it drains its
/// receive side.
pub const WRITE_BUF_PAUSE: usize = 256 * 1024;

/// A growable receive buffer with start-offset consumption: bytes are
/// appended by [`RecvBuf::fill`] at `end` and logically removed by
/// advancing `start`; the unconsumed `start..end` is moved to the front on
/// the next fill.
///
/// `buf.len()` is the initialized length, never shortened: a fill reads
/// straight into the bytes past `end`, so only capacity the buffer grows
/// into is ever zeroed — once, not on every read.
#[derive(Debug)]
pub struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Which way the frames travel: it decides the codes a header may
    /// carry and their payload caps.
    dir: Direction,
}

impl RecvBuf {
    /// An empty buffer for frames travelling in direction `dir`.
    pub fn new(dir: Direction) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            end: 0,
            dir,
        }
    }

    /// Bytes buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Reads up to `max` bytes from `stream`. Returns `Ok(0)` on EOF;
    /// `WouldBlock` surfaces as an error for the caller to treat as "no
    /// more data right now".
    ///
    /// # Errors
    ///
    /// Propagates the read error.
    pub fn fill(&mut self, stream: &mut impl Read, max: usize) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let tail = self.end + max;
        if self.buf.len() < tail {
            self.buf.resize(tail, 0);
        }
        let n = stream.read(&mut self.buf[self.end..tail])?;
        self.end += n;
        Ok(n)
    }

    /// Checks whether a complete frame is buffered. `Ok(Some((code,
    /// payload_len)))` means header *and* payload are fully resident;
    /// `Ok(None)` means more bytes are needed. Header validation (magic,
    /// version, a code of this direction, its payload cap) happens here,
    /// before any payload arrives, so a hostile header is rejected without
    /// buffering its claimed payload.
    ///
    /// # Errors
    ///
    /// The same [`WireError`]s the blocking frame reader produces.
    pub fn peek_frame(&self) -> Result<Option<(u8, usize)>, WireError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = avail[..HEADER_LEN].try_into().expect("length checked");
        let (code, len) = parse_header(&header, self.dir)?;
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        Ok(Some((code, len)))
    }

    /// The payload of the frame [`RecvBuf::peek_frame`] just reported
    /// (borrowed in place — no copy).
    pub fn payload(&self, payload_len: usize) -> &[u8] {
        &self.buf[self.start + HEADER_LEN..self.start + HEADER_LEN + payload_len]
    }

    /// Consumes the frame [`RecvBuf::peek_frame`] just reported.
    pub fn consume_frame(&mut self, payload_len: usize) {
        self.start += HEADER_LEN + payload_len;
        debug_assert!(self.start <= self.end);
    }
}

/// A send buffer that survives partial writes: encoded frames are appended
/// and [`SendBuf::flush`] writes as much as the socket accepts.
#[derive(Debug, Default)]
pub struct SendBuf {
    buf: Vec<u8>,
    start: usize,
}

impl SendBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes still owed to the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether everything has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// The buffer to append encoded frames to (emptied first if
    /// everything in it was flushed).
    pub fn tail(&mut self) -> &mut Vec<u8> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        &mut self.buf
    }

    /// Appends an encoded frame.
    pub fn push(&mut self, frame: &[u8]) {
        self.tail().extend_from_slice(frame);
    }

    /// Writes as much as the socket accepts. `Ok(true)` when fully
    /// drained; `Ok(false)` when the socket would block with bytes left.
    ///
    /// # Errors
    ///
    /// Propagates write errors (including a zero-length write, which means
    /// the peer is gone).
    pub fn flush(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        loop {
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
                return Ok(true);
            }
            match stream.write(&self.buf[self.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Per-connection state for the event loop: the stream, both buffers, and
/// the lifecycle/interest flags the loop mirrors into epoll.
#[derive(Debug)]
pub struct Conn {
    /// The non-blocking stream.
    pub stream: TcpStream,
    /// Reassembles request frames from partial reads.
    pub rd: RecvBuf,
    /// Encoded responses, in request order, across partial writes.
    pub wr: SendBuf,
    /// Peer half-closed its write side: no more requests will arrive, but
    /// responses already owed are still flushed before the close.
    pub eof: bool,
    /// A framing error poisoned the stream (resynchronization is
    /// impossible): stop parsing, flush what is owed, then close.
    pub poisoned: bool,
    /// Parsing enabled (false while paused for backpressure).
    pub reading: bool,
    /// Whether EPOLLIN was armed at the last interest update.
    pub reg_read: bool,
    /// Whether EPOLLOUT was armed at the last interest update.
    pub want_write: bool,
}

impl Conn {
    /// Wraps an accepted stream (already set non-blocking by the caller).
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rd: RecvBuf::new(Direction::Request),
            wr: SendBuf::new(),
            eof: false,
            poisoned: false,
            reading: true,
            reg_read: true,
            want_write: false,
        }
    }

    /// Whether the loop should stop parsing new requests from this
    /// connection until responses drain (backpressure).
    pub fn should_pause(&self) -> bool {
        self.wr.pending() >= WRITE_BUF_PAUSE
    }

    /// Whether parsing may resume (hysteresis: half the pause threshold,
    /// so the interest doesn't flap on every frame).
    pub fn may_resume(&self) -> bool {
        self.wr.pending() < WRITE_BUF_PAUSE / 2
    }

    /// Whether the connection has delivered everything it owes and will
    /// never owe more — the loop closes it.
    pub fn finished(&self) -> bool {
        (self.eof || self.poisoned) && self.wr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, Opcode, PredictItem, Request, TrainItem};
    use mascot::prediction::LoadOutcome;
    use std::net::TcpListener;

    /// A loopback pair with the receiving end non-blocking.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn reassembles_frames_from_single_byte_writes() {
        let (mut client, mut server) = pair();
        let frame = Request::Stats.encode_frame().unwrap();
        let mut rd = RecvBuf::new(Direction::Request);
        for (i, byte) in frame.iter().enumerate() {
            client.write_all(std::slice::from_ref(byte)).unwrap();
            client.flush().unwrap();
            // Poll until the byte lands (loopback is fast but asynchronous).
            loop {
                match rd.fill(&mut server, READ_CHUNK) {
                    Ok(n) if n > 0 => break,
                    Ok(_) => panic!("unexpected EOF"),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("read failed: {e}"),
                }
            }
            let peeked = rd.peek_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(peeked.is_none(), "frame complete after {} bytes?", i + 1);
            } else {
                let (code, len) = peeked.expect("complete frame");
                assert_eq!(code, Opcode::Stats as u8);
                assert_eq!(len, 0);
                rd.consume_frame(len);
                assert_eq!(rd.buffered(), 0);
            }
        }
    }

    #[test]
    fn splits_back_to_back_frames() {
        let (mut client, mut server) = pair();
        let a = Request::Stats.encode_frame().unwrap();
        let b = Request::Shutdown.encode_frame().unwrap();
        client.write_all(&a).unwrap();
        client.write_all(&b).unwrap();
        client.flush().unwrap();
        let mut rd = RecvBuf::new(Direction::Request);
        let mut seen = Vec::new();
        while seen.len() < 2 {
            match rd.fill(&mut server, READ_CHUNK) {
                Ok(0) => panic!("unexpected EOF"),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("read failed: {e}"),
            }
            while let Some((code, len)) = rd.peek_frame().unwrap() {
                seen.push(code);
                rd.consume_frame(len);
            }
        }
        assert_eq!(seen, vec![Opcode::Stats as u8, Opcode::Shutdown as u8]);
    }

    #[test]
    fn bad_header_is_rejected_before_payload_arrives() {
        let mut rd = RecvBuf::new(Direction::Request);
        // A corrupt header on its own: the claimed payload is never needed.
        let mut header = b"XSRV".to_vec();
        header.extend_from_slice(&[2, 1]);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        rd.fill(&mut header.as_slice(), READ_CHUNK).unwrap();
        assert!(matches!(rd.peek_frame(), Err(WireError::BadMagic)));
        let mut rd = RecvBuf::new(Direction::Request);
        let mut frame = encode_frame(Opcode::Predict as u8, &[]);
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        rd.fill(&mut &frame[..HEADER_LEN], READ_CHUNK).unwrap();
        assert!(matches!(rd.peek_frame(), Err(WireError::TooLarge(_))));
    }

    /// A request header with code 0 (`Ok`, a response status whose replies
    /// carry snapshots) claiming 60 MiB fails at once: it never earns the
    /// snapshot cap, so not a byte of its payload is buffered. A response
    /// buffer, by contrast, waits for that payload.
    #[test]
    fn response_code_in_a_request_fails_before_its_payload() {
        let mut header = encode_frame(Opcode::Stats as u8, &[]);
        header[5] = 0;
        header[6..10].copy_from_slice(&(60u32 << 20).to_le_bytes());
        let mut rd = RecvBuf::new(Direction::Request);
        rd.fill(&mut header.as_slice(), READ_CHUNK).unwrap();
        assert!(matches!(rd.peek_frame(), Err(WireError::BadOpcode(0))));
        let mut rd = RecvBuf::new(Direction::Response);
        rd.fill(&mut header.as_slice(), READ_CHUNK).unwrap();
        assert!(matches!(rd.peek_frame(), Ok(None)));
    }

    /// Takes the complete frame at the front of `rd` and decodes it.
    fn take_frame(rd: &mut RecvBuf) -> Option<Request> {
        let (code, len) = rd.peek_frame().unwrap()?;
        let req = Request::decode(code, rd.payload(len)).unwrap();
        rd.consume_frame(len);
        Some(req)
    }

    /// One read delivers a whole frame and half of the next; the second
    /// half arrives after the first frame is consumed. The fill that
    /// receives it moves the half frame to the front of the buffer, and the
    /// frame must come out byte-identical.
    #[test]
    fn a_frame_split_across_reads_survives_compaction() {
        let predict = Request::Predict(
            (0..40)
                .map(|i| PredictItem {
                    pc: 0x1000 + 4 * i,
                    store_seq: i,
                })
                .collect(),
        );
        let train = Request::Train(
            (0..30)
                .map(|i| TrainItem {
                    ticket: i as u32,
                    pc: 0x2000 + 8 * i,
                    outcome: LoadOutcome::independent(),
                })
                .collect(),
        );
        let (a, b) = (
            predict.encode_frame().unwrap(),
            train.encode_frame().unwrap(),
        );
        let half = b.len() / 2;
        let mut rd = RecvBuf::new(Direction::Request);
        let first = [&a[..], &b[..half]].concat();
        assert_eq!(
            rd.fill(&mut first.as_slice(), READ_CHUNK).unwrap(),
            first.len()
        );
        assert_eq!(take_frame(&mut rd), Some(predict));
        assert_eq!(take_frame(&mut rd), None, "half a frame is not a frame");
        assert_eq!(
            rd.fill(&mut &b[half..], READ_CHUNK).unwrap(),
            b.len() - half
        );
        assert_eq!(
            (rd.start, &rd.buf[..rd.end]),
            (0, &b[..]),
            "the fill moves the unconsumed bytes, and only them, to the front"
        );
        assert_eq!(take_frame(&mut rd), Some(train));
        assert_eq!(rd.buffered(), 0);
        // The buffer never grew past one read beyond the half frame it held.
        assert!(rd.buf.len() <= half + READ_CHUNK);
    }

    /// A frame several read chunks long reassembles over as many fills,
    /// each reading exactly one chunk (or the remainder).
    #[test]
    fn a_frame_larger_than_a_read_chunk_reassembles() {
        let blob: Vec<u8> = (0..200 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
        let restore = Request::Restore(blob);
        let frame = restore.encode_frame().unwrap();
        let mut src = frame.as_slice();
        let mut rd = RecvBuf::new(Direction::Request);
        let mut fills = 0;
        let req = loop {
            let want = READ_CHUNK.min(src.len());
            assert_eq!(rd.fill(&mut src, READ_CHUNK).unwrap(), want, "fill {fills}");
            fills += 1;
            if let Some(req) = take_frame(&mut rd) {
                break req;
            }
            assert!(!src.is_empty(), "every byte read, yet no frame");
        };
        assert_eq!(fills, frame.len().div_ceil(READ_CHUNK));
        assert!(req == restore, "the reassembled frame differs");
        assert_eq!(rd.buffered(), 0);
    }

    #[test]
    fn send_buf_survives_partial_writes() {
        let (client, mut server) = pair();
        // Keep the client from reading so the server's socket buffer fills.
        let mut wr = SendBuf::new();
        let chunk = vec![0xA5u8; 64 * 1024];
        let mut queued = 0usize;
        // Queue until flush reports a partial write (socket buffer full).
        loop {
            wr.push(&chunk);
            queued += chunk.len();
            if !wr.flush(&mut server).unwrap() {
                break;
            }
            assert!(queued < 64 << 20, "socket buffer never filled");
        }
        let stalled = wr.pending();
        assert!(stalled > 0);
        // Drain the client side; the tail must flush.
        let mut sink = client;
        sink.set_nonblocking(false).unwrap();
        sink.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut buf = vec![0u8; 256 * 1024];
        let mut drained = 0usize;
        while drained < queued {
            match sink.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => drained += n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if wr.flush(&mut server).unwrap() {
                        assert_eq!(wr.pending(), 0);
                    }
                }
                Err(e) => panic!("drain failed: {e}"),
            }
        }
        while !wr.flush(&mut server).unwrap() {
            let _ = sink.read(&mut buf);
        }
        assert!(wr.is_empty());
        let _ = stalled;
    }

    #[test]
    fn conn_backpressure_thresholds() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server);
        assert!(!conn.should_pause());
        conn.wr.push(&vec![0u8; WRITE_BUF_PAUSE]);
        assert!(conn.should_pause());
        assert!(!conn.may_resume(), "hysteresis: resume only below half");
        conn.eof = true;
        assert!(!conn.finished(), "owed bytes keep the connection open");
        // Drain through the socket while the peer reads what was flushed.
        let mut sink = vec![0u8; WRITE_BUF_PAUSE];
        while !conn.wr.flush(&mut conn.stream).unwrap() {
            assert!(client.read(&mut sink).unwrap() > 0, "flushed bytes arrive");
        }
        assert!(conn.may_resume());
        assert!(conn.finished());
    }
}
