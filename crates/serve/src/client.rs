//! A minimal synchronous client for the `mascot-serve` wire protocol.
//!
//! One [`Client`] owns one TCP connection. [`Client::request`] issues one
//! request and waits for its answer; [`Client::send`] and [`Client::recv`]
//! split the two halves so requests can be pipelined (`mascot-router`
//! scatters a batch over its nodes this way). Convenience
//! wrappers return the typed payload and surface protocol-level `Busy` /
//! `Error` responses as values rather than errors, since backpressure is
//! an expected outcome the caller must handle.

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{
    self, Opcode, PredictItem, PredictReply, Request, Response, StatsReport, TrainItem, WireError,
};

/// A connected `mascot-serve` client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

/// Outcome of a predict or train call: served, or pushed back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served<T> {
    /// The request was processed.
    Ok(T),
    /// The server pushed back; retry later. Neither `mascotd` nor
    /// `mascot-router` answers `Busy`, but the wire keeps the status.
    Busy,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request frame and reads the matching response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on I/O failure, a malformed response, a
    /// connection closed before the response arrived, or an oversized
    /// batch ([`WireError::BatchTooLarge`], rejected before any byte is
    /// written so the stream stays in sync).
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv(req.opcode())
    }

    /// Writes one request frame without waiting for its response, so
    /// requests can be pipelined; [`Client::recv`] collects the responses
    /// in send order.
    ///
    /// # Errors
    ///
    /// As the write half of [`Client::request`].
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        self.stream.write_all(&req.encode_frame()?)?;
        Ok(())
    }

    /// Reads the next response frame, decoding it as the answer to a
    /// request with opcode `op`.
    ///
    /// # Errors
    ///
    /// As the read half of [`Client::request`].
    pub fn recv(&mut self, op: Opcode) -> Result<Response, WireError> {
        let (code, payload) = wire::read_frame(&mut self.stream)?.ok_or(WireError::Closed)?;
        Response::decode(op, code, &payload)
    }

    /// Predicts a batch of loads.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`]; a server-side `Error`
    /// response is mapped to [`WireError::Corrupt`].
    pub fn predict(&mut self, items: Vec<PredictItem>) -> Result<Served<Vec<PredictReply>>, WireError> {
        match self.request(&Request::Predict(items))? {
            Response::Predict(replies) => Ok(Served::Ok(replies)),
            Response::Busy => Ok(Served::Busy),
            Response::Error(_) => Err(WireError::Corrupt("server rejected predict")),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }

    /// Trains from a batch of outcomes; returns `(applied, stale)` counts.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`]; a server-side `Error`
    /// response is mapped to [`WireError::Corrupt`].
    pub fn train(&mut self, items: Vec<TrainItem>) -> Result<Served<(u32, u32)>, WireError> {
        match self.request(&Request::Train(items))? {
            Response::Train { applied, stale } => Ok(Served::Ok((applied, stale))),
            Response::Busy => Ok(Served::Busy),
            Response::Error(_) => Err(WireError::Corrupt("server rejected train")),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }

    /// Fetches the per-shard statistics snapshot.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`].
    pub fn stats(&mut self) -> Result<StatsReport, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }

    /// Requests a graceful shutdown; returns the server's lifetime item
    /// count.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`].
    pub fn shutdown(&mut self) -> Result<u64, WireError> {
        match self.request(&Request::Shutdown)? {
            Response::Shutdown { served } => Ok(served),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }

    /// Serializes the server's full predictor state into a snapshot
    /// container.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`]; a server-side `Error`
    /// response (e.g. oversized state) is mapped to [`WireError::Corrupt`].
    pub fn snapshot(&mut self) -> Result<Vec<u8>, WireError> {
        match self.request(&Request::Snapshot)? {
            Response::Snapshot(bytes) => Ok(bytes),
            Response::Error(_) => Err(WireError::Corrupt("server rejected snapshot")),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }

    /// Replaces the server's predictor state from a snapshot container;
    /// returns the entries restored across shards. The server validates the
    /// container fail-closed and reshards when its shard count differs from
    /// the snapshot's.
    ///
    /// # Errors
    ///
    /// Wire errors as in [`Client::request`]; a rejected snapshot surfaces
    /// as the server's `Error` message via [`WireError::Corrupt`].
    pub fn restore(&mut self, snapshot: Vec<u8>) -> Result<u64, WireError> {
        match self.request(&Request::Restore(snapshot))? {
            Response::Restore { restored_entries } => Ok(restored_entries),
            Response::Error(_) => Err(WireError::Corrupt("server rejected restore")),
            _ => Err(WireError::Corrupt("mismatched response")),
        }
    }
}
