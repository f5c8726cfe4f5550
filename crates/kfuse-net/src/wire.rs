//! The kfuse wire protocol: length-prefixed, checksummed frames.
//!
//! Every message on a kfuse connection is one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  magic           "KFN1"
//!      4     1  version         0x05 (the only one accepted)
//!      5     1  frame type      1–14, see [`Frame`]
//!      6     2  reserved        must be zero (LE)
//!      8     4  payload length  bytes after the header (LE)
//!     12     4  checksum        FNV-1a-32 of the payload (LE)
//!     16     …  payload         frame-type specific
//! ```
//!
//! One payload rule covers the optional fields: `Submit` carries a
//! priority byte (`0` normal, `1` high, `2` low) after its inputs, and
//! `Submit`, `ResultOk`, `Error` and `SubmitFrame` end with a
//! trace-presence byte (`0`/`1`) followed by the 16-byte [`TraceContext`]
//! (`trace_id` + `span_id`, both u64 LE) iff the byte is `1`. Every field
//! is always encoded, so each frame has exactly one encoding and
//! decode→re-encode is bit-identical. Any other priority or presence
//! byte is malformed. A header with any version but [`VERSION`] fails
//! with [`WireError::BadVersion`] before its payload is read.
//!
//! All multi-byte integers are little-endian; `f32` values travel as their
//! IEEE-754 bit patterns so results round-trip **bit-identically** (the
//! same discipline `kfuse-fuzz` enforces between executors). The checksum
//! covers only the payload: the header fields are each individually
//! validated, and a corrupted length would surface as a checksum mismatch
//! or truncation anyway.
//!
//! Decoding is defensive by construction: every count, name, dimension,
//! and expression is bounded by [`Limits`] *before* any allocation, and
//! [`read_frame`] distinguishes a clean peer close ([`WireError::Closed`])
//! from an idle socket ([`WireError::IdleTimeout`]) from a peer that
//! stalls mid-frame ([`WireError::Stalled`] — the slow-loris case a server
//! must drop).

use std::io::{self, ErrorKind, Read, Write};

use kfuse_dsl::Schedule;
use kfuse_ir::{Image, ImageId, Pipeline};
use kfuse_runtime::Priority;
use kfuse_stream::StreamPipeline;

use crate::codec;

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"KFN1";
/// The protocol version. Numbers 1–4 belonged to earlier builds, whose
/// frames fail the header check instead of being misparsed.
pub const VERSION: u8 = 5;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// On-wire size of a [`TraceContext`] (two u64s).
pub const TRACE_CONTEXT_LEN: usize = 16;

/// Client-generated request trace identity, propagated end-to-end:
/// carried on `Submit`, echoed verbatim in `ResultOk`/`Error`, and
/// stamped onto every server-side span the request produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// 64-bit request trace id (the client should pick it unique and
    /// nonzero; the server treats it as opaque).
    pub trace_id: u64,
    /// The client's root span id under `trace_id` (0 when the client
    /// tracks no spans of its own).
    pub span_id: u64,
}

/// FNV-1a 32-bit checksum (the 32-bit sibling of the fingerprint hash
/// used by `kfuse-ir`).
pub fn checksum(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Decode-side resource bounds, enforced before any allocation.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Maximum payload length a header may announce, in bytes.
    pub max_payload: u32,
    /// Maximum length of any string (pipeline, kernel, stage, image name).
    pub max_name: usize,
    /// Maximum element count of any list (images, kernels, stages, refs,
    /// body expressions, parameters, submitted inputs).
    pub max_count: usize,
    /// Maximum nesting depth of one expression tree.
    pub max_expr_depth: usize,
    /// Maximum image width or height in pixels.
    pub max_dim: usize,
    /// Maximum channels per image.
    pub max_channels: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_payload: 64 << 20,
            max_name: 256,
            max_count: 1 << 16,
            max_expr_depth: 256,
            max_dim: 1 << 14,
            max_channels: 64,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// A non-timeout I/O error.
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The read timed out with no bytes of the next frame received —
    /// the connection is merely idle, not broken.
    IdleTimeout,
    /// The read timed out mid-frame: the peer started a frame and then
    /// stopped feeding it (slow-loris). The stream is unrecoverable.
    Stalled,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    BadType(u8),
    /// The reserved header field was non-zero.
    NonZeroReserved(u16),
    /// The announced payload length exceeds [`Limits::max_payload`].
    Oversized {
        /// Announced payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The payload checksum did not match the header.
    ChecksumMismatch {
        /// Checksum announced in the header.
        expected: u32,
        /// Checksum computed over the received payload.
        found: u32,
    },
    /// The stream ended before the announced bytes arrived.
    Truncated,
    /// The payload decoded successfully but left unconsumed bytes.
    TrailingBytes(usize),
    /// The payload violated the format or a [`Limits`] bound.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::IdleTimeout => write!(f, "read timed out while idle"),
            WireError::Stalled => write!(f, "peer stalled mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadType(t) => write!(f, "unknown frame type {t}"),
            WireError::NonZeroReserved(r) => write!(f, "reserved header field is {r:#x}, not zero"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds limit {max}")
            }
            WireError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "payload checksum {found:#010x} != header {expected:#010x}"
                )
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether the stream is still usable after this error. Only an idle
    /// timeout leaves the connection at a frame boundary; everything else
    /// either corrupted framing or lost the transport.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, WireError::IdleTimeout)
    }
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame violated the wire format.
    Malformed,
    /// `Submit` named a pipeline that was never registered.
    UnknownPipeline,
    /// The runtime queue was full under `Admission::Reject`.
    QueueFull,
    /// Admission under `Admission::BlockWithTimeout` timed out.
    AdmissionTimeout,
    /// The job's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining and refuses new work.
    Draining,
    /// The executor rejected the pipeline or its inputs.
    ExecFailed,
    /// The client-announced fingerprint disagrees with the pipeline.
    FingerprintMismatch,
    /// The registered pipeline failed IR validation.
    InvalidPipeline,
    /// Submitted inputs do not match the pipeline's declared inputs.
    BadInputs,
    /// The job panicked inside a worker.
    Panicked,
    /// The frame type is valid but not accepted in this direction.
    Unsupported,
    /// The server is at its connection limit and refuses this connection.
    ConnectionLimit,
    /// No such streaming session (never opened, already closed, or owned
    /// by a different connection).
    UnknownSession,
    /// The streaming session is closed and accepts no further frames.
    SessionClosed,
}

impl ErrorCode {
    /// Wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownPipeline => 2,
            ErrorCode::QueueFull => 3,
            ErrorCode::AdmissionTimeout => 4,
            ErrorCode::DeadlineExceeded => 5,
            ErrorCode::Draining => 6,
            ErrorCode::ExecFailed => 7,
            ErrorCode::FingerprintMismatch => 8,
            ErrorCode::InvalidPipeline => 9,
            ErrorCode::BadInputs => 10,
            ErrorCode::Panicked => 11,
            ErrorCode::Unsupported => 12,
            ErrorCode::ConnectionLimit => 13,
            ErrorCode::UnknownSession => 14,
            ErrorCode::SessionClosed => 15,
        }
    }

    /// Inverse of [`ErrorCode::as_u16`].
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownPipeline,
            3 => ErrorCode::QueueFull,
            4 => ErrorCode::AdmissionTimeout,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Draining,
            7 => ErrorCode::ExecFailed,
            8 => ErrorCode::FingerprintMismatch,
            9 => ErrorCode::InvalidPipeline,
            10 => ErrorCode::BadInputs,
            11 => ErrorCode::Panicked,
            12 => ErrorCode::Unsupported,
            13 => ErrorCode::ConnectionLimit,
            14 => ErrorCode::UnknownSession,
            15 => ErrorCode::SessionClosed,
            _ => return None,
        })
    }
}

/// One protocol message. Client→server: `RegisterPipeline`, `Submit`,
/// `Ping`, `Drain`, `OpenSession`, `SubmitFrame`, `CloseSession`.
/// Server→client: `RegisterAck`, `ResultOk`, `Error`, `Pong`,
/// `DrainAck`, `SessionAck`, `CloseSessionAck`.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Ship a pipeline's IR to the server under a tenant name.
    RegisterPipeline {
        /// Tenant/pipeline key later referenced by `Submit`.
        name: String,
        /// Client-computed [`Pipeline::fingerprint`]; the server verifies
        /// it to catch codec disagreement before any job runs.
        fingerprint: u64,
        /// The full unfused pipeline IR.
        pipeline: Pipeline,
    },
    /// Server acknowledgement of a registration.
    RegisterAck {
        /// The fingerprint the server computed from the decoded IR.
        fingerprint: u64,
    },
    /// Execute a registered pipeline on fresh input images.
    Submit {
        /// Client-chosen id echoed in the reply.
        request_id: u64,
        /// Name of a previously registered pipeline.
        tenant: String,
        /// Completion budget in microseconds from server receipt;
        /// `0` means no deadline.
        deadline_us: u64,
        /// Fusion schedule to execute under.
        schedule: Schedule,
        /// Input images keyed by the pipeline's [`ImageId`]s.
        inputs: Vec<(ImageId, Image)>,
        /// Queueing class.
        priority: Priority,
        /// Request trace identity, if the client traces.
        trace: Option<TraceContext>,
    },
    /// Successful execution result.
    ResultOk {
        /// Echo of the request id.
        request_id: u64,
        /// The pipeline's declared outputs, bit-exact.
        outputs: Vec<(ImageId, Image)>,
        /// Echo of the submit's trace context, if it carried one.
        trace: Option<TraceContext>,
    },
    /// Typed failure reply. `request_id` is `0` for connection-level
    /// errors that answer no particular request.
    Error {
        /// Echo of the request id, or `0`.
        request_id: u64,
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Echo of the submit's trace context, if it carried one.
        trace: Option<TraceContext>,
    },
    /// Liveness probe.
    Ping {
        /// Opaque token echoed by `Pong`.
        token: u64,
    },
    /// Reply to `Ping`.
    Pong {
        /// Echo of the ping token.
        token: u64,
    },
    /// Ask the server to stop accepting work and finish what is queued.
    /// Also fences every streaming session owned by this connection.
    Drain,
    /// Acknowledgement that draining has begun.
    DrainAck,
    /// Open a temporal streaming session: the server compiles the stream's
    /// frame pipeline once and keeps its state planes alive between
    /// frames.
    OpenSession {
        /// Client-chosen id echoed in the `SessionAck`/`Error` reply.
        request_id: u64,
        /// Tenant the session's frames are accounted to.
        tenant: String,
        /// Fusion schedule the session's plan is pinned to for its
        /// whole lifetime.
        schedule: Schedule,
        /// The temporal pipeline: per-frame IR plus its state bindings.
        stream: StreamPipeline,
    },
    /// Server acknowledgement of an `OpenSession`.
    SessionAck {
        /// Echo of the open's request id.
        request_id: u64,
        /// Server-assigned session handle for `SubmitFrame`/`CloseSession`.
        session_id: u64,
    },
    /// Submit the next frame of a session's input sequence. Replies reuse
    /// `ResultOk`/`Error` keyed by `request_id`; within one session they
    /// arrive in submission order.
    SubmitFrame {
        /// Client-chosen id echoed in the reply.
        request_id: u64,
        /// Session handle from `SessionAck`.
        session_id: u64,
        /// This frame's fresh (non-state) inputs.
        inputs: Vec<(ImageId, Image)>,
        /// Request trace identity, if the client traces.
        trace: Option<TraceContext>,
    },
    /// Fence (`drain`) or tear down a session. Draining keeps the session
    /// open for in-flight frames but refuses new ones; closing frees its
    /// state and answers anything still pending with a typed error.
    CloseSession {
        /// Client-chosen id echoed in the `CloseSessionAck`/`Error` reply.
        request_id: u64,
        /// Session handle from `SessionAck`.
        session_id: u64,
        /// `true` = fence only (session stays open); `false` = full close.
        drain: bool,
    },
    /// Server acknowledgement of a `CloseSession` with the session's frame
    /// accounting at ack time.
    CloseSessionAck {
        /// Echo of the close's request id.
        request_id: u64,
        /// Echo of the session handle.
        session_id: u64,
        /// Frames that completed successfully over the session's lifetime.
        frames_completed: u64,
        /// Frames that failed (including any pending frames a full close
        /// answered with `SessionClosed`).
        frames_errored: u64,
    },
}

impl Frame {
    /// Wire type byte of this frame.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::RegisterPipeline { .. } => 1,
            Frame::RegisterAck { .. } => 2,
            Frame::Submit { .. } => 3,
            Frame::ResultOk { .. } => 4,
            Frame::Error { .. } => 5,
            Frame::Ping { .. } => 6,
            Frame::Pong { .. } => 7,
            Frame::Drain => 8,
            Frame::DrainAck => 9,
            Frame::OpenSession { .. } => 10,
            Frame::SessionAck { .. } => 11,
            Frame::SubmitFrame { .. } => 12,
            Frame::CloseSession { .. } => 13,
            Frame::CloseSessionAck { .. } => 14,
        }
    }

    /// The trace context this frame carries, if any.
    pub fn trace(&self) -> Option<TraceContext> {
        match self {
            Frame::Submit { trace, .. }
            | Frame::ResultOk { trace, .. }
            | Frame::Error { trace, .. }
            | Frame::SubmitFrame { trace, .. } => *trace,
            _ => None,
        }
    }

    /// Short name for logs and traces.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::RegisterPipeline { .. } => "register_pipeline",
            Frame::RegisterAck { .. } => "register_ack",
            Frame::Submit { .. } => "submit",
            Frame::ResultOk { .. } => "result_ok",
            Frame::Error { .. } => "error",
            Frame::Ping { .. } => "ping",
            Frame::Pong { .. } => "pong",
            Frame::Drain => "drain",
            Frame::DrainAck => "drain_ack",
            Frame::OpenSession { .. } => "open_session",
            Frame::SessionAck { .. } => "session_ack",
            Frame::SubmitFrame { .. } => "submit_frame",
            Frame::CloseSession { .. } => "close_session",
            Frame::CloseSessionAck { .. } => "close_session_ack",
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-level primitives shared with `codec`.
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    let v = u32::try_from(v).expect("encoded count fits in u32");
    put_u32(out, v);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over a received payload.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, WireError> {
        Ok(self.u32()? as i32)
    }

    pub(crate) fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u32` element count and bounds it by `limit` *and* by the
    /// bytes left in the payload (every element costs at least one byte),
    /// so a hostile count can never drive a large allocation.
    pub(crate) fn count(&mut self, limit: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > limit {
            return Err(WireError::Malformed(format!(
                "{what} count {n} exceeds limit {limit}"
            )));
        }
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    pub(crate) fn string(&mut self, limits: &Limits, what: &str) -> Result<String, WireError> {
        let len = self.count(limits.max_name, what)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed(format!("{what} is not valid UTF-8")))
    }
}

// ---------------------------------------------------------------------------
// Frame encode / decode.
// ---------------------------------------------------------------------------

fn encode_payload(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::RegisterPipeline {
            name,
            fingerprint,
            pipeline,
        } => {
            put_str(out, name);
            put_u64(out, *fingerprint);
            codec::encode_pipeline(out, pipeline);
        }
        Frame::RegisterAck { fingerprint } => put_u64(out, *fingerprint),
        Frame::Submit {
            request_id,
            tenant,
            deadline_us,
            schedule,
            inputs,
            priority,
            trace,
        } => {
            put_u64(out, *request_id);
            put_str(out, tenant);
            put_u64(out, *deadline_us);
            put_u8(out, schedule_byte(*schedule));
            codec::encode_bound_images(out, inputs);
            put_u8(out, priority_byte(*priority));
            put_trace(out, trace);
        }
        Frame::ResultOk {
            request_id,
            outputs,
            trace,
        } => {
            put_u64(out, *request_id);
            codec::encode_bound_images(out, outputs);
            put_trace(out, trace);
        }
        Frame::Error {
            request_id,
            code,
            message,
            trace,
        } => {
            put_u64(out, *request_id);
            put_u16(out, code.as_u16());
            put_str(out, message);
            put_trace(out, trace);
        }
        Frame::Ping { token } | Frame::Pong { token } => put_u64(out, *token),
        Frame::Drain | Frame::DrainAck => {}
        Frame::OpenSession {
            request_id,
            tenant,
            schedule,
            stream,
        } => {
            put_u64(out, *request_id);
            put_str(out, tenant);
            put_u8(out, schedule_byte(*schedule));
            codec::encode_stream_pipeline(out, stream);
        }
        Frame::SessionAck {
            request_id,
            session_id,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
        }
        Frame::SubmitFrame {
            request_id,
            session_id,
            inputs,
            trace,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            codec::encode_bound_images(out, inputs);
            put_trace(out, trace);
        }
        Frame::CloseSession {
            request_id,
            session_id,
            drain,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            put_u8(out, u8::from(*drain));
        }
        Frame::CloseSessionAck {
            request_id,
            session_id,
            frames_completed,
            frames_errored,
        } => {
            put_u64(out, *request_id);
            put_u64(out, *session_id);
            put_u64(out, *frames_completed);
            put_u64(out, *frames_errored);
        }
    }
}

/// Appends the trace-presence byte, then the 16-byte context if present.
fn put_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    put_u8(out, u8::from(trace.is_some()));
    if let Some(t) = trace {
        put_u64(out, t.trace_id);
        put_u64(out, t.span_id);
    }
}

/// Reads the trace-presence byte and, if it says so, the context.
fn read_trace(r: &mut ByteReader<'_>) -> Result<Option<TraceContext>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(TraceContext {
            trace_id: r.u64()?,
            span_id: r.u64()?,
        })),
        other => Err(WireError::Malformed(format!(
            "bad trace-presence byte {other}"
        ))),
    }
}

fn priority_byte(p: Priority) -> u8 {
    match p {
        Priority::Normal => 0,
        Priority::High => 1,
        Priority::Low => 2,
    }
}

fn priority_from_byte(b: u8) -> Result<Priority, WireError> {
    Ok(match b {
        0 => Priority::Normal,
        1 => Priority::High,
        2 => Priority::Low,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown priority byte {other}"
            )))
        }
    })
}

fn schedule_byte(s: Schedule) -> u8 {
    match s {
        Schedule::Baseline => 0,
        Schedule::Basic => 1,
        Schedule::Optimized => 2,
    }
}

fn schedule_from_byte(b: u8) -> Result<Schedule, WireError> {
    Ok(match b {
        0 => Schedule::Baseline,
        1 => Schedule::Basic,
        2 => Schedule::Optimized,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown schedule byte {other}"
            )))
        }
    })
}

/// Serializes a frame as header + payload, ready to write to a stream.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload(frame, &mut payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.type_byte());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validated frame header:
/// `(version, type byte, payload length, payload checksum)`. Only
/// [`VERSION`] is accepted.
pub fn parse_header(
    header: &[u8; HEADER_LEN],
    limits: &Limits,
) -> Result<(u8, u8, u32, u32), WireError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header[4];
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let ftype = header[5];
    if !(1..=14).contains(&ftype) {
        return Err(WireError::BadType(ftype));
    }
    let reserved = u16::from_le_bytes([header[6], header[7]]);
    if reserved != 0 {
        return Err(WireError::NonZeroReserved(reserved));
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > limits.max_payload {
        return Err(WireError::Oversized {
            len,
            max: limits.max_payload,
        });
    }
    let cksum = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    Ok((version, ftype, len, cksum))
}

/// Decodes one payload whose header already validated as `(version,
/// ftype)`.
pub fn decode_payload(
    version: u8,
    ftype: u8,
    payload: &[u8],
    limits: &Limits,
) -> Result<Frame, WireError> {
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let mut r = ByteReader::new(payload);
    let frame = match ftype {
        1 => {
            let name = r.string(limits, "pipeline name")?;
            let fingerprint = r.u64()?;
            let pipeline = codec::decode_pipeline(&mut r, limits)?;
            Frame::RegisterPipeline {
                name,
                fingerprint,
                pipeline,
            }
        }
        2 => Frame::RegisterAck {
            fingerprint: r.u64()?,
        },
        3 => {
            let request_id = r.u64()?;
            let tenant = r.string(limits, "tenant name")?;
            let deadline_us = r.u64()?;
            let schedule = schedule_from_byte(r.u8()?)?;
            let inputs = codec::decode_bound_images(&mut r, limits)?;
            let priority = priority_from_byte(r.u8()?)?;
            let trace = read_trace(&mut r)?;
            Frame::Submit {
                request_id,
                tenant,
                deadline_us,
                schedule,
                inputs,
                priority,
                trace,
            }
        }
        4 => {
            let request_id = r.u64()?;
            let outputs = codec::decode_bound_images(&mut r, limits)?;
            let trace = read_trace(&mut r)?;
            Frame::ResultOk {
                request_id,
                outputs,
                trace,
            }
        }
        5 => {
            let request_id = r.u64()?;
            let raw = r.u16()?;
            let code = ErrorCode::from_u16(raw)
                .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
            let message = r.string(limits, "error message")?;
            let trace = read_trace(&mut r)?;
            Frame::Error {
                request_id,
                code,
                message,
                trace,
            }
        }
        6 => Frame::Ping { token: r.u64()? },
        7 => Frame::Pong { token: r.u64()? },
        8 => Frame::Drain,
        9 => Frame::DrainAck,
        10 => {
            let request_id = r.u64()?;
            let tenant = r.string(limits, "tenant name")?;
            let schedule = schedule_from_byte(r.u8()?)?;
            let stream = codec::decode_stream_pipeline(&mut r, limits)?;
            Frame::OpenSession {
                request_id,
                tenant,
                schedule,
                stream,
            }
        }
        11 => Frame::SessionAck {
            request_id: r.u64()?,
            session_id: r.u64()?,
        },
        12 => {
            let request_id = r.u64()?;
            let session_id = r.u64()?;
            let inputs = codec::decode_bound_images(&mut r, limits)?;
            let trace = read_trace(&mut r)?;
            Frame::SubmitFrame {
                request_id,
                session_id,
                inputs,
                trace,
            }
        }
        13 => {
            let request_id = r.u64()?;
            let session_id = r.u64()?;
            let drain = match r.u8()? {
                0 => false,
                1 => true,
                other => return Err(WireError::Malformed(format!("bad drain byte {other}"))),
            };
            Frame::CloseSession {
                request_id,
                session_id,
                drain,
            }
        }
        14 => Frame::CloseSessionAck {
            request_id: r.u64()?,
            session_id: r.u64()?,
            frames_completed: r.u64()?,
            frames_errored: r.u64()?,
        },
        other => return Err(WireError::BadType(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Decodes one complete frame from a byte buffer (header + payload).
pub fn decode_frame(buf: &[u8], limits: &Limits) -> Result<Frame, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (version, ftype, len, expected) = parse_header(&header, limits)?;
    let payload = &buf[HEADER_LEN..];
    if payload.len() < len as usize {
        return Err(WireError::Truncated);
    }
    if payload.len() > len as usize {
        return Err(WireError::TrailingBytes(payload.len() - len as usize));
    }
    let found = checksum(payload);
    if found != expected {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    decode_payload(version, ftype, payload, limits)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Fills `buf` from `r`, classifying timeouts by whether the frame had
/// already started (`started`, or any byte of `buf` already read).
fn read_full(r: &mut impl Read, buf: &mut [u8], started: bool) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if !started && got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(if !started && got == 0 {
                    WireError::IdleTimeout
                } else {
                    WireError::Stalled
                });
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and decodes one frame from a blocking stream. With a read
/// timeout set on the stream, an idle connection surfaces as
/// [`WireError::IdleTimeout`] (recoverable — retry) while a peer that
/// stops mid-frame surfaces as [`WireError::Stalled`] (drop it).
pub fn read_frame(r: &mut impl Read, limits: &Limits) -> Result<Frame, WireError> {
    read_frame_counted(r, limits).map(|(frame, _)| frame)
}

/// Like [`read_frame`], additionally returning the on-wire frame size in
/// bytes (header + payload) so callers can meter traffic.
pub fn read_frame_counted(r: &mut impl Read, limits: &Limits) -> Result<(Frame, usize), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, false)?;
    let (version, ftype, len, expected) = parse_header(&header, limits)?;
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, true)?;
    let found = checksum(&payload);
    if found != expected {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    let frame = decode_payload(version, ftype, &payload, limits)?;
    Ok((frame, HEADER_LEN + payload.len()))
}

/// Encodes and writes one frame, returning the bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::ImageDesc;

    fn limits() -> Limits {
        Limits::default()
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame);
        let decoded = decode_frame(&bytes, &limits()).expect("frame round-trips");
        // Bit-identity: re-encoding the decoded frame reproduces the bytes.
        assert_eq!(encode_frame(&decoded), bytes, "re-encode is bit-identical");
        decoded
    }

    #[test]
    fn control_frames_round_trip() {
        roundtrip(&Frame::Ping { token: 0xdead_beef });
        roundtrip(&Frame::Pong { token: u64::MAX });
        roundtrip(&Frame::Drain);
        roundtrip(&Frame::DrainAck);
        roundtrip(&Frame::RegisterAck {
            fingerprint: 0x1234_5678_9abc_def0,
        });
        roundtrip(&Frame::Error {
            request_id: 7,
            code: ErrorCode::DeadlineExceeded,
            message: "too late".into(),
            trace: None,
        });
    }

    /// Every priority, with and without a trace context, round-trips
    /// bit-identically; NaN and -0.0 inputs survive bit-exactly.
    #[test]
    fn submit_round_trips_with_nan_payload() {
        let desc = ImageDesc::new("in", 3, 2, 1);
        let data = vec![f32::NAN, -0.0, f32::INFINITY, 1.5, -2.5, f32::MIN_POSITIVE];
        let img = Image::from_data(desc, data);
        for priority in [Priority::Normal, Priority::High, Priority::Low] {
            let submit = |trace| Frame::Submit {
                request_id: 42,
                tenant: "harris".into(),
                deadline_us: 5_000_000,
                schedule: Schedule::Optimized,
                inputs: vec![(ImageId(0), img.clone())],
                priority,
                trace,
            };
            assert_eq!(
                encode_frame(&submit(Some(ctx()))).len(),
                encode_frame(&submit(None)).len() + TRACE_CONTEXT_LEN,
                "trace context is exactly 16 additive bytes"
            );
            for trace in [None, Some(ctx())] {
                match roundtrip(&submit(trace)) {
                    Frame::Submit {
                        request_id,
                        tenant,
                        deadline_us,
                        schedule,
                        inputs,
                        priority: p,
                        trace: t,
                    } => {
                        assert_eq!(request_id, 42);
                        assert_eq!(tenant, "harris");
                        assert_eq!(deadline_us, 5_000_000);
                        assert_eq!(schedule, Schedule::Optimized);
                        assert_eq!((p, t), (priority, trace));
                        assert_eq!(inputs.len(), 1);
                        let bits: Vec<u32> =
                            inputs[0].1.data().iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits[0], f32::NAN.to_bits());
                        assert_eq!(bits[1], (-0.0f32).to_bits());
                    }
                    other => panic!("decoded wrong frame: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn header_rejections() {
        let good = encode_frame(&Frame::Ping { token: 1 });

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::BadMagic(_))
        ));

        // Versions 1–4 are earlier builds' frames: refused, not misparsed.
        for v in [1, 2, 3, 4, 9] {
            let mut bad = good.clone();
            bad[4] = v;
            match decode_frame(&bad, &limits()) {
                Err(WireError::BadVersion(got)) => assert_eq!(got, v),
                other => panic!("version {v}: expected BadVersion, got {other:?}"),
            }
        }

        let mut bad = good.clone();
        bad[5] = 200;
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::BadType(200))
        ));

        let mut bad = good.clone();
        bad[6] = 1;
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::NonZeroReserved(1))
        ));

        let mut bad = good.clone();
        bad[HEADER_LEN] ^= 0x80; // corrupt payload
        assert!(matches!(
            decode_frame(&bad, &limits()),
            Err(WireError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            decode_frame(&good[..10], &limits()),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_frame(&good[..HEADER_LEN + 2], &limits()),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&Frame::Drain);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&bytes, &limits()) {
            Err(WireError::Oversized { len, .. }) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Same via the streaming path: the reader must refuse without
        // trying to buffer 4 GiB.
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, &limits()),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_frame(&Frame::Ping { token: 3 });
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes, &limits()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn streaming_read_classifies_eof() {
        // EOF at a frame boundary is a clean close…
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, &limits()),
            Err(WireError::Closed)
        ));
        // …EOF mid-frame is truncation.
        let bytes = encode_frame(&Frame::Ping { token: 9 });
        let mut cut = std::io::Cursor::new(bytes[..bytes.len() - 3].to_vec());
        assert!(matches!(
            read_frame(&mut cut, &limits()),
            Err(WireError::Truncated)
        ));
        let mut cut = std::io::Cursor::new(bytes[..7].to_vec());
        assert!(matches!(
            read_frame(&mut cut, &limits()),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for v in 0..=20u16 {
            if let Some(code) = ErrorCode::from_u16(v) {
                assert_eq!(code.as_u16(), v);
            }
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(13), Some(ErrorCode::ConnectionLimit));
        assert_eq!(ErrorCode::from_u16(15), Some(ErrorCode::SessionClosed));
        assert_eq!(ErrorCode::from_u16(16), None);
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            span_id: 0xfeed_face_cafe_f00d,
        }
    }

    #[test]
    fn traced_replies_round_trip() {
        match roundtrip(&Frame::ResultOk {
            request_id: 9,
            outputs: vec![],
            trace: Some(ctx()),
        }) {
            Frame::ResultOk { trace, .. } => assert_eq!(trace, Some(ctx())),
            other => panic!("decoded wrong frame: {other:?}"),
        }
        match roundtrip(&Frame::Error {
            request_id: 9,
            code: ErrorCode::QueueFull,
            message: "full".into(),
            trace: Some(ctx()),
        }) {
            Frame::Error { trace, .. } => assert_eq!(trace, Some(ctx())),
            other => panic!("decoded wrong frame: {other:?}"),
        }
    }

    /// Re-frames `bytes` after `mutate` edits its payload, so the
    /// payload check is what trips, not the length or checksum.
    fn reseal(bytes: &[u8], mutate: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = bytes[HEADER_LEN..].to_vec();
        mutate(&mut payload);
        let mut out = bytes[..HEADER_LEN].to_vec();
        out[8..12].copy_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        out[12..16].copy_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn expect_err(bytes: &[u8], want: fn(&WireError) -> bool) {
        match decode_frame(bytes, &limits()) {
            Err(e) if want(&e) => {}
            other => panic!("unexpected decode result: {other:?}"),
        }
    }

    /// Hostile-peer rules for the trace field of the replies: a presence
    /// byte other than 0/1 is malformed, a context that is announced but
    /// missing or cut short is truncated, and a context behind a presence
    /// byte of 0 is trailing bytes, never silently dropped.
    #[test]
    fn hostile_trace_context_rejected() {
        let replies = [
            Frame::ResultOk {
                request_id: 1,
                outputs: vec![],
                trace: None,
            },
            Frame::Error {
                request_id: 1,
                code: ErrorCode::QueueFull,
                message: String::new(),
                trace: None,
            },
        ];
        for untraced in replies {
            let good = encode_frame(&untraced);
            let presence = good.len() - HEADER_LEN - 1;
            let bad = reseal(&good, |p| p[presence] = 7);
            expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));
            let bad = reseal(&good, |p| p[presence] = 1);
            expect_err(&bad, |e| matches!(e, WireError::Truncated));

            let mut traced = untraced.clone();
            if let Frame::ResultOk { trace, .. } | Frame::Error { trace, .. } = &mut traced {
                *trace = Some(ctx());
            }
            let good = encode_frame(&traced);
            let bad = reseal(&good, |p| p.truncate(p.len() - 8));
            expect_err(&bad, |e| matches!(e, WireError::Truncated));
            let bad = reseal(&good, |p| p[presence] = 0);
            expect_err(&bad, |e| matches!(e, WireError::TrailingBytes(16)));
        }
    }

    /// Hostile-peer rules for the submit tail: an unknown priority byte
    /// or presence byte is malformed; an announced but missing context,
    /// or a tail chopped off entirely, is truncated.
    #[test]
    fn hostile_qos_frames_rejected() {
        let good = encode_frame(&Frame::Submit {
            request_id: 11,
            tenant: "q".into(),
            deadline_us: 250,
            schedule: Schedule::Optimized,
            inputs: vec![],
            priority: Priority::High,
            trace: None,
        });
        let n = good.len() - HEADER_LEN;
        let bad = reseal(&good, |p| p[n - 2] = 9);
        expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));
        let bad = reseal(&good, |p| p[n - 1] = 7);
        expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));
        let bad = reseal(&good, |p| p[n - 1] = 1);
        expect_err(&bad, |e| matches!(e, WireError::Truncated));
        let bad = reseal(&good, |p| p.truncate(n - 2));
        expect_err(&bad, |e| matches!(e, WireError::Truncated));

        // Schedule bytes past the paper's three are refused on both
        // frames that carry one; a peer built with a fourth schedule
        // gets a typed error instead of a misread schedule. Offsets:
        // request id (8) + tenant length (4) + tenant "q" (1), then the
        // deadline (8) on a Submit.
        let open = encode_frame(&Frame::OpenSession {
            request_id: 12,
            tenant: "q".into(),
            schedule: Schedule::Optimized,
            stream: test_stream(),
        });
        for (frame, at) in [(&good, 21), (&open, 13)] {
            assert_eq!(
                frame[HEADER_LEN + at],
                2,
                "offset lands on the schedule byte"
            );
            for byte in [3, 0xff] {
                let bad = reseal(frame, |p| p[at] = byte);
                expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));
            }
        }
    }

    #[test]
    fn checksum_matches_reference_vectors() {
        // FNV-1a 32-bit published test vectors.
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_eq!(checksum(b"a"), 0xe40c_292c);
        assert_eq!(checksum(b"foobar"), 0xbf9c_f968);
    }

    /// Minimal temporal pipeline for the session-frame tests: blend the
    /// fresh frame with the previous output.
    fn test_stream() -> kfuse_stream::StreamPipeline {
        use kfuse_ir::{BinOp, BorderMode, Expr, Kernel};
        use kfuse_stream::{StateBinding, StateSource, StreamPipeline};
        let mut p = Pipeline::new("flow");
        let frame = p.add_input(ImageDesc::new("frame", 8, 6, 1));
        let prev = p.add_input(ImageDesc::new("prev", 8, 6, 1));
        let out = p.add_image(ImageDesc::new("out", 8, 6, 1));
        p.add_kernel(Kernel::simple(
            "blend",
            vec![frame, prev],
            out,
            vec![BorderMode::Clamp, BorderMode::Clamp],
            vec![Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::load(0)),
                    Box::new(Expr::load(1)),
                )),
                Box::new(Expr::Const(0.5)),
            )],
            vec![],
        ));
        p.mark_output(out);
        StreamPipeline::new(
            p,
            vec![StateBinding {
                tap: prev,
                source: StateSource::Output(out),
                depth: 1,
            }],
        )
        .expect("valid stream")
    }

    #[test]
    fn session_frames_round_trip_at_version_4() {
        let stream = test_stream();
        let open = roundtrip(&Frame::OpenSession {
            request_id: 3,
            tenant: "flow".into(),
            schedule: Schedule::Optimized,
            stream: stream.clone(),
        });
        match open {
            Frame::OpenSession {
                request_id,
                tenant,
                schedule,
                stream: s,
            } => {
                assert_eq!(request_id, 3);
                assert_eq!(tenant, "flow");
                assert_eq!(schedule, Schedule::Optimized);
                // Fingerprint identity ⇒ the temporal structure survived.
                assert_eq!(s.fingerprint(), stream.fingerprint());
                assert_eq!(s.states(), stream.states());
            }
            other => panic!("decoded wrong frame: {other:?}"),
        }

        roundtrip(&Frame::SessionAck {
            request_id: 3,
            session_id: 17,
        });
        roundtrip(&Frame::CloseSession {
            request_id: 9,
            session_id: 17,
            drain: true,
        });
        roundtrip(&Frame::CloseSession {
            request_id: 10,
            session_id: 17,
            drain: false,
        });
        roundtrip(&Frame::CloseSessionAck {
            request_id: 10,
            session_id: 17,
            frames_completed: 640,
            frames_errored: 2,
        });

        let desc = ImageDesc::new("frame", 8, 6, 1);
        let img = Image::from_data(desc, vec![1.0; 48]);
        // SubmitFrame with and without a trace: the presence byte
        // signals the context.
        for trace in [None, Some(ctx())] {
            let frame = Frame::SubmitFrame {
                request_id: 5,
                session_id: 17,
                inputs: vec![(ImageId(0), img.clone())],
                trace,
            };
            match roundtrip(&frame) {
                Frame::SubmitFrame {
                    session_id,
                    inputs,
                    trace: t,
                    ..
                } => {
                    assert_eq!(session_id, 17);
                    assert_eq!(inputs.len(), 1);
                    assert_eq!(t, trace);
                }
                other => panic!("decoded wrong frame: {other:?}"),
            }
        }
    }

    /// Hostile-peer rules for the session frames: an unknown state-source
    /// kind in `OpenSession` and a bad trace-presence byte on
    /// `SubmitFrame` are malformed.
    #[test]
    fn version_4_gating_is_strict_both_ways() {
        let bytes = encode_frame(&Frame::OpenSession {
            request_id: 1,
            tenant: "t".into(),
            schedule: Schedule::Optimized,
            stream: test_stream(),
        });
        // State table tail layout: ... tap u32 | kind u8 | id u32 | depth u8.
        let kind_pos = bytes.len() - HEADER_LEN - 6;
        assert_eq!(bytes[HEADER_LEN + kind_pos], 1, "kind byte located");
        let bad = reseal(&bytes, |p| p[kind_pos] = 9);
        expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));

        let bytes = encode_frame(&Frame::SubmitFrame {
            request_id: 1,
            session_id: 2,
            inputs: vec![],
            trace: None,
        });
        let presence = bytes.len() - HEADER_LEN - 1;
        assert_eq!(bytes[HEADER_LEN + presence], 0);
        let bad = reseal(&bytes, |p| p[presence] = 7);
        expect_err(&bad, |e| matches!(e, WireError::Malformed(_)));
    }
}
