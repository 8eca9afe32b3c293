//! The `tucker-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one **frame**: a little-endian
//! `u32` payload length followed by exactly that many payload bytes. The
//! payload starts with a one-byte opcode; integers are little-endian,
//! strings are a `u32` byte length plus UTF-8 bytes, and tensor data is raw
//! little-endian `f64`s. There is no pipelining: a connection carries one
//! request, then one response, in strict alternation.
//!
//! Both directions are decoded defensively: every length is bounds-checked
//! against the side's frame cap *before* allocation, every string is
//! UTF-8-checked, element counts are capped, and a payload with trailing
//! bytes is rejected. A malformed frame is a typed
//! [`ProtocolError`] — this module cannot panic (it is under the CI
//! panic-grep gate) and never trusts a declared length further than the
//! bytes actually present.
//!
//! The server handles protocol failures per-connection: a frame that parses
//! badly gets a typed [`Response::Err`] with [`ERR_PROTOCOL`] and the
//! connection stays usable; an unusable prefix (bad length, truncation)
//! drops only that connection. See `crate::server`.

use tucker_api::ProtocolError;
use tucker_store::Codec;

/// Cap on a request frame's payload (bounds the server's per-request
/// allocation; generous for the largest legal `Elements` batch).
pub const MAX_REQUEST_FRAME: u32 = 1 << 23;
/// Cap on a response frame's payload (bounds reconstruction windows a
/// single response may carry).
pub const MAX_RESPONSE_FRAME: u32 = 1 << 26;
/// Cap on an artifact name's UTF-8 byte length.
pub const MAX_NAME_BYTES: usize = 256;
/// Cap on the number of modes in any request (mirrors the `.tkr` header
/// limit).
pub const MAX_MODES: usize = 64;
/// Cap on the number of points in one `Elements` batch.
pub const MAX_POINTS: usize = 8192;
/// Cap on a diagnostic message's UTF-8 byte length.
pub const MAX_MESSAGE_BYTES: usize = 4096;
/// Cap on a metrics exposition's UTF-8 byte length (a registry of thousands
/// of instruments stays far below this).
pub const MAX_METRICS_BYTES: usize = 1 << 20;

/// Request opcode: open (or re-validate) an artifact, returning its header
/// summary.
pub const OP_OPEN: u8 = 0x01;
/// Request opcode: list registered artifacts.
pub const OP_LIST: u8 = 0x02;
/// Request opcode: reconstruct a per-mode `(start, len)` window.
pub const OP_RANGE: u8 = 0x03;
/// Request opcode: reconstruct one hyperslice.
pub const OP_SLICE: u8 = 0x04;
/// Request opcode: reconstruct a single element.
pub const OP_ELEMENT: u8 = 0x05;
/// Request opcode: reconstruct a batch of elements.
pub const OP_ELEMENTS: u8 = 0x06;
/// Request opcode: service and per-artifact cache statistics.
pub const OP_STATS: u8 = 0x07;
/// Request opcode: the process-wide metrics registry as a text exposition.
pub const OP_METRICS: u8 = 0x08;

/// Response opcode: header summary of an opened artifact.
pub const RESP_OPEN: u8 = 0x81;
/// Response opcode: artifact listing.
pub const RESP_LIST: u8 = 0x82;
/// Response opcode: a reconstructed tensor window.
pub const RESP_TENSOR: u8 = 0x83;
/// Response opcode: a single reconstructed value.
pub const RESP_SCALAR: u8 = 0x84;
/// Response opcode: a batch of reconstructed values.
pub const RESP_VECTOR: u8 = 0x85;
/// Response opcode: service statistics.
pub const RESP_STATS: u8 = 0x86;
/// Response opcode: a metrics text exposition.
pub const RESP_METRICS: u8 = 0x87;
/// Response opcode: a typed error.
pub const RESP_ERR: u8 = 0xEE;

/// Error code: the request frame violated the protocol.
pub const ERR_PROTOCOL: u8 = 1;
/// Error code: the named artifact is not registered.
pub const ERR_UNKNOWN_ARTIFACT: u8 = 2;
/// Error code: the artifact rejected the query (out of range, wrong arity,
/// or a result too large for one response frame).
pub const ERR_QUERY: u8 = 3;
/// Error code: the admission cap rejected the request; retry later.
pub const ERR_BUSY: u8 = 4;
/// Error code: the server is shutting down and accepts no new requests.
pub const ERR_SHUTTING_DOWN: u8 = 5;
/// Error code: the request missed its deadline (including queue wait).
pub const ERR_DEADLINE: u8 = 6;
/// Error code: the registered artifact failed to open (corrupt or missing
/// file).
pub const ERR_OPEN: u8 = 7;
/// Error code: an internal failure while executing the request.
pub const ERR_INTERNAL: u8 = 8;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open (or re-validate) artifact `name`, returning its header summary.
    Open {
        /// Registered artifact name.
        name: String,
    },
    /// List every registered artifact.
    List,
    /// Reconstruct the window given by one `(start, len)` pair per mode.
    ReconstructRange {
        /// Registered artifact name.
        name: String,
        /// One `(start, len)` pair per mode.
        ranges: Vec<(u64, u64)>,
    },
    /// Reconstruct the hyperslice `index` of `mode`.
    ReconstructSlice {
        /// Registered artifact name.
        name: String,
        /// The sliced mode.
        mode: u64,
        /// The index within the mode.
        index: u64,
    },
    /// Reconstruct a single element.
    Element {
        /// Registered artifact name.
        name: String,
        /// One index per mode.
        idx: Vec<u64>,
    },
    /// Reconstruct a batch of elements.
    Elements {
        /// Registered artifact name.
        name: String,
        /// Number of modes per point.
        ndims: u32,
        /// `npoints × ndims` indices, point-major.
        points: Vec<u64>,
    },
    /// Service and per-artifact cache statistics.
    Stats,
    /// The process-wide metrics registry as a text exposition.
    Metrics,
}

/// The header summary a successful `Open` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteHeader {
    /// Original tensor dimensions.
    pub dims: Vec<u64>,
    /// Stored core dimensions.
    pub ranks: Vec<u64>,
    /// The artifact's value codec.
    pub codec: Codec,
    /// Decomposition tolerance ε.
    pub eps: f64,
    /// The codec's quantization error bound.
    pub quant_error_bound: f64,
    /// Number of core chunks in the artifact.
    pub chunk_count: u64,
    /// Artifact size on disk in bytes.
    pub file_bytes: u64,
}

/// One artifact in a `List` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Registered name.
    pub name: String,
    /// Whether the artifact has been opened (readers are opened on first
    /// use and kept).
    pub opened: bool,
}

/// Per-artifact cache accounting in a `Stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactStats {
    /// Registered name.
    pub name: String,
    /// Cumulative chunk decodes for this artifact.
    pub decoded_chunks: u64,
    /// Cumulative shared-cache hits for this artifact.
    pub cache_hits: u64,
    /// This artifact's chunks currently resident in the shared cache.
    pub resident_chunks: u64,
}

/// The service counters a `Stats` response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests rejected at the admission cap.
    pub busy_rejections: u64,
    /// Connections refused at the session cap — answered `Busy` by the
    /// accept thread and closed before any session thread was spawned.
    pub shed_sessions: u64,
    /// Malformed request frames answered with a protocol error.
    pub protocol_errors: u64,
    /// Requests currently admitted (queued or executing).
    pub in_flight: u64,
    /// Shared-cache accounting for every registered artifact, sorted by
    /// name (zeros for an artifact no query has opened yet).
    pub artifacts: Vec<ArtifactStats>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Header summary of an opened artifact.
    Open(RemoteHeader),
    /// Artifact listing, sorted by name.
    List(Vec<ArtifactInfo>),
    /// A reconstructed tensor window (row-major values).
    Tensor {
        /// The window's dimensions.
        dims: Vec<u64>,
        /// `∏ dims` row-major values.
        data: Vec<f64>,
    },
    /// A single reconstructed value.
    Scalar(f64),
    /// A batch of reconstructed values, in request order.
    Vector(Vec<f64>),
    /// Service statistics.
    Stats(ServeStats),
    /// The metrics registry rendered as one `kind name fields` line per
    /// instrument (see `tucker_obs::metrics::render`), plus the server's
    /// per-artifact cache gauges.
    Metrics(String),
    /// A typed error.
    Err {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Requests in flight when the error was produced (meaningful for
        /// [`ERR_BUSY`], zero otherwise).
        in_flight: u64,
        /// Human-readable diagnostic.
        message: String,
    },
}

fn malformed(msg: &str) -> ProtocolError {
    ProtocolError::Malformed(msg.to_string())
}

/// A bounds-checked payload reader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("declared length runs past the payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self, max: usize, what: &str) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(malformed(&format!(
                "{what} of {len} bytes exceeds cap {max}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed(&format!("{what} is not UTF-8")))
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, ProtocolError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| malformed("index count overflow"))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                u64::from_le_bytes(a)
            })
            .collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ProtocolError> {
        Ok(self.u64s(n)?.into_iter().map(f64::from_bits).collect())
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes after the message"))
        }
    }

    fn modes(&mut self, what: &str) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n == 0 || n > MAX_MODES {
            return Err(malformed(&format!(
                "{what} of {n} modes outside the accepted range 1..={MAX_MODES}"
            )));
        }
        Ok(n)
    }
}

/// A little-endian payload writer (infallible; the frame cap is enforced by
/// [`encode_frame`]).
#[derive(Default)]
struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.out.reserve(vs.len() * 8);
        for &v in vs {
            self.u64(v);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.out.reserve(vs.len() * 8);
        for &v in vs {
            self.f64(v);
        }
    }
}

impl Request {
    /// Encodes the request payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Request::Open { name } => {
                e.u8(OP_OPEN);
                e.str(name);
            }
            Request::List => e.u8(OP_LIST),
            Request::ReconstructRange { name, ranges } => {
                e.u8(OP_RANGE);
                e.str(name);
                e.u32(ranges.len() as u32);
                for &(start, len) in ranges {
                    e.u64(start);
                    e.u64(len);
                }
            }
            Request::ReconstructSlice { name, mode, index } => {
                e.u8(OP_SLICE);
                e.str(name);
                e.u64(*mode);
                e.u64(*index);
            }
            Request::Element { name, idx } => {
                e.u8(OP_ELEMENT);
                e.str(name);
                e.u32(idx.len() as u32);
                e.u64s(idx);
            }
            Request::Elements {
                name,
                ndims,
                points,
            } => {
                e.u8(OP_ELEMENTS);
                e.str(name);
                e.u32((points.len() / (*ndims).max(1) as usize) as u32);
                e.u32(*ndims);
                e.u64s(points);
            }
            Request::Stats => e.u8(OP_STATS),
            Request::Metrics => e.u8(OP_METRICS),
        }
        e.out
    }

    /// Decodes a request payload, rejecting unknown opcodes, out-of-cap
    /// counts, non-UTF-8 names, and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let req = match op {
            OP_OPEN => Request::Open {
                name: d.str(MAX_NAME_BYTES, "artifact name")?,
            },
            OP_LIST => Request::List,
            OP_RANGE => {
                let name = d.str(MAX_NAME_BYTES, "artifact name")?;
                let n = d.modes("range request")?;
                let flat = d.u64s(n * 2)?;
                Request::ReconstructRange {
                    name,
                    ranges: flat.chunks_exact(2).map(|c| (c[0], c[1])).collect(),
                }
            }
            OP_SLICE => Request::ReconstructSlice {
                name: d.str(MAX_NAME_BYTES, "artifact name")?,
                mode: d.u64()?,
                index: d.u64()?,
            },
            OP_ELEMENT => {
                let name = d.str(MAX_NAME_BYTES, "artifact name")?;
                let n = d.modes("element request")?;
                Request::Element {
                    name,
                    idx: d.u64s(n)?,
                }
            }
            OP_ELEMENTS => {
                let name = d.str(MAX_NAME_BYTES, "artifact name")?;
                let npoints = d.u32()? as usize;
                if npoints > MAX_POINTS {
                    return Err(malformed(&format!(
                        "batch of {npoints} points exceeds cap {MAX_POINTS}"
                    )));
                }
                let ndims = d.modes("elements request")?;
                Request::Elements {
                    name,
                    ndims: ndims as u32,
                    points: d.u64s(npoints * ndims)?,
                }
            }
            OP_STATS => Request::Stats,
            OP_METRICS => Request::Metrics,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (no frame prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Response::Open(h) => {
                e.u8(RESP_OPEN);
                e.u32(h.dims.len() as u32);
                e.u64s(&h.dims);
                e.u64s(&h.ranks);
                e.u8(h.codec.id());
                e.f64(h.eps);
                e.f64(h.quant_error_bound);
                e.u64(h.chunk_count);
                e.u64(h.file_bytes);
            }
            Response::List(items) => {
                e.u8(RESP_LIST);
                e.u32(items.len() as u32);
                for item in items {
                    e.str(&item.name);
                    e.u8(u8::from(item.opened));
                }
            }
            Response::Tensor { dims, data } => {
                e.u8(RESP_TENSOR);
                e.u32(dims.len() as u32);
                e.u64s(dims);
                e.f64s(data);
            }
            Response::Scalar(v) => {
                e.u8(RESP_SCALAR);
                e.f64(*v);
            }
            Response::Vector(vs) => {
                e.u8(RESP_VECTOR);
                e.u32(vs.len() as u32);
                e.f64s(vs);
            }
            Response::Stats(s) => {
                e.u8(RESP_STATS);
                e.u64(s.served);
                e.u64(s.busy_rejections);
                e.u64(s.shed_sessions);
                e.u64(s.protocol_errors);
                e.u64(s.in_flight);
                e.u32(s.artifacts.len() as u32);
                for a in &s.artifacts {
                    e.str(&a.name);
                    e.u64(a.decoded_chunks);
                    e.u64(a.cache_hits);
                    e.u64(a.resident_chunks);
                }
            }
            Response::Metrics(text) => {
                e.u8(RESP_METRICS);
                e.str(text);
            }
            Response::Err {
                code,
                in_flight,
                message,
            } => {
                e.u8(RESP_ERR);
                e.u8(*code);
                e.u64(*in_flight);
                e.str(message);
            }
        }
        e.out
    }

    /// Decodes a response payload with the same defensive posture as
    /// [`Request::decode`]; a `Tensor` additionally requires its declared
    /// dims product to match the values actually present (overflow-checked).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut d = Dec::new(payload);
        let op = d.u8()?;
        let resp = match op {
            RESP_OPEN => {
                let n = d.modes("header summary")?;
                let dims = d.u64s(n)?;
                let ranks = d.u64s(n)?;
                let codec_id = d.u8()?;
                let codec = Codec::try_from_id(codec_id)
                    .map_err(|_| malformed(&format!("unknown codec id {codec_id}")))?;
                Response::Open(RemoteHeader {
                    dims,
                    ranks,
                    codec,
                    eps: d.f64()?,
                    quant_error_bound: d.f64()?,
                    chunk_count: d.u64()?,
                    file_bytes: d.u64()?,
                })
            }
            RESP_LIST => {
                let n = d.u32()? as usize;
                if n > MAX_POINTS {
                    return Err(malformed("artifact listing implausibly long"));
                }
                let mut items = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    items.push(ArtifactInfo {
                        name: d.str(MAX_NAME_BYTES, "artifact name")?,
                        opened: d.u8()? != 0,
                    });
                }
                Response::List(items)
            }
            RESP_TENSOR => {
                let n = d.modes("tensor response")?;
                let dims = d.u64s(n)?;
                let count = dims
                    .iter()
                    .try_fold(1u64, |acc, &dim| acc.checked_mul(dim))
                    .and_then(|c| usize::try_from(c).ok())
                    .ok_or_else(|| malformed("tensor dims product overflows"))?;
                let data = d.f64s(count)?;
                Response::Tensor { dims, data }
            }
            RESP_SCALAR => Response::Scalar(d.f64()?),
            RESP_VECTOR => {
                let n = d.u32()? as usize;
                if n > MAX_POINTS {
                    return Err(malformed(&format!(
                        "vector of {n} values exceeds cap {MAX_POINTS}"
                    )));
                }
                Response::Vector(d.f64s(n)?)
            }
            RESP_STATS => {
                let served = d.u64()?;
                let busy_rejections = d.u64()?;
                let shed_sessions = d.u64()?;
                let protocol_errors = d.u64()?;
                let in_flight = d.u64()?;
                let n = d.u32()? as usize;
                if n > MAX_POINTS {
                    return Err(malformed("stats listing implausibly long"));
                }
                let mut artifacts = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    artifacts.push(ArtifactStats {
                        name: d.str(MAX_NAME_BYTES, "artifact name")?,
                        decoded_chunks: d.u64()?,
                        cache_hits: d.u64()?,
                        resident_chunks: d.u64()?,
                    });
                }
                Response::Stats(ServeStats {
                    served,
                    busy_rejections,
                    shed_sessions,
                    protocol_errors,
                    in_flight,
                    artifacts,
                })
            }
            RESP_METRICS => Response::Metrics(d.str(MAX_METRICS_BYTES, "metrics exposition")?),
            RESP_ERR => Response::Err {
                code: d.u8()?,
                in_flight: d.u64()?,
                message: d.str(MAX_MESSAGE_BYTES, "error message")?,
            },
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Prepends the `u32` length prefix to a payload, rejecting payloads
/// outside `1..=max` with a typed [`ProtocolError::FrameLength`].
pub fn encode_frame(payload: &[u8], max: u32) -> Result<Vec<u8>, ProtocolError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l >= 1 && l <= max)
        .ok_or(ProtocolError::FrameLength {
            len: payload.len() as u64,
            max: max as u64,
        })?;
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Validates a received length prefix against `1..=max`.
pub fn check_frame_len(len: u32, max: u32) -> Result<usize, ProtocolError> {
    if len >= 1 && len <= max {
        Ok(len as usize)
    } else {
        Err(ProtocolError::FrameLength {
            len: len as u64,
            max: max as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert!(payload.len() <= MAX_REQUEST_FRAME as usize);
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Open { name: "sp".into() });
        round_trip_request(Request::List);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::ReconstructRange {
            name: "field".into(),
            ranges: vec![(0, 4), (2, 3), (10, 2)],
        });
        round_trip_request(Request::ReconstructSlice {
            name: "field".into(),
            mode: 2,
            index: 7,
        });
        round_trip_request(Request::Element {
            name: "x".into(),
            idx: vec![1, 2, 3],
        });
        round_trip_request(Request::Elements {
            name: "x".into(),
            ndims: 3,
            points: vec![0, 0, 0, 1, 2, 3],
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Open(RemoteHeader {
            dims: vec![16, 12, 10],
            ranks: vec![4, 4, 3],
            codec: Codec::F32,
            eps: 1e-4,
            quant_error_bound: 0.0,
            chunk_count: 10,
            file_bytes: 12345,
        }));
        round_trip_response(Response::List(vec![
            ArtifactInfo {
                name: "a".into(),
                opened: true,
            },
            ArtifactInfo {
                name: "b".into(),
                opened: false,
            },
        ]));
        round_trip_response(Response::Tensor {
            dims: vec![2, 3],
            data: vec![1.0, -2.5, 0.0, f64::MIN_POSITIVE, 4.0, 5.0],
        });
        round_trip_response(Response::Scalar(-0.25));
        round_trip_response(Response::Vector(vec![1.0, 2.0, 3.0]));
        round_trip_response(Response::Stats(ServeStats {
            served: 10,
            busy_rejections: 2,
            shed_sessions: 4,
            protocol_errors: 1,
            in_flight: 3,
            artifacts: vec![ArtifactStats {
                name: "a".into(),
                decoded_chunks: 5,
                cache_hits: 7,
                resident_chunks: 4,
            }],
        }));
        round_trip_response(Response::Metrics(
            "counter serve.requests 3\nhist serve.op.list.us count=3 sum_us=12 p50=4 p99=8\n"
                .into(),
        ));
        round_trip_response(Response::Err {
            code: ERR_BUSY,
            in_flight: 8,
            message: "at capacity".into(),
        });
    }

    #[test]
    fn oversized_metrics_exposition_is_rejected() {
        let mut bad = vec![RESP_METRICS];
        bad.extend_from_slice(&(MAX_METRICS_BYTES as u32 + 1).to_le_bytes());
        assert!(Response::decode(&bad).is_err());
    }

    #[test]
    fn unknown_opcodes_are_typed() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtocolError::UnknownOpcode(0x7F))
        ));
        assert!(matches!(
            Response::decode(&[0x00]),
            Err(ProtocolError::UnknownOpcode(0x00))
        ));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        // Truncated: an Open frame whose name length runs past the bytes.
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(b"abc");
        assert!(Request::decode(&bad).is_err());
        // Trailing: a valid List with junk after it.
        assert!(Request::decode(&[OP_LIST, 0xAA]).is_err());
        // Empty payload.
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn caps_are_enforced() {
        // An absurd mode count must be rejected before any allocation.
        let mut bad = vec![OP_RANGE];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&bad).is_err());
        // A batch beyond MAX_POINTS likewise.
        let mut bad = vec![OP_ELEMENTS];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(b'x');
        bad.extend_from_slice(&(MAX_POINTS as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&3u32.to_le_bytes());
        assert!(Request::decode(&bad).is_err());
        // A tensor response whose dims product overflows u64.
        let mut bad = vec![RESP_TENSOR];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&bad).is_err());
        // A name longer than the cap.
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&(MAX_NAME_BYTES as u32 + 1).to_le_bytes());
        bad.extend_from_slice(&vec![b'n'; MAX_NAME_BYTES + 1]);
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn frame_lengths_are_validated_both_ways() {
        assert!(matches!(
            encode_frame(&[], MAX_REQUEST_FRAME),
            Err(ProtocolError::FrameLength { len: 0, .. })
        ));
        let frame = encode_frame(&[OP_LIST], MAX_REQUEST_FRAME).unwrap();
        assert_eq!(frame, vec![1, 0, 0, 0, OP_LIST]);
        assert!(check_frame_len(0, MAX_REQUEST_FRAME).is_err());
        assert!(check_frame_len(MAX_REQUEST_FRAME + 1, MAX_REQUEST_FRAME).is_err());
        assert_eq!(check_frame_len(17, MAX_REQUEST_FRAME).unwrap(), 17);
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut bad = vec![OP_OPEN];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Request::decode(&bad),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
