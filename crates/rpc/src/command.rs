//! Framed command / response messages.
//!
//! A command is "a buffer ... large enough to hold the API function
//! identifier (e.g. a number) and all function arguments" (§4.1). The frame
//! adds a magic byte, a sequence number for response matching, and the API
//! identifier; the payload is opaque to this layer.

use bytes::Bytes;

use crate::perf;
use crate::wire::{Decoder, WireError};

/// Numeric identifier of a remoted API ("e.g. a number" — §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApiId(pub u32);

impl std::fmt::Display for ApiId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "api#{}", self.0)
    }
}

/// Result status of a remoted call. "Errors caused when executing an API
/// are forwarded to the application, which must do its own error checking"
/// (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The call succeeded.
    Ok,
    /// The daemon does not implement the requested API.
    UnknownApi,
    /// The daemon could not decode the command payload.
    Malformed,
    /// The command executed, but its response is longer than the link's
    /// [`max_frame_len`](lake_transport::Channel::max_frame_len) and was
    /// withheld.
    ResponseTooLarge,
    /// The underlying library (simulated CUDA, ML runtime, ...) failed;
    /// the code is vendor-specific.
    VendorError(u32),
}

impl Status {
    pub(crate) fn to_u32(self) -> u32 {
        match self {
            Status::Ok => 0,
            Status::UnknownApi => 1,
            Status::Malformed => 2,
            Status::ResponseTooLarge => 3,
            Status::VendorError(code) => 0x1000 + code,
        }
    }

    pub(crate) fn from_u32(v: u32) -> Status {
        match v {
            0 => Status::Ok,
            1 => Status::UnknownApi,
            2 => Status::Malformed,
            3 => Status::ResponseTooLarge,
            v => Status::VendorError(v.saturating_sub(0x1000)),
        }
    }

    /// True for [`Status::Ok`].
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

const COMMAND_MAGIC: u8 = 0xC5;
const RESPONSE_MAGIC: u8 = 0x5C;

/// Bytes a command frame adds around its payload: magic, api id, seq,
/// payload length prefix, checksum trailer.
pub(crate) const COMMAND_FRAME_OVERHEAD: usize = 1 + 4 + 8 + 4 + 4;

/// FNV-1a over the frame body; appended as a little-endian u32 trailer so a
/// corrupted frame is *detected* at decode instead of silently delivering a
/// garbled payload. Real Netlink rides on checksummed lower layers; a frame
/// that survives this check is treated as intact.
fn frame_checksum(body: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in body {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Verifies and strips the checksum trailer, returning the frame body.
fn checked_body(frame: &[u8]) -> Result<&[u8], WireError> {
    let Some(split) = frame.len().checked_sub(4) else {
        return Err(WireError::Truncated { wanted: "frame checksum", remaining: frame.len() });
    };
    let (body, trailer) = frame.split_at(split);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = frame_checksum(body);
    if computed != stored {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// Seals the frame body accumulated in `out` by appending its checksum,
/// computed in place over the assembled bytes — no intermediate copy (the
/// old `seal_frame(Vec)` took the body by value out of an `Encoder`'s
/// `finish().to_vec()`, costing two extra payload-sized copies per frame).
fn seal_in_place(out: &mut Vec<u8>) {
    let sum = frame_checksum(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Reserved response sequence number for frames whose command could not be
/// attributed to any caller (the header itself was unreadable). Callers
/// never allocate this value, so a pipelined stub can't mis-match it.
pub const SEQ_UNMATCHED: u64 = u64::MAX;

/// A serialized API invocation traveling kernel → daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Which API to execute.
    pub api: ApiId,
    /// Sequence number echoed by the response.
    pub seq: u64,
    /// Encoded arguments.
    pub payload: Bytes,
}

/// Borrowed view of a decoded command: the payload points into the
/// received frame instead of being copied out of it.
///
/// This is the zero-copy decode path for transports that keep the frame
/// alive while the handler runs (the daemon's serve loop holds the frame
/// across dispatch). [`CommandRef::to_owned`] is the copying fallback for
/// callers that must outlive the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRef<'a> {
    /// Which API to execute.
    pub api: ApiId,
    /// Sequence number echoed by the response.
    pub seq: u64,
    /// Encoded arguments, borrowed from the frame.
    pub payload: &'a [u8],
}

impl CommandRef<'_> {
    /// Copying fallback: detaches the payload from the frame.
    pub fn to_owned(&self) -> Command {
        perf::note_copy(self.payload.len());
        Command { api: self.api, seq: self.seq, payload: Bytes::copy_from_slice(self.payload) }
    }
}

impl Command {
    /// Encodes the command into a transmittable frame (checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes into `out`, reusing its allocation across calls: the buffer
    /// is cleared and the frame written directly — header, length-prefixed
    /// payload, checksum computed in place. One payload memcpy total; the
    /// old `Encoder` → `finish()` → `to_vec()` chain cost three.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.payload.len()).expect("command payload too large");
        out.clear();
        out.reserve(self.encoded_len());
        out.push(COMMAND_MAGIC);
        out.extend_from_slice(&self.api.0.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        perf::note_copy(self.payload.len());
        seal_in_place(out);
    }

    /// Decodes a frame back into an owned command (copying fallback of
    /// [`Command::decode_borrowed`], same validation).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is truncated, corrupted
    /// (checksum mismatch), has the wrong magic, or carries trailing bytes.
    pub fn decode(frame: &[u8]) -> Result<Command, WireError> {
        Ok(Self::decode_borrowed(frame)?.to_owned())
    }

    /// Decodes a frame into a borrowed view — full checksum, magic, and
    /// trailing-bytes validation, but the payload stays in the frame.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Command::decode`].
    pub fn decode_borrowed(frame: &[u8]) -> Result<CommandRef<'_>, WireError> {
        let body = checked_body(frame)?;
        let mut d = Decoder::new(body);
        let magic = d.get_u8()?;
        if magic != COMMAND_MAGIC {
            return Err(WireError::Truncated { wanted: "command magic", remaining: frame.len() });
        }
        let api = ApiId(d.get_u32()?);
        let seq = d.get_u64()?;
        let payload = d.get_bytes()?;
        d.finish()?;
        Ok(CommandRef { api, seq, payload })
    }

    /// Size of the encoded frame, used for transport cost accounting.
    pub fn encoded_len(&self) -> usize {
        COMMAND_FRAME_OVERHEAD + self.payload.len()
    }

    /// Best-effort recovery of the sequence number from a frame that may
    /// fail full decoding (e.g. a corrupted payload): the header
    /// `magic | api | seq` must be intact. Lets the daemon route a
    /// `Malformed` response back to the caller that sent the frame instead
    /// of desyncing a pipelined stub.
    pub fn peek_seq(frame: &[u8]) -> Option<u64> {
        if frame.len() < 13 || frame[0] != COMMAND_MAGIC {
            return None;
        }
        let mut d = Decoder::new(&frame[5..13]);
        d.get_u64().ok()
    }
}

/// A serialized result traveling daemon → kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the command's sequence number.
    pub seq: u64,
    /// Incarnation epoch of the daemon that produced this response.
    ///
    /// The daemon stamps every frame with the epoch it was serving under;
    /// after a crash/restart the supervisor bumps the epoch, and the call
    /// engine discards any response carrying a stale incarnation so an
    /// answer computed against dead user-space state can never be
    /// delivered. Epoch `0` is the primordial (never-restarted) daemon.
    pub epoch: u64,
    /// Call status.
    pub status: Status,
    /// Encoded results ("the return code and the pointer returned by the
    /// API call" — §4).
    pub payload: Bytes,
}

/// Borrowed view of a decoded response; see [`CommandRef`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseRef<'a> {
    /// Echo of the command's sequence number.
    pub seq: u64,
    /// Incarnation epoch of the responding daemon.
    pub epoch: u64,
    /// Call status.
    pub status: Status,
    /// Encoded results, borrowed from the frame.
    pub payload: &'a [u8],
}

impl ResponseRef<'_> {
    /// Copying fallback: detaches the payload from the frame.
    pub fn to_owned(&self) -> Response {
        perf::note_copy(self.payload.len());
        Response {
            seq: self.seq,
            epoch: self.epoch,
            status: self.status,
            payload: Bytes::copy_from_slice(self.payload),
        }
    }
}

impl Response {
    /// Encodes the response into a transmittable frame (checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encodes into `out`, reusing its allocation; see
    /// [`Command::encode_into`].
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let len = u32::try_from(self.payload.len()).expect("response payload too large");
        out.clear();
        out.reserve(self.encoded_len());
        out.push(RESPONSE_MAGIC);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.status.to_u32().to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        perf::note_copy(self.payload.len());
        seal_in_place(out);
    }

    /// Decodes a frame back into an owned response (copying fallback of
    /// [`Response::decode_borrowed`], same validation).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is truncated, corrupted
    /// (checksum mismatch), has the wrong magic, or carries trailing bytes.
    pub fn decode(frame: &[u8]) -> Result<Response, WireError> {
        Ok(Self::decode_borrowed(frame)?.to_owned())
    }

    /// Decodes a frame into a borrowed view — full validation, payload
    /// stays in the frame.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Response::decode`].
    pub fn decode_borrowed(frame: &[u8]) -> Result<ResponseRef<'_>, WireError> {
        let body = checked_body(frame)?;
        let mut d = Decoder::new(body);
        let magic = d.get_u8()?;
        if magic != RESPONSE_MAGIC {
            return Err(WireError::Truncated { wanted: "response magic", remaining: frame.len() });
        }
        let seq = d.get_u64()?;
        let epoch = d.get_u64()?;
        let status = Status::from_u32(d.get_u32()?);
        let payload = d.get_bytes()?;
        d.finish()?;
        Ok(ResponseRef { seq, epoch, status, payload })
    }

    /// Size of the encoded frame.
    pub fn encoded_len(&self) -> usize {
        1 + 8 + 8 + 4 + 4 + self.payload.len() + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrip() {
        let cmd = Command { api: ApiId(42), seq: 7, payload: Bytes::from_static(b"args") };
        let frame = cmd.encode();
        assert_eq!(frame.len(), cmd.encoded_len());
        assert_eq!(Command::decode(&frame).unwrap(), cmd);
    }

    #[test]
    fn response_roundtrip_all_statuses() {
        for status in [
            Status::Ok,
            Status::UnknownApi,
            Status::Malformed,
            Status::ResponseTooLarge,
            Status::VendorError(3),
        ] {
            let r = Response { seq: 9, epoch: 3, status, payload: Bytes::from_static(&[1, 2]) };
            let frame = r.encode();
            assert_eq!(frame.len(), r.encoded_len());
            assert_eq!(Response::decode(&frame).unwrap(), r);
        }
    }

    #[test]
    fn response_epoch_survives_roundtrip() {
        for epoch in [0u64, 1, 42, u64::MAX] {
            let r = Response { seq: 1, epoch, status: Status::Ok, payload: Bytes::new() };
            assert_eq!(Response::decode(&r.encode()).unwrap().epoch, epoch);
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let cmd = Command { api: ApiId(1), seq: 1, payload: Bytes::new() };
        let frame = cmd.encode();
        assert!(Response::decode(&frame).is_err());
        let resp = Response { seq: 1, epoch: 0, status: Status::Ok, payload: Bytes::new() };
        assert!(Command::decode(&resp.encode()).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let cmd = Command { api: ApiId(1), seq: 1, payload: Bytes::from_static(&[0; 32]) };
        let frame = cmd.encode();
        assert!(Command::decode(&frame[..frame.len() - 1]).is_err());
        assert!(Command::decode(&[]).is_err());
    }

    #[test]
    fn status_vendor_code_roundtrip() {
        let s = Status::VendorError(77);
        assert_eq!(Status::from_u32(s.to_u32()), s);
        assert!(!s.is_ok());
        assert!(Status::Ok.is_ok());
    }

    #[test]
    fn corrupted_frame_is_detected_by_checksum() {
        let cmd = Command { api: ApiId(5), seq: 99, payload: Bytes::from_static(&[1, 2, 3, 4]) };
        let mut frame = cmd.encode();
        // Flip one payload bit: without the trailer this decoded "cleanly"
        // into a garbled command; now it is classified as corruption.
        frame[15] ^= 0x01;
        assert!(matches!(Command::decode(&frame), Err(WireError::ChecksumMismatch { .. })));

        let resp = Response {
            seq: 99,
            epoch: 1,
            status: Status::Ok,
            payload: Bytes::from_static(&[9, 9]),
        };
        let mut rframe = resp.encode();
        rframe[14] ^= 0x80;
        assert!(matches!(Response::decode(&rframe), Err(WireError::ChecksumMismatch { .. })));
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let mut buf = Vec::new();
        // Shrinking payloads exercise the clear-then-write path: stale bytes
        // from a longer earlier frame must never leak into a shorter one.
        for len in [64usize, 7, 0, 33] {
            let cmd =
                Command { api: ApiId(9), seq: len as u64, payload: Bytes::from(vec![0xAB; len]) };
            cmd.encode_into(&mut buf);
            assert_eq!(buf, cmd.encode());
            assert_eq!(buf.len(), cmd.encoded_len());

            let resp = Response {
                seq: len as u64,
                epoch: 2,
                status: Status::Ok,
                payload: Bytes::from(vec![0xCD; len]),
            };
            resp.encode_into(&mut buf);
            assert_eq!(buf, resp.encode());
            assert_eq!(buf.len(), resp.encoded_len());
        }
    }

    #[test]
    fn borrowed_decode_matches_owned_and_points_into_frame() {
        let cmd = Command { api: ApiId(17), seq: 5, payload: Bytes::from_static(b"payload!") };
        let frame = cmd.encode();
        let view = Command::decode_borrowed(&frame).unwrap();
        assert_eq!(view.to_owned(), cmd);
        // The borrowed payload aliases the frame, not a copy.
        let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        assert!(frame_range.contains(&(view.payload.as_ptr() as usize)));

        let resp = Response {
            seq: 5,
            epoch: 1,
            status: Status::VendorError(2),
            payload: Bytes::from_static(b"ret"),
        };
        let rframe = resp.encode();
        let rview = Response::decode_borrowed(&rframe).unwrap();
        assert_eq!(rview.to_owned(), resp);
        let rframe_range = rframe.as_ptr() as usize..rframe.as_ptr() as usize + rframe.len();
        assert!(rframe_range.contains(&(rview.payload.as_ptr() as usize)));
    }

    #[test]
    fn borrowed_decode_rejects_corrupt_frames_like_owned() {
        let cmd = Command { api: ApiId(5), seq: 99, payload: Bytes::from_static(&[1, 2, 3, 4]) };
        let mut frame = cmd.encode();
        frame[15] ^= 0x01;
        assert!(matches!(
            Command::decode_borrowed(&frame),
            Err(WireError::ChecksumMismatch { .. })
        ));
        assert!(Command::decode_borrowed(&frame[..3]).is_err());

        let resp =
            Response { seq: 9, epoch: 0, status: Status::Ok, payload: Bytes::from_static(&[8; 8]) };
        let mut rframe = resp.encode();
        rframe[14] ^= 0x80;
        assert!(matches!(
            Response::decode_borrowed(&rframe),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn peek_seq_recovers_from_payload_corruption() {
        let cmd =
            Command { api: ApiId(3), seq: 0xDEAD_BEEF, payload: Bytes::from_static(&[7; 16]) };
        let mut frame = cmd.encode();
        // Garble the payload length prefix: full decode fails, header survives.
        frame[13] ^= 0xFF;
        assert!(Command::decode(&frame).is_err());
        assert_eq!(Command::peek_seq(&frame), Some(0xDEAD_BEEF));
        // A frame too short for the header, or with the wrong magic, yields None.
        assert_eq!(Command::peek_seq(&frame[..12]), None);
        let mut bad_magic = cmd.encode();
        bad_magic[0] = 0x00;
        assert_eq!(Command::peek_seq(&bad_magic), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_command() -> impl Strategy<Value = Command> {
        (any::<u32>(), 0..u64::MAX, proptest::collection::vec(any::<u8>(), 0..128)).prop_map(
            |(api, seq, payload)| Command { api: ApiId(api), seq, payload: Bytes::from(payload) },
        )
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        (0..u64::MAX, any::<u64>(), 0u32..0x2000, proptest::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(seq, epoch, status, payload)| Response {
                seq,
                epoch,
                status: Status::from_u32(status),
                payload: Bytes::from(payload),
            })
    }

    proptest! {
        /// Bit-flipping a valid command frame never panics the decoder,
        /// and the result is classified correctly: with the checksum
        /// trailer, essentially every flip is rejected as a WireError; in
        /// the (astronomically unlikely) event a mutated frame is accepted,
        /// it must at least be self-consistent.
        #[test]
        fn command_decode_survives_bit_flips(cmd in arb_command(), bit in 0usize..4096) {
            let mut frame = cmd.encode();
            let bit = bit % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            match Command::decode(&frame) {
                Err(_) => {} // rejected: fine
                Ok(got) => {
                    // Accepted frames must re-encode to exactly the mutated
                    // bytes — no silent reinterpretation.
                    prop_assert_eq!(got.encode(), frame);
                }
            }
        }

        /// Truncating a valid command frame at any point is always an error
        /// (never a panic, never a short-but-accepted decode).
        #[test]
        fn command_decode_rejects_truncation(cmd in arb_command(), cut in 0usize..4096) {
            let frame = cmd.encode();
            let cut = cut % frame.len();
            prop_assert!(Command::decode(&frame[..cut]).is_err());
        }

        /// Same bit-flip robustness for responses.
        #[test]
        fn response_decode_survives_bit_flips(resp in arb_response(), bit in 0usize..4096) {
            let mut frame = resp.encode();
            let bit = bit % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            match Response::decode(&frame) {
                Err(_) => {}
                // The status mapping is lossy (unknown codes collapse into
                // VendorError), so exact byte re-encode isn't guaranteed —
                // but one decode/encode round trip must be a fixpoint.
                Ok(got) => {
                    let redecoded = Response::decode(&got.encode()).unwrap();
                    prop_assert_eq!(redecoded, got);
                }
            }
        }

        /// Same truncation robustness for responses.
        #[test]
        fn response_decode_rejects_truncation(resp in arb_response(), cut in 0usize..4096) {
            let frame = resp.encode();
            let cut = cut % frame.len();
            prop_assert!(Response::decode(&frame[..cut]).is_err());
        }

        /// peek_seq agrees with full decode whenever full decode succeeds.
        #[test]
        fn peek_seq_consistent_with_decode(cmd in arb_command()) {
            let frame = cmd.encode();
            prop_assert_eq!(Command::peek_seq(&frame), Some(cmd.seq));
        }

        /// Borrowed and owned decode agree verdict-for-verdict on arbitrary
        /// frames (valid or bit-flipped), and encode_into is byte-identical
        /// to encode even when the buffer carries a stale longer frame.
        #[test]
        fn borrowed_decode_equals_owned(cmd in arb_command(), bit in 0usize..4096) {
            let mut frame = cmd.encode();
            let bit = bit % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            match (Command::decode_borrowed(&frame), Command::decode(&frame)) {
                (Ok(view), Ok(owned)) => prop_assert_eq!(view.to_owned(), owned),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "decode disagreement: {:?} vs {:?}", a, b),
            }
            let mut buf = vec![0xEE; 4096];
            cmd.encode_into(&mut buf);
            prop_assert_eq!(buf, cmd.encode());
        }

        /// Same borrowed/owned agreement for responses.
        #[test]
        fn response_borrowed_decode_equals_owned(resp in arb_response(), bit in 0usize..4096) {
            let mut frame = resp.encode();
            let bit = bit % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            match (Response::decode_borrowed(&frame), Response::decode(&frame)) {
                (Ok(view), Ok(owned)) => prop_assert_eq!(view.to_owned(), owned),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "decode disagreement: {:?} vs {:?}", a, b),
            }
            let mut buf = vec![0xEE; 4096];
            resp.encode_into(&mut buf);
            prop_assert_eq!(buf, resp.encode());
        }
    }
}
