//! Delta application (decompression).

use bytes::Buf;

use crate::encode::Delta;
use crate::inst::{read_insts, Inst};
use crate::strong::fnv1a;

/// Why a delta failed to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The provided source length does not match the delta's header.
    SourceLenMismatch {
        /// Length recorded in the delta header.
        expected: u64,
        /// Length of the source actually provided.
        actual: u64,
    },
    /// The instruction stream is malformed (bad opcode, truncation).
    MalformedPayload,
    /// A COPY range falls outside the source.
    CopyOutOfRange {
        /// Offset requested by the instruction.
        src_off: u64,
        /// Length requested by the instruction.
        len: u64,
    },
    /// Reconstructed target length differs from the header.
    TargetLenMismatch {
        /// Length recorded in the delta header.
        expected: u64,
        /// Length actually produced.
        actual: u64,
    },
    /// Reconstructed target checksum differs from the header (corruption).
    ChecksumMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::SourceLenMismatch { expected, actual } => {
                write!(
                    f,
                    "source length mismatch: header says {expected}, got {actual}"
                )
            }
            DecodeError::MalformedPayload => write!(f, "malformed delta payload"),
            DecodeError::CopyOutOfRange { src_off, len } => {
                write!(f, "COPY [{src_off}, +{len}) out of source range")
            }
            DecodeError::TargetLenMismatch { expected, actual } => {
                write!(
                    f,
                    "target length mismatch: header says {expected}, produced {actual}"
                )
            }
            DecodeError::ChecksumMismatch => write!(f, "target checksum mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Apply `delta` to `source`, reconstructing the target buffer.
///
/// Validates source length, every COPY range, the reconstructed length, and
/// the FNV checksum — a corrupted delta is detected, never silently applied.
pub fn decode(source: &[u8], delta: &Delta) -> Result<Vec<u8>, DecodeError> {
    if source.len() as u64 != delta.source_len {
        return Err(DecodeError::SourceLenMismatch {
            expected: delta.source_len,
            actual: source.len() as u64,
        });
    }
    let mut buf = delta.payload.clone();
    let insts = read_insts(&mut buf).ok_or(DecodeError::MalformedPayload)?;
    if buf.has_remaining() {
        return Err(DecodeError::MalformedPayload);
    }

    // The instructions fix the output length. Check every COPY range and
    // the total against the header before reserving anything, so the
    // reservation is what the instruction stream actually produces, never
    // a corrupt header's declared length.
    let mut produced: u64 = 0;
    for inst in &insts {
        let len = match inst {
            Inst::Copy { src_off, len } => {
                let in_range = src_off
                    .checked_add(*len)
                    .is_some_and(|end| end <= source.len() as u64);
                if !in_range {
                    return Err(DecodeError::CopyOutOfRange {
                        src_off: *src_off,
                        len: *len,
                    });
                }
                *len
            }
            Inst::Add(data) => data.len() as u64,
        };
        produced = produced.saturating_add(len);
    }
    let target_len = usize::try_from(produced)
        .ok()
        .filter(|_| produced == delta.target_len)
        .ok_or(DecodeError::TargetLenMismatch {
            expected: delta.target_len,
            actual: produced,
        })?;

    let mut out = Vec::with_capacity(target_len);
    for inst in &insts {
        match inst {
            Inst::Copy { src_off, len } => {
                out.extend_from_slice(&source[*src_off as usize..(src_off + len) as usize]);
            }
            Inst::Add(data) => out.extend_from_slice(data),
        }
    }

    if fnv1a(&out) != delta.target_checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, EncodeParams};
    use bytes::{BufMut, Bytes, BytesMut};

    #[test]
    fn wrong_source_rejected() {
        let delta = encode(b"source!!", b"target", &EncodeParams::default());
        let err = decode(b"other", &delta).unwrap_err();
        assert!(matches!(err, DecodeError::SourceLenMismatch { .. }));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut delta = encode(
            b"abcdabcd",
            b"abcdabcd",
            &EncodeParams {
                block_size: 4,
                max_probe: 4,
            },
        );
        let mut corrupt = BytesMut::from(&delta.payload[..]);
        if !corrupt.is_empty() {
            corrupt[0] = 0xFF;
        }
        delta.payload = corrupt.freeze();
        assert!(decode(b"abcdabcd", &delta).is_err());
    }

    #[test]
    fn copy_out_of_range_rejected() {
        use crate::inst::{write_insts, Inst};
        let mut payload = BytesMut::new();
        write_insts(
            &[Inst::Copy {
                src_off: 0,
                len: 100,
            }],
            &mut payload,
        );
        let delta = crate::encode::Delta {
            source_len: 8,
            target_len: 100,
            target_checksum: 0,
            payload: payload.freeze(),
        };
        let err = decode(b"12345678", &delta).unwrap_err();
        assert!(matches!(err, DecodeError::CopyOutOfRange { .. }));
    }

    #[test]
    fn checksum_mismatch_detected() {
        let mut delta = encode(b"hello world", b"hello there", &EncodeParams::default());
        delta.target_checksum ^= 1;
        let err = decode(b"hello world", &delta).unwrap_err();
        assert_eq!(err, DecodeError::ChecksumMismatch);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut delta = encode(b"aaaa", b"aaaa", &EncodeParams::default());
        let mut payload = BytesMut::from(&delta.payload[..]);
        payload.put_u8(0x00);
        delta.payload = payload.freeze();
        assert_eq!(
            decode(b"aaaa", &delta).unwrap_err(),
            DecodeError::MalformedPayload
        );
    }

    #[test]
    fn target_len_mismatch_detected() {
        let mut delta = encode(b"abc", b"abc", &EncodeParams::default());
        delta.target_len += 1;
        let err = decode(b"abc", &delta).unwrap_err();
        assert!(matches!(err, DecodeError::TargetLenMismatch { .. }));
    }

    #[test]
    fn huge_declared_target_len_is_an_error_not_a_reservation() {
        // A header declaring a ~2^63-byte target over a 3-byte delta: the
        // decoder must not reserve the declared length.
        for target_len in [1u64 << 62, (1u64 << 63) + 7, u64::MAX] {
            let mut delta = encode(b"abc", b"abc", &EncodeParams::default());
            delta.target_len = target_len;
            assert_eq!(
                decode(b"abc", &delta).unwrap_err(),
                DecodeError::TargetLenMismatch {
                    expected: target_len,
                    actual: 3,
                }
            );
        }
    }

    #[test]
    fn empty_everything() {
        let delta = crate::encode::Delta {
            source_len: 0,
            target_len: 0,
            target_checksum: crate::strong::fnv1a(b""),
            payload: {
                let mut b = BytesMut::new();
                crate::inst::write_insts(&[], &mut b);
                b.freeze()
            },
        };
        assert_eq!(decode(b"", &delta).unwrap(), Vec::<u8>::new());
        let _ = Bytes::new(); // silence unused import path in some cfgs
    }
}
