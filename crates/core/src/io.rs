//! User-facing I/O types of the virtual block device.

use bytes::Bytes;
use draid_sim::SimTime;

/// Identifies a user I/O submitted to the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoId(pub u64);

/// Direction of a user I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Read from the virtual device.
    Read,
    /// Write to the virtual device.
    Write,
}

/// A block I/O against the virtual RAID device.
#[derive(Clone, Debug)]
pub struct UserIo {
    /// Direction.
    pub kind: IoKind,
    /// Logical byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Payload for writes in [`DataMode::Full`]; ignored for reads and in
    /// timing mode.
    ///
    /// [`DataMode::Full`]: crate::DataMode::Full
    pub data: Option<Bytes>,
}

impl UserIo {
    /// A read request.
    pub fn read(offset: u64, len: u64) -> Self {
        UserIo {
            kind: IoKind::Read,
            offset,
            len,
            data: None,
        }
    }

    /// A write request without payload (timing mode).
    pub fn write(offset: u64, len: u64) -> Self {
        UserIo {
            kind: IoKind::Write,
            offset,
            len,
            data: None,
        }
    }

    /// A write request carrying real bytes (full data mode).
    ///
    /// # Panics
    ///
    /// Panics if the payload length differs from `len`.
    pub fn write_bytes(offset: u64, data: Bytes) -> Self {
        UserIo {
            kind: IoKind::Write,
            offset,
            len: data.len() as u64,
            data: Some(data),
        }
    }
}

/// Why a user I/O failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoError {
    /// Retry budget exhausted after repeated timeouts/errors.
    RetriesExhausted,
    /// More members failed than the RAID level tolerates.
    ArrayFailed,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::RetriesExhausted => write!(f, "retries exhausted"),
            IoError::ArrayFailed => write!(f, "array lost more members than the level tolerates"),
        }
    }
}

impl std::error::Error for IoError {}

/// Completion record of a user I/O.
#[derive(Clone, Debug)]
pub struct IoResult {
    /// The I/O's identifier.
    pub id: IoId,
    /// Direction.
    pub kind: IoKind,
    /// Logical byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Bytes returned by a read in full data mode: always `len` bytes,
    /// also when the read failed, where the ranges of the stripe ops that
    /// failed (or completed after the array failed) read as zeros. `None`
    /// for a write, for any I/O in timing mode, and for a read submitted to
    /// an array that had already failed. A read inside one healthy chunk
    /// shares that chunk's stored bytes: a later change to the chunk copies
    /// it first, so the result never changes, and a held result keeps the
    /// old chunk alive.
    pub data: Option<Bytes>,
    /// Failure, if the I/O could not be completed.
    pub error: Option<IoError>,
}

impl IoResult {
    /// End-to-end latency.
    pub fn latency(&self) -> SimTime {
        self.completed.saturating_sub(self.submitted)
    }

    /// Whether the I/O succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = UserIo::read(4096, 8192);
        assert_eq!(r.kind, IoKind::Read);
        let w = UserIo::write_bytes(0, Bytes::from_static(b"abcd"));
        assert_eq!(w.len, 4);
        assert!(w.data.is_some());
    }

    #[test]
    fn latency_math() {
        let res = IoResult {
            id: IoId(1),
            kind: IoKind::Read,
            offset: 0,
            len: 1,
            submitted: SimTime::from_micros(10),
            completed: SimTime::from_micros(35),
            data: None,
            error: None,
        };
        assert_eq!(res.latency(), SimTime::from_micros(25));
        assert!(res.is_ok());
    }
}
