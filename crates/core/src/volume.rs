//! Volumes: multiple tenants over one array (§5.5 resource sharing).
//!
//! "An enterprise storage server may have tens of drives, and thus there is
//! a chance that multiple dRAID bdevs are co-located on the same storage
//! server" — the array's capacity is carved into stripe-aligned volumes,
//! each with its own byte space, statistics, and optional token-bucket I/O
//! budget ("a QoS controller needs to implement rate limiting at run-time to
//! ensure that a tenant does not exceed its I/O budget").

use std::collections::HashMap;

use draid_block::TokenBucket;
use draid_sim::{Engine, SimTime};

use crate::array::ArraySim;
use crate::io::{IoId, IoKind, UserIo};
use crate::stats::ArrayStats;

/// Identifies a volume on the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(pub u32);

pub(crate) struct Volume {
    pub name: String,
    /// First device byte of the volume (stripe-aligned).
    pub base: u64,
    /// Usable bytes.
    pub capacity: u64,
    /// Optional per-tenant bandwidth budget applied at admission.
    pub limiter: Option<TokenBucket>,
    /// Per-volume statistics.
    pub stats: ArrayStats,
}

/// Errors from volume operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VolumeError {
    /// The I/O extends past the volume's capacity.
    OutOfBounds {
        /// Requested end offset.
        end: u64,
        /// The volume's capacity.
        capacity: u64,
    },
    /// No such volume.
    UnknownVolume(VolumeId),
}

impl std::fmt::Display for VolumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VolumeError::OutOfBounds { end, capacity } => {
                write!(f, "I/O ends at {end} beyond volume capacity {capacity}")
            }
            VolumeError::UnknownVolume(id) => write!(f, "unknown volume {id:?}"),
        }
    }
}

impl std::error::Error for VolumeError {}

impl ArraySim {
    /// Carves a stripe-aligned volume of at least `capacity` bytes from the
    /// array's unallocated space and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn create_volume(&mut self, name: impl Into<String>, capacity: u64) -> VolumeId {
        assert!(capacity > 0, "empty volume");
        let stripe = self.layout.stripe_data_bytes();
        let rounded = capacity.div_ceil(stripe) * stripe;
        let base = self.volume_cursor;
        self.volume_cursor += rounded;
        let id = VolumeId(self.volumes.len() as u32);
        self.volumes.insert(
            id,
            Volume {
                name: name.into(),
                base,
                capacity: rounded,
                limiter: None,
                stats: ArrayStats::new(),
            },
        );
        id
    }

    /// Installs (or clears) a per-volume bandwidth budget; admissions beyond
    /// the budget are delayed, not rejected.
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn set_volume_limit(&mut self, volume: VolumeId, limiter: Option<TokenBucket>) {
        self.volumes
            .get_mut(&volume)
            .expect("unknown volume")
            .limiter = limiter;
    }

    /// The volume's capacity in bytes (stripe-rounded).
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_capacity(&self, volume: VolumeId) -> u64 {
        self.volumes.get(&volume).expect("unknown volume").capacity
    }

    /// Per-volume statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_stats(&self, volume: VolumeId) -> &ArrayStats {
        &self.volumes.get(&volume).expect("unknown volume").stats
    }

    /// The volume's human-readable name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_name(&self, volume: VolumeId) -> &str {
        &self.volumes.get(&volume).expect("unknown volume").name
    }

    /// Submits an I/O against a volume: offsets are volume-relative, bounds
    /// are enforced, and the tenant's token bucket (if any) delays admission
    /// past its budget.
    ///
    /// # Errors
    ///
    /// [`VolumeError::OutOfBounds`] if the I/O exceeds the volume;
    /// [`VolumeError::UnknownVolume`] for a bad id.
    pub fn submit_to_volume(
        &mut self,
        eng: &mut Engine<ArraySim>,
        volume: VolumeId,
        mut io: UserIo,
    ) -> Result<IoId, VolumeError> {
        let now = eng.now();
        let (base, admit_at) = {
            let vol = self
                .volumes
                .get_mut(&volume)
                .ok_or(VolumeError::UnknownVolume(volume))?;
            let end = io.offset + io.len;
            if end > vol.capacity {
                return Err(VolumeError::OutOfBounds {
                    end,
                    capacity: vol.capacity,
                });
            }
            let admit_at = match &mut vol.limiter {
                Some(bucket) => bucket.admit(now, io.len),
                None => now,
            };
            (vol.base, admit_at)
        };
        io.offset += base;
        let id = if admit_at <= now {
            self.submit_tagged(eng, io, volume)
        } else {
            // Budget exceeded: the admission is shaped to the tenant's rate,
            // unless the controller holding it crashes first.
            let (reserved, epoch) = (self.reserve_io_id(), self.host_epoch);
            eng.schedule_at(admit_at, move |w: &mut ArraySim, eng| {
                if w.host_epoch == epoch {
                    w.submit_reserved(eng, reserved, io, Some(volume), now);
                }
            });
            IoId(reserved)
        };
        Ok(id)
    }

    fn submit_tagged(&mut self, eng: &mut Engine<ArraySim>, io: UserIo, volume: VolumeId) -> IoId {
        let id = self.submit(eng, io);
        self.tag_volume(id.0, volume);
        id
    }

    pub(crate) fn tag_volume(&mut self, user: u64, volume: VolumeId) {
        self.user_volumes.insert(user, volume);
    }

    /// Folds a completed user I/O into its volume's statistics.
    pub(crate) fn account_volume(
        &mut self,
        user: u64,
        kind: IoKind,
        len: u64,
        latency: SimTime,
        ok: bool,
    ) {
        let Some(volume) = self.user_volumes.remove(&user) else {
            return;
        };
        let Some(vol) = self.volumes.get_mut(&volume) else {
            return;
        };
        if !ok {
            vol.stats.failed_ios += 1;
            return;
        }
        match kind {
            IoKind::Read => {
                vol.stats.reads += 1;
                vol.stats.bytes_read += len;
                vol.stats.read_latency.record(latency);
            }
            IoKind::Write => {
                vol.stats.writes += 1;
                vol.stats.bytes_written += len;
                vol.stats.write_latency.record(latency);
            }
        }
    }
}

pub(crate) type VolumeTable = HashMap<VolumeId, Volume>;
