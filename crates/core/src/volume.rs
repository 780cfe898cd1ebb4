//! Volumes: multiple tenants over one array (§5.5 resource sharing).
//!
//! "An enterprise storage server may have tens of drives, and thus there is
//! a chance that multiple dRAID bdevs are co-located on the same storage
//! server" — the array's capacity is carved into stripe-aligned volumes,
//! each with its own byte space, statistics, and optional token-bucket I/O
//! budget ("a QoS controller needs to implement rate limiting at run-time to
//! ensure that a tenant does not exceed its I/O budget").

use draid_block::TokenBucket;
use draid_sim::Engine;

use crate::array::ArraySim;
use crate::io::{IoId, UserIo};
use crate::stats::ArrayStats;

/// Identifies a volume on the array: its index in creation order.
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
        self.volumes.push(Volume {
            name: name.into(),
            base,
            capacity: rounded,
            limiter: None,
            stats: ArrayStats::new(),
        });
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
            .get_mut(volume.0 as usize)
            .expect("unknown volume")
            .limiter = limiter;
    }

    /// The volume's capacity in bytes (stripe-rounded).
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_capacity(&self, volume: VolumeId) -> u64 {
        self.volume(volume).capacity
    }

    /// Per-volume statistics.
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_stats(&self, volume: VolumeId) -> &ArrayStats {
        &self.volume(volume).stats
    }

    /// The volume's human-readable name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown volume.
    pub fn volume_name(&self, volume: VolumeId) -> &str {
        &self.volume(volume).name
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
                .get_mut(volume.0 as usize)
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
        let id = self.reserve_io_id();
        if admit_at <= now {
            self.submit_reserved(eng, id, io, None, Some(volume), now);
        } else {
            // Budget exceeded: the admission is shaped to the tenant's rate,
            // unless the controller holding it crashes first.
            let epoch = self.host_epoch;
            eng.schedule_at(admit_at, move |w: &mut ArraySim, eng| {
                if w.host_epoch == epoch {
                    w.submit_reserved(eng, id, io, None, Some(volume), now);
                }
            });
        }
        Ok(IoId(id))
    }

    fn volume(&self, volume: VolumeId) -> &Volume {
        self.volumes.get(volume.0 as usize).expect("unknown volume")
    }
}
