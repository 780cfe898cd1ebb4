//! The dRAID protocol: a compatible extension of the NVMe-oF command capsule
//! (§4, Fig. 5).
//!
//! dRAID extends three fields of NVMe-oF: **opcode** (four new operations),
//! **command parameters** (`subtype`, `fwd-offset`, `fwd-length`,
//! `next-dest`, `wait-num`, `num-sge`/`sg-list`), and **other command data**
//! (RAID-6's second destination and GF coefficient index, carried only when a
//! Q parity exists). This module defines the capsule type and a compact wire
//! codec; the simulated server-side controller consumes [`Command`] values
//! directly, and the codec exists so the format is pinned down and testable.

use crate::layout::WriteMode;

/// Command opcodes: the NVMe-oF base operations plus dRAID's four extensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard NVMe-oF read.
    Read,
    /// Standard NVMe-oF write.
    Write,
    /// dRAID: execute a partial-stripe write leg on a data bdev
    /// (Algorithm 1).
    PartialWrite,
    /// dRAID: prepare and run parity reduction on the parity bdev
    /// (Algorithm 2).
    Parity,
    /// dRAID: participate in data reconstruction (degraded read, §6.1).
    Reconstruction,
    /// dRAID: bdev-to-bdev delivery of a partial result.
    Peer,
}

impl Opcode {
    fn to_byte(self) -> u8 {
        match self {
            Opcode::Read => 0x02,
            Opcode::Write => 0x01,
            Opcode::PartialWrite => 0x80,
            Opcode::Parity => 0x81,
            Opcode::Reconstruction => 0x82,
            Opcode::Peer => 0x83,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x02 => Opcode::Read,
            0x01 => Opcode::Write,
            0x80 => Opcode::PartialWrite,
            0x81 => Opcode::Parity,
            0x82 => Opcode::Reconstruction,
            0x83 => Opcode::Peer,
            _ => return None,
        })
    }
}

/// Subtype parameter: different behaviours for the same opcode (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subtype {
    /// Read-modify-write: read old data, XOR with new (Algorithm 1 l.2–4).
    Rmw,
    /// Reconstruct write, written chunk: partial parity is drive data
    /// concatenated with the new segment (Algorithm 1 l.5–6).
    RwWrite,
    /// Reconstruct write, untouched chunk: partial parity is drive data
    /// (Algorithm 1 l.7–8).
    RwRead,
    /// Degraded read where this bdev's chunk is also requested normally
    /// (§6.1: combine the drive reads, decouple the return paths).
    AlsoRead,
    /// Degraded read where this bdev only contributes to reconstruction.
    NoRead,
}

impl Subtype {
    /// The subtype a `PartialWrite` carries for each write mode.
    ///
    /// # Panics
    ///
    /// Panics for [`WriteMode::FullStripe`] — full-stripe writes use plain
    /// NVMe-oF `Write` with host-computed parity (§3).
    pub fn for_write_mode(mode: WriteMode, touched: bool) -> Subtype {
        match (mode, touched) {
            (WriteMode::ReadModifyWrite, _) => Subtype::Rmw,
            (WriteMode::ReconstructWrite, true) => Subtype::RwWrite,
            (WriteMode::ReconstructWrite, false) => Subtype::RwRead,
            (WriteMode::FullStripe, _) => {
                panic!("full-stripe writes use the base Write opcode")
            }
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            Subtype::Rmw => 0,
            Subtype::RwWrite => 1,
            Subtype::RwRead => 2,
            Subtype::AlsoRead => 3,
            Subtype::NoRead => 4,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => Subtype::Rmw,
            1 => Subtype::RwWrite,
            2 => Subtype::RwRead,
            3 => Subtype::AlsoRead,
            4 => Subtype::NoRead,
            _ => return None,
        })
    }
}

/// A destination bdev for forwarded partial results, named by member index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dest {
    /// Member index of the destination bdev within the array.
    pub member: u32,
}

/// A dRAID command capsule (Fig. 5). Fields unused by an opcode are zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Command {
    /// Command identifier, echoed in callbacks.
    pub id: u64,
    /// Operation.
    pub opcode: Opcode,
    /// Namespace (virtual array) identifier.
    pub nsid: u32,
    /// Behaviour variant.
    pub subtype: Option<Subtype>,
    /// Offset of the drive I/O within the member chunk.
    pub offset: u64,
    /// Length of the drive I/O.
    pub length: u64,
    /// Offset of the forwarded segment (may differ from `offset` when only
    /// part of a chunk is updated, §5.1).
    pub fwd_offset: u64,
    /// Length of the forwarded segment.
    pub fwd_length: u64,
    /// Destination of the forwarded partial result (the P bdev or the
    /// degraded-read reducer).
    pub next_dest: Option<Dest>,
    /// How many partial results the receiver must expect before completing
    /// (set on `Parity`/`Reconstruction` toward the reducer).
    pub wait_num: u32,
    /// RAID-6 only ("other command data"): second forward destination (the Q
    /// bdev).
    pub next_dest2: Option<Dest>,
    /// RAID-6 only: this chunk's data index, i.e. the exponent of the GF
    /// coefficient `g^data_idx` applied to the partial Q term.
    pub data_idx: u32,
}

impl Command {
    /// Serialized capsule size on the wire. The base NVMe-oF capsule is 64
    /// bytes; dRAID extensions ride in the reserved/command-parameter space,
    /// and RAID-6 adds 16 bytes of "other command data".
    pub fn wire_size(&self) -> u64 {
        if self.next_dest2.is_some() {
            80
        } else {
            64
        }
    }

    /// Encodes the capsule to bytes (fixed little-endian layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size() as usize);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.opcode.to_byte());
        out.push(self.subtype.map_or(0xFF, Subtype::to_byte));
        out.extend_from_slice(&[0u8; 2]); // reserved
        out.extend_from_slice(&self.nsid.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.length.to_le_bytes());
        out.extend_from_slice(&self.fwd_offset.to_le_bytes());
        out.extend_from_slice(&self.fwd_length.to_le_bytes());
        out.extend_from_slice(&self.next_dest.map_or(u32::MAX, |d| d.member).to_le_bytes());
        out.extend_from_slice(&self.wait_num.to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // buffer address (unused in simulation)
        if let Some(d2) = self.next_dest2 {
            out.extend_from_slice(&d2.member.to_le_bytes());
            out.extend_from_slice(&self.data_idx.to_le_bytes());
            out.extend_from_slice(&[0u8; 8]); // reserved for Q parameters
        }
        debug_assert_eq!(out.len() as u64, self.wire_size());
        out
    }

    /// Decodes a capsule previously produced by [`Command::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn decode(buf: &[u8]) -> Result<Command, String> {
        if buf.len() != 64 && buf.len() != 80 {
            return Err(format!("capsule must be 64 or 80 bytes, got {}", buf.len()));
        }
        let u64_at = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
        let u32_at = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("4 bytes"));
        let opcode =
            Opcode::from_byte(buf[8]).ok_or_else(|| format!("bad opcode {:#x}", buf[8]))?;
        let subtype = if buf[9] == 0xFF {
            None
        } else {
            Some(Subtype::from_byte(buf[9]).ok_or_else(|| format!("bad subtype {}", buf[9]))?)
        };
        let next_dest = match u32_at(48) {
            u32::MAX => None,
            m => Some(Dest { member: m }),
        };
        let (next_dest2, data_idx) = if buf.len() == 80 {
            (Some(Dest { member: u32_at(64) }), u32_at(68))
        } else {
            (None, 0)
        };
        Ok(Command {
            id: u64_at(0),
            opcode,
            nsid: u32_at(12),
            subtype,
            offset: u64_at(16),
            length: u64_at(24),
            fwd_offset: u64_at(32),
            fwd_length: u64_at(40),
            next_dest,
            wait_num: u32_at(52),
            next_dest2,
            data_idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline NVMe-oF read capsule: no dRAID field set.
    fn nvme_read(id: u64, offset: u64, length: u64) -> Command {
        Command {
            id,
            opcode: Opcode::Read,
            nsid: 0,
            subtype: None,
            offset,
            length,
            fwd_offset: 0,
            fwd_length: 0,
            next_dest: None,
            wait_num: 0,
            next_dest2: None,
            data_idx: 0,
        }
    }

    #[test]
    fn nvme_capsules_are_64_bytes() {
        let c = nvme_read(1, 4096, 128 * 1024);
        assert_eq!(c.wire_size(), 64);
        assert_eq!(c.encode().len(), 64);
    }

    #[test]
    fn raid6_extension_adds_other_command_data() {
        let mut c = nvme_read(2, 0, 512 * 1024);
        c.opcode = Opcode::PartialWrite;
        c.subtype = Some(Subtype::Rmw);
        c.next_dest = Some(Dest { member: 7 });
        c.next_dest2 = Some(Dest { member: 0 });
        c.data_idx = 3;
        assert_eq!(c.wire_size(), 80);
    }

    #[test]
    fn encode_decode_roundtrip_all_opcodes() {
        for (op, st) in [
            (Opcode::Read, None),
            (Opcode::Write, None),
            (Opcode::PartialWrite, Some(Subtype::Rmw)),
            (Opcode::PartialWrite, Some(Subtype::RwWrite)),
            (Opcode::Parity, Some(Subtype::Rmw)),
            (Opcode::Reconstruction, Some(Subtype::AlsoRead)),
            (Opcode::Reconstruction, Some(Subtype::NoRead)),
            (Opcode::Peer, None),
        ] {
            let c = Command {
                id: 0xDEAD_BEEF,
                opcode: op,
                nsid: 5,
                subtype: st,
                offset: 123,
                length: 456,
                fwd_offset: 78,
                fwd_length: 90,
                next_dest: Some(Dest { member: 3 }),
                wait_num: 4,
                next_dest2: None,
                data_idx: 0,
            };
            assert_eq!(Command::decode(&c.encode()).expect("roundtrip"), c);
        }
    }

    #[test]
    fn encode_decode_roundtrip_raid6() {
        let c = Command {
            id: 9,
            opcode: Opcode::PartialWrite,
            nsid: 1,
            subtype: Some(Subtype::RwWrite),
            offset: 0,
            length: 524_288,
            fwd_offset: 0,
            fwd_length: 524_288,
            next_dest: Some(Dest { member: 6 }),
            wait_num: 0,
            next_dest2: Some(Dest { member: 7 }),
            data_idx: 2,
        };
        assert_eq!(Command::decode(&c.encode()).expect("roundtrip"), c);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Command::decode(&[0u8; 10]).is_err());
        let mut buf = nvme_read(1, 0, 1).encode();
        buf[8] = 0x77; // invalid opcode
        assert!(Command::decode(&buf).is_err());
    }

    #[test]
    fn subtype_selection_by_write_mode() {
        assert_eq!(
            Subtype::for_write_mode(WriteMode::ReadModifyWrite, true),
            Subtype::Rmw
        );
        assert_eq!(
            Subtype::for_write_mode(WriteMode::ReconstructWrite, true),
            Subtype::RwWrite
        );
        assert_eq!(
            Subtype::for_write_mode(WriteMode::ReconstructWrite, false),
            Subtype::RwRead
        );
    }

    #[test]
    #[should_panic(expected = "full-stripe")]
    fn full_stripe_has_no_partial_subtype() {
        Subtype::for_write_mode(WriteMode::FullStripe, true);
    }
}
