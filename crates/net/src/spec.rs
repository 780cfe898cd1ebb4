//! NIC goodputs of the paper's testbed.

use draid_sim::ByteRate;

/// Goodput of the ConnectX-5 Ex 100 Gbps NIC, per direction (full duplex):
/// each CloudLab c6525-100g node of the testbed has one, and the paper
/// measures ~92 Gbps of it (§9.1), the "NIC Goodput" reference line in
/// Figs. 12 and 14.
pub const CX5_100G: ByteRate = ByteRate::from_bytes_per_sec(11_500_000_000);

/// Goodput of the ConnectX-5 25 Gbps NIC, ~23 Gbps per direction: "enough to
/// saturate the read bandwidth of a single SSD" (§9.4, Fig. 17b).
pub const CX5_25G: ByteRate = ByteRate::from_bytes_per_sec(2_875_000_000);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_goodput() {
        assert_eq!(CX5_100G, ByteRate::from_gbps(92.0));
        assert_eq!(CX5_25G, ByteRate::from_gbps(23.0));
    }

    #[test]
    fn custom_goodput_keeps_latency() {
        // A node built with a custom goodput pays the same fixed
        // per-message and propagation delay as one with a preset NIC: only
        // the serialization time scales with the rate.
        let fixed = |goodput: ByteRate| {
            let mut b = crate::FabricBuilder::new();
            let a = b.add_node(goodput);
            let z = b.add_node(goodput);
            let bytes = 1_000_000;
            let svc = b
                .build()
                .try_transfer(draid_sim::SimTime::ZERO, a, z, bytes)
                .expect("link up");
            svc.end - goodput.time_for(bytes)
        };
        assert_eq!(fixed(ByteRate::from_gbps(10.0)), fixed(CX5_100G));
    }
}
