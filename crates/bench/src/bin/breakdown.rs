//! Resource-demand breakdown (extension experiment): traces every DAG step
//! of a partial-stripe write workload and aggregates network/drive/CPU
//! demand per system — the quantitative version of the paper's Table 1
//! bandwidth argument, from inside the simulator.
//!
//! ```text
//! cargo run --release -p draid-bench --bin breakdown
//! ```

use draid_bench::{build_array, Scenario};
use draid_core::trace::StepClass;
use draid_core::{ArraySim, SystemKind, UserIo};
use draid_sim::Engine;

const OPS: u64 = 64;
const IO: u64 = 128 * 1024;

fn main() {
    println!("per-op resource demand for {OPS} x 128 KiB partial-stripe writes (RAID-5 x8):\n");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>16}",
        "system", "net bytes/op", "drive bytes/op", "cpu bytes/op", "net span us/op"
    );
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let mut array: ArraySim = build_array(&Scenario::paper(system));
        array.enable_tracing(1_000_000);
        let mut engine = Engine::new();
        let stripe = array.layout().stripe_data_bytes();
        for i in 0..OPS {
            array.submit(&mut engine, UserIo::write(i * stripe, IO));
        }
        engine.run(&mut array);
        assert!(array.drain_completions().iter().all(|r| r.is_ok()));
        let trace = array.take_trace().expect("tracing on");
        let bd = trace.breakdown();
        let get = |class: StepClass| {
            bd.iter()
                .find(|(c, _)| *c == class)
                .map(|(_, a)| *a)
                .unwrap_or_default()
        };
        let net = get(StepClass::Network);
        let drive = get(StepClass::Drive);
        let cpu = get(StepClass::Cpu);
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>16.1}",
            system.label(),
            net.bytes / OPS,
            drive.bytes / OPS,
            cpu.bytes / OPS,
            net.total_span.as_micros_f64() / OPS as f64,
        );
    }
    // Critical-path attribution of one unloaded write per system: where a
    // single op's latency goes (queueing included).
    println!("\nunloaded 128 KiB write latency along the critical path (us):\n");
    println!(
        "{:<8} {:>8} {:>9} {:>8} {:>6} {:>8}",
        "system", "total", "network", "drive", "cpu", "control"
    );
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        let mut array: ArraySim = build_array(&Scenario::paper(system));
        array.enable_tracing(10_000);
        let mut engine = Engine::new();
        array.submit(&mut engine, UserIo::write(0, IO));
        engine.run(&mut array);
        let res = array.drain_completions().pop().expect("done");
        assert!(res.is_ok());
        let trace = array.take_trace().expect("tracing on");
        let op = trace.ops().first().expect("the write launched an op");
        if let Some(path) = trace.critical_path(op) {
            println!(
                "{:<8} {:>8.0} {:>9.0} {:>8.0} {:>6.0} {:>8.0}",
                system.label(),
                path.total.as_micros_f64(),
                path.class(StepClass::Network).as_micros_f64(),
                path.class(StepClass::Drive).as_micros_f64(),
                path.class(StepClass::Cpu).as_micros_f64(),
                path.class(StepClass::Control).as_micros_f64(),
            );
        }
    }

    println!("\nreading: dRAID and the centralized baselines do identical drive work");
    println!("(the paper: drive-side amplification is inevitable), but dRAID moves");
    println!("~2x fewer bytes over the network in total and ~4x fewer through the");
    println!("host NIC — the Table 1 asymmetry that buys its scalability.");
}
