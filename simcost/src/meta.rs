//! Machine metadata printed with every result: a host-time figure means
//! little without the machine that produced it.

/// The metadata line: core count, CPU model, whether the SIMD GF(256)
/// kernels are active, build profile, code version and seed.
pub fn line(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // `run.sh` exports the git commit, or a hash of the sources when the
    // checkout is not a git repository.
    let commit = std::env::var("SIMCOST_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": \"{}\", \"simd_active\": {}, \"profile\": \"{profile}\", \"commit\": \"{}\"}}}}",
        escape(&cpu),
        draid_ec::kernels::simd_active(),
        escape(&commit),
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}
