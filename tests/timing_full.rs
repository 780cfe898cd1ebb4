//! Timing ≡ Full: the figures run in `DataMode::Timing`, while the integrity
//! tests (chaos, model checking, the e2e fault tests) run in `DataMode::Full`.
//! Moving real bytes must not change the schedule, so every byte-level check
//! also verifies the schedule the figures measure. For each system, RAID
//! level and failure scenario, the same mixed workload is replayed in both
//! modes and the completion streams, final clocks and event counts must be
//! identical.

use bytes::Bytes;
use draid::block::Cluster;
use draid::core::{ArrayConfig, ArraySim, DataMode, RaidLevel, SystemKind, UserIo};
use draid::sim::{DetRng, Engine, SimTime};

const KIB: u64 = 1024;
const WIDTH: usize = 6;
const CHUNK: u64 = 32 * KIB;
/// Logical span the workload touches, in stripes.
const STRIPES: u64 = 32;
const IOS: u64 = 320;
const IOS_PER_WINDOW: u64 = 20;
const WINDOW: SimTime = SimTime::from_micros(300);
/// Member 2 fails here: inside the ninth window, with its I/Os in flight.
const FAIL_AT: SimTime = SimTime::from_micros(2_450);
const FAILED_MEMBER: usize = 2;

/// One completion as the schedule sees it: `(id, submitted, completed, ok)`,
/// times in nanoseconds.
type Completion = (u64, u64, u64, bool);

/// What a run leaves behind: its completion stream (in completion order),
/// final clock and events fired.
#[derive(Debug, PartialEq)]
struct Schedule {
    completions: Vec<Completion>,
    end: SimTime,
    events_fired: u64,
}

/// Replays the seeded workload: `IOS` mixed reads and writes, 4 KiB up to a
/// full stripe each, submitted `IOS_PER_WINDOW` at a time at the start of
/// every `WINDOW`. Writes carry a payload only in `Full` mode, as in the
/// figures (timing) and the integrity tests (full).
fn run(system: SystemKind, level: RaidLevel, fail: bool, mode: DataMode) -> Schedule {
    let mut cfg = ArrayConfig::paper_default(system);
    cfg.level = level;
    cfg.width = WIDTH;
    cfg.chunk_size = CHUNK;
    cfg.data_mode = mode;
    let mut array = ArraySim::new(Cluster::homogeneous(WIDTH), cfg).expect("valid");
    let mut engine: Engine<ArraySim> = Engine::new();

    let stripe_bytes = (WIDTH - level.parity_count()) as u64 * CHUNK;
    let mut rng = DetRng::new(0x7F11);
    for window in 0..IOS / IOS_PER_WINDOW {
        let batch: Vec<UserIo> = (0..IOS_PER_WINDOW)
            .map(|_| {
                let len = 4 * KIB * (1 + rng.below(stripe_bytes / (4 * KIB)));
                let offset = 4 * KIB * rng.below((STRIPES * stripe_bytes - len) / (4 * KIB));
                if rng.chance(0.5) {
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    match mode {
                        DataMode::Full => UserIo::write_bytes(offset, Bytes::from(data)),
                        DataMode::Timing => UserIo::write(offset, len),
                    }
                } else {
                    UserIo::read(offset, len)
                }
            })
            .collect();
        let at = SimTime::from_nanos(WINDOW.as_nanos() * window);
        engine.schedule_at(at, move |array: &mut ArraySim, eng| {
            for io in batch {
                array.submit(eng, io);
            }
        });
    }
    if fail {
        engine.schedule_at(FAIL_AT, |array: &mut ArraySim, _| {
            array.fail_member(FAILED_MEMBER)
        });
    }
    let end = engine.run(&mut array);
    assert_eq!(array.is_degraded(), fail, "{system:?}/{level:?}/{mode:?}");

    let completions = array
        .drain_completions()
        .into_iter()
        .map(|r| {
            (
                r.id.0,
                r.submitted.as_nanos(),
                r.completed.as_nanos(),
                r.is_ok(),
            )
        })
        .collect();
    Schedule {
        completions,
        end,
        events_fired: engine.stats().events_fired,
    }
}

#[test]
fn timing_and_full_modes_follow_one_schedule() {
    for system in [SystemKind::LinuxMd, SystemKind::SpdkRaid, SystemKind::Draid] {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            for fail in [false, true] {
                let timing = run(system, level, fail, DataMode::Timing);
                assert_eq!(timing.completions.len() as u64, IOS);
                assert!(
                    timing.completions.iter().all(|c| c.3),
                    "{system:?}/{level:?} fail={fail}: every I/O succeeds"
                );
                let full = run(system, level, fail, DataMode::Full);
                let first_diff = timing
                    .completions
                    .iter()
                    .zip(&full.completions)
                    .find(|(t, f)| t != f);
                assert!(
                    timing == full,
                    "{system:?}/{level:?} fail={fail}: Timing and Full schedules differ \
                     (end {:?} vs {:?}, events {} vs {}, first differing completion {:?})",
                    timing.end,
                    full.end,
                    timing.events_fired,
                    full.events_fired,
                    first_diff
                );
            }
        }
    }
}
