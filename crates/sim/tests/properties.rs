//! Randomized property tests of the DES substrate: resource-model invariants
//! and engine determinism, driven by the crate's own seeded [`DetRng`] (the
//! environment has no crates.io access, so these are plain loops rather than
//! `proptest` strategies — same invariants, reproducible cases).

use draid_sim::{ByteRate, DetRng, Engine, RateResource, SimTime};

#[test]
fn rate_resource_is_fifo_and_work_conserving() {
    let mut rng = DetRng::new(0x51A1);
    for _ in 0..60 {
        let rate =
            ByteRate::from_bytes_per_sec(((1.0 + rng.unit_f64() * 9_999.0) * 1e6).round() as u64);
        let n = 1 + rng.below(60) as usize;
        let mut res = RateResource::new(rate);
        let mut prev_end = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        let mut total_busy = SimTime::ZERO;
        for _ in 0..n {
            clock += SimTime::from_nanos(rng.below(1_000_000));
            let bytes = rng.below(1 << 20);
            let svc = res.serve_at_rate(clock, bytes, res.rate());
            // FIFO: service windows never overlap or reorder.
            assert!(svc.start >= prev_end);
            assert!(svc.start >= clock);
            assert!(svc.end >= svc.start);
            // Service time matches the rate (ceil rounding).
            let expect = rate.time_for(bytes);
            assert_eq!(svc.end - svc.start, expect);
            total_busy += expect;
            prev_end = svc.end;
        }
        // Work conservation: busy time equals the sum of service times, and
        // the resource never finishes before the work could be done.
        assert_eq!(res.busy_time(), total_busy);
        assert!(prev_end >= total_busy);
    }
}

#[test]
fn engine_orders_events_by_time_then_fifo() {
    let mut rng = DetRng::new(0x51A2);
    for _ in 0..50 {
        let n = 1 + rng.below(200) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.below(1_000_000)).collect();
        let mut engine: Engine<Vec<(u64, usize)>> = Engine::new();
        let mut world: Vec<(u64, usize)> = Vec::new();
        for (seq, &d) in delays.iter().enumerate() {
            engine.schedule_at(
                SimTime::from_nanos(d),
                move |w: &mut Vec<(u64, usize)>, _| {
                    w.push((d, seq));
                },
            );
        }
        engine.run(&mut world);
        assert_eq!(world.len(), delays.len());
        // Non-decreasing times; equal times preserve submission order.
        for pair in world.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1);
            }
        }
    }
}

#[test]
fn rng_streams_are_deterministic_and_in_range() {
    let mut seeds = DetRng::new(0x51A3);
    for _ in 0..30 {
        let seed = seeds.next_u64();
        let bound = 1 + seeds.below(1_000_000);
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..100 {
            let x = a.below(bound);
            assert_eq!(x, b.below(bound));
            assert!(x < bound);
            let f = a.unit_f64();
            assert_eq!(f.to_bits(), b.unit_f64().to_bits());
            assert!((0.0..1.0).contains(&f));
        }
    }
}

#[test]
fn timeline_conserves_clamped_busy_under_random_load() {
    // Σ bucket busy == the resource's clamped elapsed busy over the sampled
    // span, and no bucket ever exceeds its width — for random rates, random
    // arrival patterns (including deep queueing) and random bucket widths.
    let mut rng = DetRng::new(0x51A5);
    for _ in 0..40 {
        let rate =
            ByteRate::from_bytes_per_sec(((1.0 + rng.unit_f64() * 999.0) * 1e6).round() as u64);
        let mut res = RateResource::new(rate);
        let mut tl = draid_sim::UtilizationTimeline::new(SimTime::ZERO);
        tl.observe("res", SimTime::ZERO, SimTime::ZERO);
        let bucket = SimTime::from_micros(500 + rng.below(1_500));
        let mut boundary = bucket;
        let mut clock = SimTime::ZERO;
        let mut last_end = SimTime::ZERO;
        for _ in 0..(1 + rng.below(80)) {
            clock += SimTime::from_nanos(rng.below(800_000));
            while boundary <= clock {
                tl.observe("res", boundary, res.busy_elapsed(boundary));
                boundary += bucket;
            }
            last_end = res.serve_at_rate(clock, rng.below(1 << 18), res.rate()).end;
        }
        // Keep sampling until every queued service has elapsed.
        let horizon = last_end.max(clock) + bucket;
        while boundary <= horizon {
            tl.observe("res", boundary, res.busy_elapsed(boundary));
            boundary += bucket;
        }
        let last = boundary - bucket;
        // Conservation: the buckets partition the clamped busy time exactly,
        // and once the queue has drained it equals the total demand.
        assert_eq!(tl.total_busy("res"), res.busy_elapsed(last));
        assert_eq!(res.busy_elapsed(last), res.busy_time());
        for b in tl.buckets("res") {
            assert!(b.busy <= b.width, "bucket busy exceeds wall clock");
            assert!(b.utilization() <= 1.0 + 1e-12);
        }
    }
}

#[test]
fn histogram_percentiles_are_monotone() {
    let mut rng = DetRng::new(0x51A4);
    for _ in 0..50 {
        let n = 1 + rng.below(300) as usize;
        let mut h = draid_sim::Histogram::new();
        for _ in 0..n {
            h.record(SimTime::from_nanos(rng.below(1 << 40)));
        }
        let mut prev = SimTime::ZERO;
        for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(q);
            assert!(v >= prev, "percentile({q}) regressed");
            prev = v;
        }
        assert_eq!(h.percentile(100.0), h.max());
        assert!(h.mean() >= h.min() && h.mean() <= h.max());
    }
}

#[test]
fn time_for_is_the_exact_128_bit_ceiling() {
    // `time_for` divides in 64 bits while `bytes * 10⁹` fits and in 128 bits
    // above; both must give the 128-bit formula's nanosecond count.
    fn reference(rate: ByteRate, bytes: u64) -> Option<u64> {
        let ns = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(rate.bytes_per_sec()));
        u64::try_from(ns).ok()
    }
    let check = |rate: ByteRate, bytes: u64| match reference(rate, bytes) {
        Some(ns) => assert_eq!(rate.time_for(bytes).as_nanos(), ns, "{rate:?} {bytes}"),
        None => assert!(
            std::panic::catch_unwind(|| rate.time_for(bytes)).is_err(),
            "{rate:?} {bytes}: overflow must panic"
        ),
    };
    // The largest byte count whose scaled value fits in 64 bits, and the
    // first that does not.
    let boundary = u64::MAX / 1_000_000_000;
    let rates = [1, 3, 2_375_000_000, 12_500_000_000].map(ByteRate::from_bytes_per_sec);
    for rate in rates {
        for bytes in [0, 1, 4096, 128 << 10, boundary - 1, boundary, boundary + 1] {
            check(rate, bytes);
        }
    }
    let mut rng = DetRng::new(0x51A6);
    for _ in 0..20_000 {
        let rate = ByteRate::from_bytes_per_sec(1 + (rng.next_u64() >> rng.below(64)));
        // Byte counts spread over every magnitude, on both sides of the
        // boundary.
        let bytes = rng.next_u64() >> rng.below(64);
        check(rate, bytes);
        check(rate, boundary - rng.below(1 << 20));
        check(rate, boundary + rng.below(1 << 20));
    }
}
