//! The machine-speed calibration: a fixed piece of the benchmark's own
//! code, timed between passes, that scales host times to one reference
//! speed.
//!
//! On a shared virtual machine the host's clock and the load of other
//! tenants move every timing by up to 2× over minutes, and two runs of the
//! same code can land in different states. The calibration runs no code of
//! the program under test, so a change to the program cannot move it; it
//! mixes the kinds of work the program does (a dependent integer chain, a
//! random walk with writes over a table the size of a core's L2 cache, and
//! building an ordered map), so it slows down with the program when the
//! machine does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// Seconds one calibration takes at the reference speed: about its time on
/// the 2-vCPU x86-64 virtual machine the benchmark was tuned on, in a quiet
/// state. Host times are reported as if the machine ran at this speed.
pub const NOMINAL_S: f64 = 0.015;

/// Seconds of job time between two calibration samples (about 3% of a
/// run), so that every workload gets about 70 samples in a 35 s run however
/// long its passes are.
pub const EVERY_S: f64 = 0.5;

/// Times one calibration, in seconds.
pub fn sample() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(0x9e37_79b9_7f4a_7c15)));
    start.elapsed().as_secs_f64()
}

/// The factor that scales a host time measured alongside `samples` to the
/// reference speed: `NOMINAL_S` over the samples' 10th percentile. Like a
/// job's fastest pass, it sets aside the samples that bursts of load slowed
/// down; unlike the single fastest sample, it does not move with one lucky
/// draw (the fastest of 60 samples moved 6% from process to process where
/// the 10th percentile moved 4.5%).
pub fn scale(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let typical = quantile(&sorted, 0.1).expect("a calibration sample");
    assert!(
        typical > 0.0 && typical.is_finite(),
        "calibration took {typical} s"
    );
    NOMINAL_S / typical
}

fn work(mut h: u64) -> u64 {
    for i in 0..2_000_000u64 {
        h = (h ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    }
    let mut table: Vec<u64> = (0..1u64 << 16)
        .map(|i| i.wrapping_mul(0x94d0_49bb_1331_11eb))
        .collect();
    let mask = table.len() - 1;
    let mut j = 0;
    for _ in 0..1_000_000 {
        j = (table[j] as usize ^ j.wrapping_mul(31)) & mask;
        table[j] = table[j].wrapping_add(h);
        h ^= table[j];
    }
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        h = h
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(h >> 24, [i; 3]);
    }
    h ^ map.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_the_10th_percentile() {
        let s = NOMINAL_S;
        let samples: Vec<f64> = (0..11).map(|i| s * (11 - i) as f64).collect();
        assert_eq!(scale(&samples), 0.5);
        assert!(sample() > 0.0);
    }
}
