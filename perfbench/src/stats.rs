//! Order statistics and the process's own resource readings.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Completions per second: the median over `slices` equal-count slices
/// of the completion times, so a brief stall in one slice does not move
/// the figure.
pub fn slice_rate(done_at: &[f64], slices: usize) -> f64 {
    let mut t = done_at.to_vec();
    t.sort_by(f64::total_cmp);
    let per = t.len() / slices;
    if per < 2 {
        return t.len() as f64 / t.last().copied().unwrap_or(f64::NAN);
    }
    let rates: Vec<f64> = (0..slices)
        .map(|k| (per - 1) as f64 / (t[(k + 1) * per - 1] - t[k * per]))
        .collect();
    median(&rates)
}

/// Summary figures of paced latencies (in completion order): p50 and
/// p90 are each the median over eight consecutive equal slices of that
/// slice's percentile, so interference lasting less than half the phase
/// (another guest taking the CPUs) does not move them; p99 is over the
/// whole phase.
pub fn paced_percentiles(lat: &[f64]) -> (f64, f64, f64) {
    const SLICES: usize = 8;
    let sorted = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let per = lat.len() / SLICES;
    let slices: Vec<Vec<f64>> = if per < 10 {
        vec![sorted(lat)]
    } else {
        lat.chunks_exact(per).take(SLICES).map(sorted).collect()
    };
    let of_slices = |q: f64| median(&slices.iter().map(|s| percentile(s, q)).collect::<Vec<_>>());
    (
        of_slices(0.5),
        of_slices(0.9),
        percentile(&sorted(lat), 0.99),
    )
}

/// User plus system CPU time of this process, in clock ticks.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Ticks the hypervisor took from this machine's CPUs (`steal` in
/// `/proc/stat`): time other guests ran on them. Logged, not reported.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Clock ticks per second of `cpu_ticks` (the Linux user-space value).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn paced_percentiles_ignore_one_slow_slice() {
        // 800 requests: 100 µs and 200 µs alternating, except that one
        // slice of 100 ran ten times slower.
        let mut lat: Vec<f64> = (0..800)
            .map(|i| if i % 2 == 0 { 100.0 } else { 200.0 })
            .collect();
        for l in &mut lat[300..400] {
            *l *= 10.0;
        }
        let (p50, p90, p99) = paced_percentiles(&lat);
        assert_eq!((p50, p90), (100.0, 200.0));
        assert_eq!(p99, 2000.0);
    }

    #[test]
    fn slice_rate_ignores_one_stalled_slice() {
        // 800 completions at 1 ms spacing, with one 500 ms stall.
        let mut t = 0.0;
        let done: Vec<f64> = (0..800)
            .map(|i| {
                t += if i == 100 { 0.5 } else { 0.001 };
                t
            })
            .collect();
        let rate = slice_rate(&done, 8);
        assert!((rate - 1000.0).abs() < 1.0, "{rate}");
    }
}
