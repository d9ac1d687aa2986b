//! Order statistics over samples.

/// Sorted copy of the samples (NaN-free input assumed).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let data = sorted(samples);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile by nearest rank (`p` in `0..=100`; 0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let data = sorted(samples);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two samples; a single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples);
    let ld = data.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    // Python's integer arithmetic, signed: `delta` goes negative when the
    // clamp lifts `j` (two samples).
    let n = 4i64;
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}
