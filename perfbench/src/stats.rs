//! Order statistics over a run's samples.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The interquartile mean: the mean of the middle half of `values`. It
/// drops the bursts a median drops, yet averages the host's slow and
/// fast phases in proportion where a median would pick one of them.
pub fn iqm(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 4 {
        return mean(&v);
    }
    mean(&v[n / 4..n - n / 4])
}
