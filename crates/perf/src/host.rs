//! Host-side resource readings from `/proc` (Linux only: the benchmark's
//! contract is a Linux sandbox, and `std` has no portable source for them).

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_never_falls() {
        let before = peak_rss_mb().unwrap();
        assert!(before > 0.0);
        let block = vec![1u8; 8 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb().unwrap() >= before);
    }
}
