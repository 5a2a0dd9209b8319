//! Host facts every result is printed with, so no number is read apart
//! from the machine that produced it.

use std::fs;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread, pool and build width of every measured call: two, capped at
/// `nproc`.
pub fn width() -> usize {
    nproc().min(2)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Data or unified cache size at `level` for CPU 0, in bytes (0 when the
/// host does not expose it).
pub fn cache_bytes(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let dir = format!("{base}/index{i}");
            let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
            let lvl: u32 = read("level")?.trim().parse().ok()?;
            let kind = read("type")?;
            if lvl != level || kind.trim() == "Instruction" {
                return None;
            }
            parse_size(read("size")?.trim())
        })
        .next()
        .unwrap_or(0)
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mul) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mul)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_suffixes() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn width_is_capped() {
        assert!((1..=2).contains(&width()));
        assert!(width() <= nproc());
    }
}
