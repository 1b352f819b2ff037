//! Host facts and host-noise counters, from `/proc` and `/sys` with std
//! only: the machine fingerprint stamped into every report, a fixed
//! reference kernel timed with every op, process CPU time, and per-thread
//! run-queue wait and involuntary context switches over the timed region.

use std::collections::BTreeMap;
use std::time::Instant;

/// What identifies the machine a report was made on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub l2_bytes: u64,
    pub simd: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Self {
            cpu_model: parse_cpu_model(&cpuinfo).unwrap_or_else(|| "unknown".into()),
            nproc: nproc(),
            l2_bytes: l2_bytes().unwrap_or(0),
            simd: quantize::simd_level_name(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\": {:?}, \"nproc\": {}, \"l2_bytes\": {}, \"simd\": {:?}}}",
            self.cpu_model, self.nproc, self.l2_bytes, self.simd
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == "model name").then(|| v.trim().to_string())
    })
}

/// A sysfs cache size such as `2048K` or `1M`, in bytes.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

fn l2_bytes() -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        if read("level").trim() == "2" && read("type").trim() != "Instruction" {
            return parse_cache_size(&read("size"));
        }
    }
    None
}

/// `(ns on CPU, ns waiting on a run queue)` from a `schedstat` line.
pub fn parse_schedstat(s: &str) -> Option<(u64, u64)> {
    let mut it = s.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// `nonvoluntary_ctxt_switches` from a `status` text.
pub fn parse_nonvol_ctxsw(status: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        l.strip_prefix("nonvoluntary_ctxt_switches:")
            .and_then(|v| v.trim().parse().ok())
    })
}

/// `VmHWM` (peak resident set) from a `status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    })
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCounters {
    pub wait_ns: u64,
    pub nonvol: u64,
}

/// Per-thread counters of this process, by thread id.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(pub BTreeMap<u64, TaskCounters>);

impl Snapshot {
    pub fn take() -> Self {
        let mut map = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = entry.path();
                let sched = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
                let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
                let (_, wait_ns) = parse_schedstat(&sched).unwrap_or((0, 0));
                let nonvol = parse_nonvol_ctxsw(&status).unwrap_or(0);
                map.insert(tid, TaskCounters { wait_ns, nonvol });
            }
        }
        Self(map)
    }
}

/// Fold a snapshot into per-thread `(first, last)` sightings; a thread
/// not seen before counts from zero.
pub fn merge(seen: &mut BTreeMap<u64, (TaskCounters, TaskCounters)>, snap: Snapshot) {
    for (t, c) in snap.0 {
        seen.entry(t).or_insert((TaskCounters::default(), c)).1 = c;
    }
}

/// Counter growth summed over every thread sighted.
pub fn growth(seen: &BTreeMap<u64, (TaskCounters, TaskCounters)>) -> TaskCounters {
    let mut d = TaskCounters::default();
    for (first, last) in seen.values() {
        d.wait_ns += last.wait_ns.saturating_sub(first.wait_ns);
        d.nonvol += last.nonvol.saturating_sub(first.nonvol);
    }
    d
}

/// Process CPU time (user + system, every thread that ever ran, reaped
/// ones included) from a `/proc/self/stat` text, in clock ticks.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name start at `state` (3);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
}

/// Process CPU seconds so far (Linux clock ticks are 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 / 100.0
}

/// Per-thread counters sampled every 50 ms from a background thread, so
/// the short-lived worker threads of parallel sections are seen too (a
/// thread's last < 50 ms can still be missed).
pub struct Sampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<BTreeMap<u64, (TaskCounters, TaskCounters)>>,
}

impl Sampler {
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let start = Snapshot::take();
        let handle = std::thread::spawn(move || {
            // (first, last) sighting per thread; a thread born after the
            // start counts from zero.
            let mut seen: BTreeMap<u64, (TaskCounters, TaskCounters)> =
                start.0.iter().map(|(&t, &c)| (t, (c, c))).collect();
            loop {
                let done = flag.load(std::sync::atomic::Ordering::SeqCst);
                merge(&mut seen, Snapshot::take());
                if done {
                    return seen;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        Self { stop, handle }
    }

    /// Stop sampling; counter growth summed over every thread seen.
    pub fn finish(self) -> TaskCounters {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        growth(&self.handle.join().expect("sampler thread"))
    }
}

/// The fixed std-only reference kernel: 256 Ki 16-bit multiply-adds over
/// two 8 KiB vectors, which the compiler vectorizes. Its time tracks how
/// fast this host runs vector code right now (the kernels under test are
/// vector code too), independent of anything the workloads change.
pub fn probe_ns() -> f64 {
    static DATA: std::sync::OnceLock<(Vec<i16>, Vec<i16>)> = std::sync::OnceLock::new();
    let (a, b) = DATA.get_or_init(|| {
        (
            (0..4096).map(|i| (i * 7 % 251) as i16 - 125).collect(),
            (0..4096).map(|i| (i * 13 % 241) as i16 - 120).collect(),
        )
    });
    let t0 = Instant::now();
    let mut acc = 0i32;
    for r in 0..64 {
        acc = std::hint::black_box(a)
            .iter()
            .zip(b)
            .map(|(&x, &y)| x as i32 * y as i32)
            .fold(acc.wrapping_add(r), i32::wrapping_add);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat() {
        assert_eq!(parse_schedstat("123456 7890 42\n"), Some((123456, 7890)));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 x 3"), None);
    }

    #[test]
    fn parses_status() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   14336 kB\n\
                      voluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_nonvol_ctxsw(status), Some(7));
        assert_eq!(parse_vm_hwm_kib(status), Some(14336));
        assert_eq!(parse_nonvol_ctxsw("Name:\tx\n"), None);
    }

    #[test]
    fn parses_stat_cpu_ticks() {
        let stat = "4242 (perf bench) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    350 25 0 0 20 0 9 0 100 1000000 300";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(375));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_cpuinfo_and_cache_sizes() {
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                       model name\t: Intel(R) Xeon(R) CPU @ 2.10GHz\nprocessor\t: 1\n\
                       model name\t: Intel(R) Xeon(R) CPU @ 2.10GHz\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn growth_counts_new_threads_from_zero() {
        let c = |wait_ns, nonvol| TaskCounters { wait_ns, nonvol };
        let start = [(1, c(10, 1)), (2, c(5, 0))];
        let mut seen = start.iter().map(|&(t, x)| (t, (x, x))).collect();
        // Thread 3 is born and thread 2 ends between samples.
        merge(
            &mut seen,
            Snapshot([(1, c(20, 2)), (2, c(5, 0)), (3, c(2, 1))].into()),
        );
        merge(&mut seen, Snapshot([(1, c(30, 4)), (3, c(4, 1))].into()));
        assert_eq!(growth(&seen), c(20 + 4, 3 + 1));
    }
}
