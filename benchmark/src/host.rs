//! Facts about the host a run was measured on, and the check that no
//! `VDB_*` switch is silently changing what is measured.

use crate::json::Json;

/// Names of the `VDB_*` variables present in the environment. They
/// change kernel dispatch, build threads, prefetch and the connection
/// core, so a run refuses to start while any is set.
pub fn vdb_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VDB_"))
        .collect();
    names.sort();
    names
}

fn cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, present) in [
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                found.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            found.push("neon");
        }
    }
    found
}

pub fn facts() -> Json {
    Json::obj([
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("arch", Json::str(std::env::consts::ARCH)),
        (
            "cpu_features",
            Json::Arr(cpu_features().into_iter().map(Json::str).collect()),
        ),
        (
            "kernel_dispatch",
            Json::str(vdb_core::kernel::dispatch_name()),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// How long a fixed chain of dependent loads over 4 MB takes on this
/// host right now, in microseconds (the median of five passes). Recorded
/// at both ends of a run beside its metrics. The reference host is a
/// shared VM: with no steal time reported, memory-touching code (an index
/// search, the socket path) runs 1.4 to 1.8 times slower for minutes at a
/// time while a pure arithmetic loop keeps its speed, so this probe walks
/// memory, and a reader comparing two runs can see which state each met.
pub fn speed_probe_us() -> f64 {
    const SLOTS: usize = 1 << 20;
    const STEPS: usize = 200_000;
    // One random cycle through every slot (Sattolo), from a fixed seed.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = crate::rng::Rng::new(0, 0);
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i));
    }
    let mut passes = [0f64; 5];
    let mut at = 0u32;
    for pass in &mut passes {
        let t = std::time::Instant::now();
        for _ in 0..STEPS {
            at = next[at as usize];
        }
        *pass = t.elapsed().as_secs_f64() * 1e6;
    }
    std::hint::black_box(at);
    crate::stats::median(&passes)
}
