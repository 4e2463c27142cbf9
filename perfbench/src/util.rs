//! Shared pieces: seeded generator, digests, order statistics, the report
//! every workload fills, and the scratch directory stores are written to.

use hqmr_core::Backend;
use hqmr_grid::Field3;
use hqmr_mr::{LevelData, MultiResData};
use hqmr_serve::Response;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Bytes per MB in every rate and size this benchmark prints (the repo's
/// BENCH files use the same 2^20).
pub const MB: f64 = (1u64 << 20) as f64;

/// A run repeats its set-up at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_S` wall-clock seconds of set-up have run (at most
/// `SETUP_MAX_REPS`); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 30;
const SETUP_MIN_S: f64 = 1.0;

/// Codecs the workloads write, each in the paper's configuration.
pub fn backends() -> [(&'static str, Backend); 3] {
    [
        ("sz3", Backend::SZ3_PAPER),
        ("sz2", Backend::SZ2),
        ("zfp", Backend::ZFP),
    ]
}

/// A Nyx-like field of side `scale`: the fixed realization `realization`,
/// translated periodically by a seed-drawn whole-cell offset. Every seed
/// moves every value to another cell, so block selection, chunk contents
/// and all stored bytes change, while the value set (and with it the range
/// that relative error bounds scale with) stays that of one realization.
/// Fresh realizations per seed would differ far more: the red-spectrum
/// lognormal field's range, and with it compression ratio and decode cost,
/// varies by tens of percent between realizations.
pub fn nyx_field(scale: usize, realization: u64, seed: u64) -> Field3 {
    let base = hqmr_grid::synth::nyx_like(scale, realization);
    let mut rng = Rng::new(seed ^ realization);
    let [sx, sy, sz] = [(); 3].map(|_| rng.below(scale));
    Field3::from_fn(base.dims(), |x, y, z| {
        base.get((x + sx) % scale, (y + sy) % scale, (z + sz) % scale)
    })
}

/// SplitMix64: the benchmark's own generator, so inputs depend only on the
/// seed and not on any library's random streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A 64-bit digest over words, bit-exact for float payloads.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x100_0000_01B3_0001);
    }

    pub fn floats(&mut self, data: &[f32]) {
        self.word(data.len() as u64);
        let mut pairs = data.chunks_exact(2);
        for p in &mut pairs {
            self.word(u64::from(p[0].to_bits()) | (u64::from(p[1].to_bits()) << 32));
        }
        for v in pairs.remainder() {
            self.word(u64::from(v.to_bits()));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

fn level_into(d: &mut Digest, l: &LevelData) {
    for w in [
        l.level,
        l.unit,
        l.dims.nx,
        l.dims.ny,
        l.dims.nz,
        l.blocks.len(),
    ] {
        d.word(w as u64);
    }
    for b in &l.blocks {
        for o in b.origin {
            d.word(o as u64);
        }
        d.floats(&b.data);
    }
}

pub fn digest_field(f: &Field3) -> u64 {
    let mut d = Digest::new();
    let dims = f.dims();
    for w in [dims.nx, dims.ny, dims.nz] {
        d.word(w as u64);
    }
    d.floats(f.data());
    d.finish()
}

pub fn digest_level(l: &LevelData) -> u64 {
    let mut d = Digest::new();
    level_into(&mut d, l);
    d.finish()
}

pub fn digest_mr(mr: &MultiResData) -> u64 {
    let mut d = Digest::new();
    for w in [mr.domain.nx, mr.domain.ny, mr.domain.nz, mr.levels.len()] {
        d.word(w as u64);
    }
    for l in &mr.levels {
        level_into(&mut d, l);
    }
    d.finish()
}

pub fn digest_response(r: &Response) -> u64 {
    match r {
        Response::Roi(f) => digest_field(f),
        Response::Level(l) | Response::Iso(l) => digest_level(l),
    }
}

/// Decoded f32 payload bytes of a response.
pub fn response_bytes(r: &Response) -> u64 {
    match r {
        Response::Roi(f) => f.len() as u64 * 4,
        Response::Level(l) | Response::Iso(l) => l.covered_cells() as u64 * 4,
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// Mean, or 0 when the layer saw no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Largest absolute difference over matching unit blocks, or `None` when
/// the two datasets do not hold the same blocks.
pub fn max_abs_error(a: &MultiResData, b: &MultiResData) -> Option<f64> {
    if a.domain != b.domain || a.levels.len() != b.levels.len() {
        return None;
    }
    let mut worst = 0f64;
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        let mut xs: Vec<_> = la.blocks.iter().collect();
        let mut ys: Vec<_> = lb.blocks.iter().collect();
        xs.sort_by_key(|blk| blk.origin);
        ys.sort_by_key(|blk| blk.origin);
        if la.unit != lb.unit || xs.len() != ys.len() {
            return None;
        }
        for (x, y) in xs.iter().zip(&ys) {
            if x.origin != y.origin || x.data.len() != y.data.len() {
                return None;
            }
            for (&p, &q) in x.data.iter().zip(&y.data) {
                worst = worst.max((p as f64 - q as f64).abs());
            }
        }
    }
    Some(worst)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / MB
}

/// One timed operation of a workload's loop.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The op's own duration in seconds.
    pub secs: f64,
    /// Bytes the op delivered, in the workload's throughput unit.
    pub bytes: f64,
}

/// Host steal and total CPU ticks, all CPUs, from the first line of
/// `/proc/stat` (steal: CPU time the hypervisor gave to other guests while
/// this one wanted to run).
fn host_ticks() -> (u64, u64) {
    let host = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = host
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().expect("tick count in /proc/stat"))
        .collect();
    assert!(ticks.len() > 7, "/proc/stat has no steal column");
    (ticks[7], ticks.iter().sum())
}

/// Wall clock, process CPU time and host ticks at the start of a timed
/// loop.
pub struct LoopClock {
    wall: Instant,
    cpu_s: f64,
    host: (u64, u64),
}

/// What a timed loop cost as a whole.
pub struct LoopTotals {
    pub wall_s: f64,
    /// CPU seconds of every thread of the process, the benchmark's own
    /// checks and client threads included.
    pub cpu_s: f64,
    /// Host steal share of all CPU ticks over the loop.
    pub steal_frac: f64,
}

impl LoopClock {
    pub fn start() -> Self {
        LoopClock {
            host: host_ticks(),
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    pub fn finish(self) -> LoopTotals {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu_s;
        let (steal, total) = host_ticks();
        let ticks = total.saturating_sub(self.host.1);
        LoopTotals {
            wall_s,
            cpu_s,
            steal_frac: if ticks == 0 {
                0.0
            } else {
                steal.saturating_sub(self.host.0) as f64 / ticks as f64
            },
        }
    }
}

/// Puts the loop's end-to-end rate metrics, and its wall-clock rates and
/// latencies into the record.
///
/// `mb_per_cpu_s` and `ops_per_cpu_s` divide the loop's bytes and ops by
/// the CPU time the process spent on the whole loop. Wall-clock rates and
/// latencies move with host steal by a third between runs of one build,
/// so they are recorded but not gated: `throughput_mbps` and `ops_per_s`
/// divide by the ops' summed durations when one caller ran them back to
/// back, by the loop's wall time when `concurrent` callers overlapped;
/// `p50_ms` and `tail_ms` (the `tail` quantile) are over every op.
pub fn put_timing(
    ops: &[Op],
    concurrent: bool,
    tail: f64,
    totals: &LoopTotals,
    m: &mut Metrics,
    record: &mut Vec<(String, String)>,
) {
    let n = ops.len() as f64;
    let bytes: f64 = ops.iter().map(|o| o.bytes).sum();
    m.put("mb_per_cpu_s", bytes / MB / totals.cpu_s, "MB/cpu-s");
    m.put("ops_per_cpu_s", n / totals.cpu_s, "1/cpu-s");
    let t = if concurrent {
        totals.wall_s
    } else {
        ops.iter().map(|o| o.secs).sum()
    };
    let ms = sorted(&ops.iter().map(|o| o.secs * 1e3).collect::<Vec<_>>());
    for (k, v) in [
        ("throughput_mbps", bytes / MB / t),
        ("ops_per_s", n / t),
        ("p50_ms", quantile(&ms, 0.5)),
        ("tail_ms", quantile(&ms, tail)),
        ("tail_quantile", tail),
        ("p90_ms", quantile(&ms, 0.9)),
        ("p99_ms", quantile(&ms, 0.99)),
        ("ops", n),
        ("samples_beyond_tail", (n - (tail * n).ceil()).max(0.0)),
        ("loop_wall_s", totals.wall_s),
        ("loop_cpu_s", totals.cpu_s),
        ("host_steal_frac", totals.steal_frac),
    ] {
        record.push((k.to_string(), v.to_string()));
    }
}

/// How much longer the traced ops took on average than the untraced ones,
/// in percent.
pub fn overhead_pct(plain: &[Op], traced: &[Op]) -> f64 {
    let avg = |ops: &[Op]| mean(&ops.iter().map(|o| o.secs).collect::<Vec<_>>());
    (avg(traced) / avg(plain) - 1.0) * 100.0
}

/// CPU and wall-clock seconds of each set-up repetition.
pub struct SetupTimes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
}

impl SetupTimes {
    /// Puts `setup_s`, the median CPU time of a set-up (every thread of the
    /// process; CPU time, like the gated rates, is charged only while the
    /// program runs), and records the median wall-clock time beside it.
    pub fn put(&self, m: &mut Metrics, record: &mut Vec<(String, String)>) {
        m.put("setup_s", median(&self.cpu), "s");
        record.push(("setup_wall_s".to_string(), median(&self.wall).to_string()));
        record.push(("setup_reps".to_string(), self.cpu.len().to_string()));
    }
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), timing each run and
/// dropping each result before the next starts. Returns the last result,
/// the times, and whether `key` of every result equals `key` of the first.
pub fn repeat_setup<T, K: PartialEq>(
    mut setup: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
) -> (T, SetupTimes, bool) {
    let mut times = SetupTimes {
        cpu: Vec::new(),
        wall: Vec::new(),
    };
    let mut first_key = None;
    let mut repeats = true;
    loop {
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let out = setup();
        times.cpu.push(process_cpu_s() - cpu);
        times.wall.push(t.elapsed().as_secs_f64());
        let k = key(&out);
        match &first_key {
            None => first_key = Some(k),
            Some(f) => repeats &= *f == k,
        }
        let n = times.wall.len();
        if n >= SETUP_MAX_REPS
            || (n >= SETUP_MIN_REPS && times.wall.iter().sum::<f64>() >= SETUP_MIN_S)
        {
            return (out, times, repeats);
        }
    }
}

/// User plus system CPU time of every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, which the `compile_error!` below enforces), and
    // clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process CPU time and host steal; it needs 64-bit Linux");

/// Metrics one run reports: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one workload run hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every check the workload made passed.
    pub correct: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Environment and workload facts, as `"key": <json>` pairs.
    pub record: Vec<(String, String)>,
    /// Values that must repeat exactly for a seed.
    pub deterministic: Metrics,
}

/// Directory in the working tree that holds a run's store files; removed
/// when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself when other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Field3::from_vec(hqmr_grid::Dims3::new(1, 1, 3), vec![1.0, 2.0, 3.0]);
        let mut b = a.clone();
        b.data_mut()[2] = f32::from_bits(3.0f32.to_bits() ^ 1);
        assert_ne!(digest_field(&a), digest_field(&b));
        assert_eq!(digest_field(&a), digest_field(&a.clone()));
    }
}
