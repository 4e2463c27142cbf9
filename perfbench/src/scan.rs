//! `scan`: bulk post-hoc analysis. Three file-backed stores of one AMR
//! dataset, one per codec, read whole with `read_all` round-robin from one
//! caller thread. No cache and no socket.

use crate::trace::{traced, Tracer};
use crate::util::{
    backends, digest_mr, mean, nyx_field, overhead_pct, put_timing, repeat_setup, LoopClock,
    Metrics, Op, Report, WorkDir,
};
use crate::{chunks, Args};
use hqmr_mr::{to_amr, AmrConfig, LevelData, MultiResData, Upsample};
use hqmr_store::read::{self, ChunkSource};
use hqmr_store::{write_store, DecodedChunk, StoreConfig, StoreError, StoreMeta, StoreReader};
use std::time::Instant;

/// Relative error bound of every store this workload writes.
const REL_EB: f64 = 8e-3;

/// `tail_ms` quantile. Above the 90th percentile a full read's time is
/// set by the host descheduling one of the threads it joins (it moved
/// 12 → 21 ms between runs of one build, against 8.7 → 10 ms at p90), so
/// no higher tail is steady enough to compare builds by.
const TAIL: f64 = 0.9;

/// Realizations of the Nyx-like datasets (see `util::nyx_field`).
pub const NYX_T1: u64 = 91;
pub const NYX_T2: u64 = 91 ^ 0x1111;

/// Unit block side for a cube of side `scale` (the bench harness's rule).
pub fn unit_for(scale: usize) -> usize {
    if scale >= 128 {
        16
    } else {
        8
    }
}

/// What a correct full read of one store looks like, from a serial
/// `decode_chunk` pass at set-up.
struct Expected {
    digest: u64,
    chunks: u64,
    fetched_bytes: u64,
    decoded_bytes: f64,
}

fn serial_reference(reader: &StoreReader) -> Result<(MultiResData, Expected), StoreError> {
    let meta = reader.meta();
    let mut levels = Vec::with_capacity(meta.levels.len());
    let mut chunks = 0;
    let mut fetched_bytes = 0;
    for (l, lm) in meta.levels.iter().enumerate() {
        let mut blocks = Vec::new();
        for c in 0..lm.chunks.len() {
            blocks.extend(reader.decode_chunk(l, c)?.to_blocks());
            chunks += 1;
            fetched_bytes += lm.chunks[c].len as u64;
        }
        blocks.sort_by_key(|b| b.origin);
        levels.push(LevelData {
            level: lm.level,
            unit: lm.unit,
            dims: lm.dims,
            blocks,
        });
    }
    let mr = MultiResData {
        domain: meta.domain,
        levels,
    };
    let expected = Expected {
        digest: digest_mr(&mr),
        chunks,
        fetched_bytes,
        decoded_bytes: mr.total_cells() as f64 * 4.0,
    };
    Ok((mr, expected))
}

/// Benchmark-side chunk source: the reader itself, with one span around
/// each bulk `chunks` call (serial fetch, then parallel decode), parented
/// to the `read_all` span that asked for it. `read::read_all` over it runs
/// the same code as `StoreReader::read_all`; its self time outside these
/// spans is level assembly.
struct TracedSource<'a> {
    reader: &'a StoreReader,
    tr: &'a Tracer,
    parent: u64,
    req: u64,
}

impl ChunkSource for TracedSource<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.reader.meta()
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.reader.decode_chunk(level, block)
    }

    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        self.tr.span("store.chunks", self.parent, self.req, |_| {
            <StoreReader as ChunkSource>::chunks(self.reader, level, indices)
        })
    }
}

/// Full reads round-robin over the stores for `secs` (at least one per
/// store). Untraced it calls `StoreReader::read_all`; traced, the public
/// `read::read_all` over [`TracedSource`]. Returns each read with the index
/// of its store, and how many failed.
fn timed_loop(
    readers: &[StoreReader],
    expected: &[Expected],
    tr: Option<&Tracer>,
    secs: f64,
) -> (Vec<(usize, Op)>, u64) {
    let start = Instant::now();
    let (mut reads, mut failed) = (Vec::new(), 0);
    while reads.len() < readers.len() || start.elapsed().as_secs_f64() < secs {
        let i = reads.len() % readers.len();
        let (reader, want) = (&readers[i], &expected[i]);
        reader.reset_counters();
        let req = reads.len() as u64 + 1;
        let t = Instant::now();
        let out = traced(tr, "store.read_all", 0, req, |root| match tr {
            None => reader.read_all(),
            Some(tr) => read::read_all(&TracedSource {
                reader,
                tr,
                parent: root,
                req,
            }),
        });
        let op = Op {
            secs: t.elapsed().as_secs_f64(),
            bytes: want.decoded_bytes,
        };
        reads.push((i, op));
        let ok = out.is_ok_and(|mr| digest_mr(&mr) == want.digest)
            && reader.chunks_decoded() == want.chunks
            && reader.bytes_decoded() == want.fetched_bytes;
        failed += u64::from(!ok);
    }
    (reads, failed)
}

pub fn run(args: &Args) -> Report {
    let scale = if args.tiny { 32 } else { 128 };
    let field = nyx_field(scale, NYX_T1, args.seed);
    let mr = to_amr(&field, &AmrConfig::new(unit_for(scale), vec![0.18, 0.82]));
    let cfg = StoreConfig::new(field.range() as f64 * REL_EB);
    let codecs: Vec<_> = backends().iter().map(|(n, b)| (*n, b.codec())).collect();
    let dir = WorkDir::new("scan").expect("create the store directory");
    let raw_bytes = field.len() as f64 * 4.0;

    // Set-up: write each store to its file and open it.
    let ((readers, bufs), setup_s, setup_repeats) = repeat_setup(
        || {
            codecs
                .iter()
                .map(|(name, codec)| {
                    let path = dir.file(&format!("{name}.hqst"));
                    let buf = write_store(&mr, &cfg, codec.as_ref());
                    std::fs::write(&path, &buf).expect("write store file");
                    (StoreReader::open(&path).expect("open fresh store"), buf)
                })
                .unzip::<_, _, Vec<_>, Vec<_>>()
        },
        |out| out.1.clone(),
    );
    let stored: Vec<u64> = bufs.iter().map(|b| b.len() as u64).collect();

    let mut attempted = readers.len() as u64;
    let mut failed = 0;
    let mut expected = Vec::new();
    let mut psnr = Vec::new();
    for r in &readers {
        match serial_reference(r) {
            Ok((back, want)) => {
                psnr.push(hqmr_metrics::psnr(
                    &field,
                    &back.reconstruct(Upsample::Nearest),
                ));
                expected.push(want);
            }
            Err(_) => failed += 1,
        }
    }
    let mut metrics = Metrics::default();
    let mut deterministic = Metrics::default();
    let mut record = vec![
        ("scale".to_string(), scale.to_string()),
        ("rel_eb".to_string(), REL_EB.to_string()),
        ("raw_bytes".to_string(), raw_bytes.to_string()),
        ("chunk_blocks".to_string(), cfg.chunk_blocks.to_string()),
    ];
    if expected.len() != readers.len() {
        return Report {
            attempted,
            failed,
            correct: false,
            metrics,
            record,
            deterministic,
        };
    }
    for (((name, _), bytes), p) in codecs.iter().zip(&stored).zip(&psnr) {
        deterministic.put(
            format!("store.bytes_written.{name}"),
            *bytes as f64,
            "bytes",
        );
        deterministic.put(
            format!("compression_ratio.{name}"),
            raw_bytes / *bytes as f64,
            "x",
        );
        deterministic.put(format!("psnr_db.{name}"), *p, "dB");
    }
    deterministic.put(
        "store.chunks_decoded",
        expected.iter().map(|e| e.chunks as f64).sum(),
        "count",
    );
    deterministic.put(
        "store.bytes_decoded",
        expected.iter().map(|e| e.fetched_bytes as f64).sum(),
        "bytes",
    );
    record.push((
        "decoded_bytes_per_pass".to_string(),
        expected
            .iter()
            .map(|e| e.decoded_bytes)
            .sum::<f64>()
            .to_string(),
    ));
    record.push((
        "stored_bytes".to_string(),
        stored.iter().sum::<u64>().to_string(),
    ));

    if !args.trace {
        let clock = LoopClock::start();
        let (reads, bad) = timed_loop(&readers, &expected, None, args.seconds);
        let totals = clock.finish();
        attempted += reads.len() as u64;
        failed += bad;
        setup_s.put(&mut metrics, &mut record);
        let ops: Vec<Op> = reads.iter().map(|r| r.1).collect();
        put_timing(&ops, false, TAIL, &totals, &mut metrics, &mut record);
        metrics.put(
            "compression_ratio",
            raw_bytes * stored.len() as f64 / stored.iter().sum::<u64>() as f64,
            "x",
        );
        metrics.put(
            "psnr_db",
            psnr.iter().copied().fold(f64::INFINITY, f64::min),
            "dB",
        );
    } else {
        let tr = Tracer::new();
        let (plain, bad_plain) = timed_loop(&readers, &expected, None, args.seconds / 2.0);
        let (traced_reads, bad_traced) =
            timed_loop(&readers, &expected, Some(&tr), args.seconds / 2.0);
        attempted += (plain.len() + traced_reads.len()) as u64;
        failed += bad_plain + bad_traced;
        let ops = |v: &[(usize, Op)]| v.iter().map(|r| r.1).collect::<Vec<_>>();
        metrics.put(
            "trace.overhead_pct",
            overhead_pct(&ops(&plain), &ops(&traced_reads)),
            "%",
        );
        metrics.put(
            "store.assembly_ms",
            mean(&tr.self_times_us("store.read_all")) / 1e3,
            "ms",
        );
        // Parallel efficiency: serial decode_chunk over every chunk of every
        // store against the untraced read_all wall time of the same chunks.
        let mut serial = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            for r in &readers {
                for (l, lm) in r.meta().levels.iter().enumerate() {
                    for c in 0..lm.chunks.len() {
                        failed += u64::from(r.decode_chunk(l, c).is_err());
                    }
                }
            }
            serial.push(t.elapsed().as_secs_f64());
        }
        let serial_s = mean(&serial);
        let wall_s: f64 = (0..readers.len())
            .map(|i| {
                mean(
                    &plain
                        .iter()
                        .filter(|r| r.0 == i)
                        .map(|r| r.1.secs)
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        metrics.put(
            "store.read_parallel_eff",
            serial_s / (wall_s * threads),
            "ratio",
        );
        let refs: Vec<&StoreReader> = readers.iter().collect();
        failed += chunks::measure(&refs, &tr, 5, &mut metrics);
        metrics.0.extend(deterministic.0.iter().cloned());
        crate::write_trace(args, &tr);
    }
    record.push(("setup_repeats_bytes".to_string(), setup_repeats.to_string()));
    Report {
        attempted,
        failed,
        correct: failed == 0 && setup_repeats,
        metrics,
        record,
        deterministic,
    }
}
