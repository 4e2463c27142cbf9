//! `ingest`: the in-situ producer path. Each round turns one WarpX-like
//! uniform field into adaptive multi-resolution data (ROI extraction) and
//! writes it as an in-memory store once per codec. Nothing is decoded in
//! the timed loop.

use crate::trace::{timed, traced, Tracer};
use crate::util::{
    backends, max_abs_error, mean, overhead_pct, put_timing, repeat_setup, LoopClock, Metrics, Op,
    Report, MB,
};
use crate::Args;
use hqmr_codec::{huffman_decode, huffman_encode_packed, tag, unpack_maybe_rle, Codec, Container};
use hqmr_grid::{synth, Dims3, Field3};
use hqmr_mr::{to_adaptive, MultiResData, RoiConfig, Upsample};
use hqmr_store::{encode_prepared_store, prepare_store, write_store, StoreConfig, StoreReader};
use std::time::Instant;

/// Relative error bound of every store this workload writes.
const REL_EB: f64 = 1e-3;

/// `tail_ms` quantile. A run makes a few dozen snapshots, so this tail
/// rests on its few slowest ones.
const TAIL: f64 = 0.9;

struct Setup {
    field: Field3,
    roi: RoiConfig,
    cfg: StoreConfig,
    codecs: Vec<(&'static str, Box<dyn Codec>)>,
}

/// One snapshot: ROI extraction, then one store per codec. Untraced, the
/// stores come from the public `write_store`; traced, from its two stages
/// called one by one, so each gets a span. Returns the adaptive data, the
/// stores, and the round's wall time in seconds.
fn round(s: &Setup, tr: Option<&Tracer>, req: u64) -> (MultiResData, Vec<Vec<u8>>, f64) {
    let t = Instant::now();
    let (mr, stores) = traced(tr, "ingest.round", 0, req, |root| {
        let mr = traced(tr, "mr.to_adaptive", root, req, |_| {
            to_adaptive(&s.field, &s.roi)
        });
        let stores = s
            .codecs
            .iter()
            .map(|(_, codec)| match tr {
                None => write_store(&mr, &s.cfg, codec.as_ref()),
                Some(t) => {
                    let prepared = t.span("store.prepare_store", root, req, |_| {
                        prepare_store(&mr, &s.cfg)
                    });
                    t.span("store.encode_prepared_store", root, req, |_| {
                        encode_prepared_store(&mr, &prepared, &s.cfg, codec.as_ref())
                    })
                }
            })
            .collect();
        (mr, stores)
    });
    (mr, stores, t.elapsed().as_secs_f64())
}

/// Runs rounds for `secs` (at least three), checking every round's stores
/// against the reference bytes. Returns the rounds and how many failed.
fn timed_loop(s: &Setup, reference: &[Vec<u8>], tr: Option<&Tracer>, secs: f64) -> (Vec<Op>, u64) {
    let raw_bytes = s.field.len() as f64 * 4.0;
    let start = Instant::now();
    let (mut rounds, mut failed) = (Vec::new(), 0);
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let (_, stores, dt) = round(s, tr, rounds.len() as u64 + 1);
        rounds.push(Op {
            secs: dt,
            bytes: raw_bytes,
        });
        if stores != reference {
            failed += 1;
        }
    }
    (rounds, failed)
}

pub fn run(args: &Args) -> Report {
    let dims = if args.tiny {
        Dims3::new(16, 16, 128)
    } else {
        Dims3::new(128, 128, 1024)
    };
    let field = synth::warpx_like(dims, args.seed);
    let eb = field.range() as f64 * REL_EB;
    let s = Setup {
        field,
        roi: RoiConfig::paper_default(),
        cfg: StoreConfig::new(eb),
        codecs: backends().iter().map(|(n, b)| (*n, b.codec())).collect(),
    };
    let raw_bytes = s.field.len() as f64 * 4.0;

    // Set-up: a producer holds no state between snapshots, so its set-up is
    // the first, cold snapshots before the loop. They also give the
    // reference stores every later round must reproduce byte for byte.
    let ((mr, stores, _), setup_s, setup_repeats) =
        repeat_setup(|| round(&s, None, 0), |out| out.1.clone());

    // Read every reference store back: error bound on stored cells, and
    // quality against the original field.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut cr = Vec::new();
    let mut psnr = Vec::new();
    let mut max_err = Vec::new();
    for ((name, _), buf) in s.codecs.iter().zip(&stores) {
        attempted += 1;
        let back = StoreReader::from_bytes(buf.clone()).and_then(|r| r.read_all());
        let err = back.as_ref().ok().and_then(|b| max_abs_error(&mr, b));
        match (back, err) {
            (Ok(back), Some(err)) if err <= eb => {
                psnr.push((
                    *name,
                    hqmr_metrics::psnr(&s.field, &back.reconstruct(Upsample::Nearest)),
                ));
                max_err.push(err);
            }
            _ => failed += 1,
        }
        cr.push((*name, raw_bytes / buf.len() as f64));
    }

    let mut metrics = Metrics::default();
    let mut record = vec![
        (
            "dims".to_string(),
            format!("[{}, {}, {}]", dims.nx, dims.ny, dims.nz),
        ),
        ("rel_eb".to_string(), REL_EB.to_string()),
        ("raw_bytes".to_string(), raw_bytes.to_string()),
        ("stored_cells".to_string(), mr.total_cells().to_string()),
        (
            "max_abs_error_over_eb".to_string(),
            (max_err.iter().copied().fold(0.0, f64::max) / eb).to_string(),
        ),
    ];
    let mut deterministic = Metrics::default();
    for ((name, _), buf) in s.codecs.iter().zip(&stores) {
        deterministic.put(
            format!("store.bytes_written.{name}"),
            buf.len() as f64,
            "bytes",
        );
    }
    for (name, v) in &cr {
        deterministic.put(format!("compression_ratio.{name}"), *v, "x");
    }
    for (name, v) in &psnr {
        deterministic.put(format!("psnr_db.{name}"), *v, "dB");
    }

    if !args.trace {
        let clock = LoopClock::start();
        let (rounds, bad) = timed_loop(&s, &stores, None, args.seconds);
        let totals = clock.finish();
        attempted += rounds.len() as u64;
        failed += bad;
        setup_s.put(&mut metrics, &mut record);
        put_timing(&rounds, false, TAIL, &totals, &mut metrics, &mut record);
        metrics.put(
            "compression_ratio",
            3.0 * raw_bytes / stores.iter().map(|b| b.len() as f64).sum::<f64>(),
            "x",
        );
        metrics.put(
            "psnr_db",
            psnr.iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
            "dB",
        );
    } else {
        let tr = Tracer::new();
        let (plain, bad_plain) = timed_loop(&s, &stores, None, args.seconds / 2.0);
        let (traced_rounds, bad_traced) = timed_loop(&s, &stores, Some(&tr), args.seconds / 2.0);
        attempted += (plain.len() + traced_rounds.len()) as u64;
        failed += bad_plain + bad_traced;
        metrics.put(
            "trace.overhead_pct",
            overhead_pct(&plain, &traced_rounds),
            "%",
        );
        metrics.put(
            "mr.roi_extract_ms",
            mean(&tr.durations_us("mr.to_adaptive")) / 1e3,
            "ms",
        );
        metrics.put(
            "store.prepare_ms",
            mean(&tr.durations_us("store.prepare_store")) / 1e3,
            "ms",
        );
        let encode_us = tr.durations_us("store.encode_prepared_store");
        metrics.put("store.encode_ms", mean(&encode_us) / 1e3, "ms");
        layer_passes(&s, &mr, &tr, mean(&encode_us), &mut metrics);
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

/// Serial per-chunk compress over the prepared arrays of each codec, and
/// Huffman encode over the code blocks of the resulting chunk streams.
fn layer_passes(s: &Setup, mr: &MultiResData, tr: &Tracer, encode_wall_us: f64, out: &mut Metrics) {
    let prepared = prepare_store(mr, &s.cfg);
    let fields: Vec<&Field3> = prepared.iter().flatten().flat_map(|p| p.fields()).collect();
    let field_bytes: f64 = fields.iter().map(|f| f.len() as f64 * 4.0).sum();
    let mut serial_us = 0.0;
    let mut code_blocks = Vec::new();
    for (name, codec) in &s.codecs {
        let span = match *name {
            "sz3" => "sz3.compress_into",
            "sz2" => "sz2.compress_into",
            _ => "zfp.compress_into",
        };
        let mut codec_us = 0.0;
        for f in &fields {
            let mut stream = Vec::new();
            let ((), us) = timed(Some(tr), span, 0, 0, || {
                codec.compress_into(f, s.cfg.eb, &mut stream)
            });
            codec_us += us;
            let codes = Container::from_bytes(&stream)
                .ok()
                .and_then(|c| c.get(tag(b"QNTC")).and_then(unpack_maybe_rle));
            if let Some(block) = codes {
                code_blocks.push(block);
            }
        }
        serial_us += codec_us;
        out.put(
            format!("{name}.compress_mbps"),
            field_bytes / MB / (codec_us / 1e6),
            "MB/s",
        );
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    out.put(
        "store.encode_parallel_eff",
        serial_us / (encode_wall_us * s.codecs.len() as f64 * threads),
        "ratio",
    );
    let symbols: Vec<Vec<u32>> = code_blocks
        .iter()
        .map(|b| huffman_decode(b).expect("fresh code block decodes"))
        .collect();
    let mut huff_us = 0.0;
    let mut symbol_bytes = 0.0;
    for syms in &symbols {
        let (_, us) = timed(Some(tr), "codec.huffman_encode_packed", 0, 0, || {
            huffman_encode_packed(syms)
        });
        huff_us += us;
        symbol_bytes += syms.len() as f64 * 4.0;
    }
    out.put(
        "codec.huffman_encode_mbps",
        symbol_bytes / MB / (huff_us / 1e6),
        "MB/s",
    );
}
