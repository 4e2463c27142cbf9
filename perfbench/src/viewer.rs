//! `viewer`: interactive remote exploration. One in-process `NetServer`
//! hosts two file-backed sz3 stores over TCP loopback with two shard
//! workers and a cache budget of a quarter of the decoded data. Two
//! closed-loop clients each hold one connection and send one-query batches
//! in passes over the viewer mix of the repo's `tables serve` and
//! `tables net` benches (eight sweeping ROI bricks, an isovalue skim, a
//! coarse overview), each pass on a dataset picked uniformly.

use crate::scan::{unit_for, NYX_T1, NYX_T2};
use crate::trace::{timed, traced, Tracer};
use crate::util::{
    digest_response, mean, median, nyx_field, overhead_pct, put_timing, repeat_setup,
    response_bytes, LoopClock, Metrics, Op, Report, Rng, WorkDir,
};
use crate::{chunks, Args};
use hqmr_core::Backend;
use hqmr_grid::Field3;
use hqmr_mr::{to_amr, AmrConfig, MultiResData, Upsample};
use hqmr_net::proto::{write_frame, Kind};
use hqmr_net::{DatasetSpec, NetClient, NetConfig, NetResponse, NetServer};
use hqmr_serve::{partition_budget, Query, StoreServer};
use hqmr_store::{write_store, StoreConfig, StoreReader};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const REL_EB: f64 = 8e-3;
/// `tail_ms` quantile: an interactive user waits on every request, and a
/// run has well over ten requests beyond the 99th percentile.
const TAIL: f64 = 0.99;
const CHUNK_BLOCKS: usize = 4;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Requests the in-process serve replay re-issues at most.
const REPLAY_MAX: usize = 2000;

struct Dataset {
    name: &'static str,
    field: Field3,
    mr: MultiResData,
    cfg: StoreConfig,
    min: f32,
    iso: f32,
}

/// Queries per dataset. A query index `qi` names query `qi % PER_DATASET`
/// of dataset `qi / PER_DATASET`.
const PER_DATASET: usize = 10;

/// Query `k` of one pass over a dataset: the viewer mix of `tables serve`
/// and `tables net` (crates/bench/src/experiments.rs). Eight ROI bricks of
/// ½ × ½ × ¼ of the fine level sweep it, the last four revisiting the
/// regions of the first four as a panning viewer does; then an isovalue
/// skim of the fine level at 60% of the value range and an overview of the
/// coarsest level.
fn query(datasets: &[Dataset], qi: usize) -> Query {
    let ds = &datasets[qi / PER_DATASET];
    let fine = ds.mr.levels[0].dims;
    let brick = [
        (fine.nx / 2).max(1),
        (fine.ny / 2).max(1),
        (fine.nz / 4).max(1),
    ];
    match qi % PER_DATASET {
        k if k < 8 => {
            let lo = [
                (k % 2) * (fine.nx - brick[0]),
                ((k / 2) % 2) * (fine.ny - brick[1]),
                (k % 4) * (fine.nz - brick[2]) / 3,
            ];
            Query::Roi {
                level: 0,
                lo,
                hi: [lo[0] + brick[0], lo[1] + brick[1], lo[2] + brick[2]],
                fill: ds.min,
            }
        }
        8 => Query::Iso {
            level: 0,
            iso: ds.iso,
        },
        _ => Query::Level {
            level: ds.mr.levels.len() - 1,
        },
    }
}

/// Seeded request stream of one client: back-to-back passes over the mix,
/// each on a dataset picked uniformly, the first entered at a seeded query.
struct Stream {
    rng: Rng,
    datasets: usize,
    ds: usize,
    k: usize,
}

impl Stream {
    fn new(seed: u64, client: usize, datasets: usize) -> Self {
        let mut rng = Rng::new(seed.wrapping_add(0x5EED * (client as u64 + 1)));
        let (ds, k) = (rng.below(datasets), rng.below(PER_DATASET));
        Stream {
            rng,
            datasets,
            ds,
            k,
        }
    }

    /// The next `(dataset, query index)`.
    fn next(&mut self) -> (usize, usize) {
        let out = (self.ds, self.ds * PER_DATASET + self.k);
        self.k += 1;
        if self.k == PER_DATASET {
            self.k = 0;
            self.ds = self.rng.below(self.datasets);
        }
        out
    }
}

/// The running fleet of one set-up.
struct Fleet {
    server: NetServer,
    clients: Vec<NetClient>,
    readers: Vec<Arc<StoreReader>>,
    budget: usize,
    stores: Vec<Vec<u8>>,
}

fn start_fleet(datasets: &[Dataset], dir: &WorkDir) -> std::io::Result<Fleet> {
    let codec = Backend::SZ3_PAPER.codec();
    let mut stores = Vec::new();
    let mut readers = Vec::new();
    for ds in datasets {
        let path = dir.file(&format!("{}.hqst", ds.name));
        let buf = write_store(&ds.mr, &ds.cfg, codec.as_ref());
        std::fs::write(&path, &buf)?;
        stores.push(buf);
        readers.push(Arc::new(
            StoreReader::open(&path).map_err(std::io::Error::other)?,
        ));
    }
    let decoded: usize = datasets.iter().map(|d| d.mr.total_cells() * 4).sum();
    let budget = decoded / 4;
    let specs = readers
        .iter()
        .zip(datasets)
        .enumerate()
        .map(|(i, (r, d))| DatasetSpec {
            id: i as u32,
            name: d.name.to_string(),
            reader: Arc::clone(r),
        })
        .collect();
    let cfg = NetConfig {
        workers: WORKERS,
        cache_budget: budget,
        ..NetConfig::default()
    };
    let server = NetServer::spawn("127.0.0.1:0", cfg, specs)?;
    let clients = (0..CLIENTS)
        .map(|_| NetClient::connect(server.local_addr()).map_err(std::io::Error::other))
        .collect::<Result<_, _>>()?;
    Ok(Fleet {
        server,
        clients,
        readers,
        budget,
        stores,
    })
}

impl Drop for Fleet {
    /// Hangs up the clients first so the server's connection threads see
    /// end-of-stream, then stops and joins the server.
    fn drop(&mut self) {
        self.clients.clear();
        self.server.shutdown();
    }
}

/// One client's share of a timed loop.
#[derive(Default)]
struct Load {
    ops: Vec<Op>,
    failed: u64,
    /// `(dataset, query index)` of every request, in order.
    issued: Vec<(usize, usize)>,
}

/// Both clients in closed loop for `secs`. Each response's digest is
/// checked against the precomputed answer after its latency is taken.
fn timed_loop(
    fleet: &mut Fleet,
    datasets: &[Dataset],
    streams: &mut [Stream],
    expected: &[(u64, u64)],
    tr: Option<&Tracer>,
    secs: f64,
) -> Vec<Load> {
    let next_req = std::sync::atomic::AtomicU64::new(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = fleet
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                let next_req = &next_req;
                s.spawn(move || {
                    let mut load = Load::default();
                    while start.elapsed().as_secs_f64() < secs {
                        let (ds, qi) = stream.next();
                        let q = query(datasets, qi);
                        let req = next_req.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let t = Instant::now();
                        let out = traced(tr, "net.NetClient::batch", 0, req, |_| {
                            client.batch(ds as u32, &[q])
                        });
                        let secs = t.elapsed().as_secs_f64();
                        load.issued.push((ds, qi));
                        match out {
                            Ok(r) if r.len() == 1 && digest_response(&r[0]) == expected[qi].0 => {
                                load.ops.push(Op {
                                    secs,
                                    bytes: expected[qi].1 as f64,
                                });
                            }
                            _ => load.failed += 1,
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(args: &Args) -> Report {
    let scale = if args.tiny { 32 } else { 128 };
    let unit = unit_for(scale);
    let datasets: Vec<Dataset> = [
        ("nyx_t1", NYX_T1, [0.18, 0.82]),
        ("nyx_t2", NYX_T2, [0.58, 0.42]),
    ]
    .into_iter()
    .map(|(name, realization, dens)| {
        let field = nyx_field(scale, realization, args.seed);
        let mr = to_amr(&field, &AmrConfig::new(unit, dens.to_vec()));
        let (mn, mx) = field.min_max();
        let cfg = StoreConfig::new(field.range() as f64 * REL_EB).with_chunk_blocks(CHUNK_BLOCKS);
        Dataset {
            name,
            min: mn,
            iso: mn + 0.6 * (mx - mn),
            field,
            mr,
            cfg,
        }
    })
    .collect();
    let dir = WorkDir::new("viewer").expect("create the store directory");

    // Set-up: write and open both stores, start the server, connect.
    let (mut fleet, setup_s, setup_repeats) = repeat_setup(
        || start_fleet(&datasets, &dir).expect("start the viewer fleet"),
        |f| f.stores.clone(),
    );

    // Expected answers, from plain readers over the same files:
    // (digest, payload bytes) per query index.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut expected = Vec::new();
    let mut psnr = Vec::new();
    let mut working_set = BTreeSet::new();
    for (d, ds) in datasets.iter().enumerate() {
        let reader =
            StoreReader::open(dir.file(&format!("{}.hqst", ds.name))).expect("reopen store");
        for k in 0..PER_DATASET {
            let q = query(&datasets, d * PER_DATASET + k);
            let answer = match q {
                Query::Roi {
                    level,
                    lo,
                    hi,
                    fill,
                } => {
                    for c in reader.roi_chunk_indices(level, lo, hi).unwrap_or_default() {
                        working_set.insert((d, level, c));
                    }
                    reader
                        .read_roi(level, lo, hi, fill)
                        .map(hqmr_serve::Response::Roi)
                }
                Query::Iso { level, iso } => {
                    for c in reader.iso_chunk_indices(level, iso).unwrap_or_default() {
                        working_set.insert((d, level, c));
                    }
                    reader
                        .read_level_iso(level, iso)
                        .map(hqmr_serve::Response::Iso)
                }
                Query::Level { level } => {
                    for c in 0..reader.meta().levels[level].chunks.len() {
                        working_set.insert((d, level, c));
                    }
                    reader.read_level(level).map(hqmr_serve::Response::Level)
                }
            };
            attempted += 1;
            match answer {
                Ok(r) => expected.push((digest_response(&r), response_bytes(&r))),
                Err(_) => {
                    failed += 1;
                    expected.push((0, 0));
                }
            }
        }
        attempted += 1;
        match reader.read_all() {
            Ok(back) => psnr.push(hqmr_metrics::psnr(
                &ds.field,
                &back.reconstruct(Upsample::Nearest),
            )),
            Err(_) => failed += 1,
        }
    }
    let working_set_bytes: u64 = working_set
        .iter()
        .map(|&(d, l, c)| {
            let lm = &fleet.readers[d].meta().levels[l];
            (lm.chunks[c].slots.len() * lm.unit.pow(3) * 4) as u64
        })
        .sum();

    let raw_bytes: f64 = datasets.iter().map(|d| d.field.len() as f64 * 4.0).sum();
    let stored: f64 = fleet.stores.iter().map(|b| b.len() as f64).sum();
    let mut record = vec![
        ("scale".to_string(), scale.to_string()),
        ("rel_eb".to_string(), REL_EB.to_string()),
        ("chunk_blocks".to_string(), CHUNK_BLOCKS.to_string()),
        ("clients".to_string(), CLIENTS.to_string()),
        ("workers".to_string(), WORKERS.to_string()),
        ("raw_bytes".to_string(), raw_bytes.to_string()),
        ("stored_bytes".to_string(), stored.to_string()),
        (
            "decoded_bytes".to_string(),
            datasets
                .iter()
                .map(|d| d.mr.total_cells() * 4)
                .sum::<usize>()
                .to_string(),
        ),
        ("cache_budget_bytes".to_string(), fleet.budget.to_string()),
        (
            "working_set_bytes".to_string(),
            working_set_bytes.to_string(),
        ),
    ];
    // Both stores are sz3: the codec-keyed names other workloads use.
    let mut deterministic = Metrics::default();
    deterministic.put("store.bytes_written.sz3", stored, "bytes");
    deterministic.put("compression_ratio.sz3", raw_bytes / stored, "x");
    deterministic.put(
        "psnr_db.sz3",
        psnr.iter().copied().fold(f64::INFINITY, f64::min),
        "dB",
    );

    let mut streams: Vec<Stream> = (0..CLIENTS)
        .map(|c| Stream::new(args.seed, c, datasets.len()))
        .collect();
    let mut metrics = Metrics::default();
    if !args.trace {
        let clock = LoopClock::start();
        let loads = timed_loop(
            &mut fleet,
            &datasets,
            &mut streams,
            &expected,
            None,
            args.seconds,
        );
        let totals = clock.finish();
        let ops: Vec<Op> = loads.iter().flat_map(|l| l.ops.iter().copied()).collect();
        attempted += loads.iter().map(|l| l.issued.len() as u64).sum::<u64>();
        failed += loads.iter().map(|l| l.failed).sum::<u64>();
        setup_s.put(&mut metrics, &mut record);
        put_timing(&ops, true, TAIL, &totals, &mut metrics, &mut record);
        let (cache, bad) = cache_stats(&mut fleet, datasets.len());
        failed += bad;
        for (k, v) in [
            (
                "cache_hit_ratio",
                cache.hits as f64 / cache.requests.max(1) as f64,
            ),
            (
                "cache_misses_per_request",
                cache.misses as f64 / ops.len().max(1) as f64,
            ),
            ("cache_shared_waits", cache.shared as f64),
        ] {
            record.push((k.to_string(), v.to_string()));
        }
        metrics.put("compression_ratio", raw_bytes / stored, "x");
        metrics.put(
            "psnr_db",
            psnr.iter().copied().fold(f64::INFINITY, f64::min),
            "dB",
        );
    } else {
        let tr = Tracer::new();
        let half = args.seconds / 2.0;
        let plain = timed_loop(&mut fleet, &datasets, &mut streams, &expected, None, half);
        // Drain the tenants' cache windows so the stats cover the traced half.
        for d in 0..datasets.len() {
            failed += u64::from(fleet.clients[0].stats(d as u32, true).is_err());
        }
        let loads = timed_loop(
            &mut fleet,
            &datasets,
            &mut streams,
            &expected,
            Some(&tr),
            half,
        );
        let (cache, bad) = cache_stats(&mut fleet, datasets.len());
        failed += bad;
        let ops = |v: &[Load]| {
            v.iter()
                .flat_map(|l| l.ops.iter().copied())
                .collect::<Vec<_>>()
        };
        let (ops_plain, ops_traced) = (ops(&plain), ops(&loads));
        let rtt: Vec<f64> = ops_traced.iter().map(|o| o.secs).collect();
        attempted += plain
            .iter()
            .chain(&loads)
            .map(|l| l.issued.len() as u64)
            .sum::<u64>();
        failed += plain.iter().chain(&loads).map(|l| l.failed).sum::<u64>();
        metrics.put(
            "trace.overhead_pct",
            overhead_pct(&ops_plain, &ops_traced),
            "%",
        );
        metrics.put(
            "serve.hit_ratio",
            cache.hits as f64 / cache.requests.max(1) as f64,
            "ratio",
        );
        metrics.put(
            "serve.misses_per_request",
            cache.misses as f64 / rtt.len().max(1) as f64,
            "count/req",
        );
        metrics.put("serve.shared_waits", cache.shared as f64, "count");
        metrics.put("serve.evictions", cache.evictions as f64, "count");
        metrics.put(
            "net.busy_rejections",
            fleet.server.busy_rejections() as f64,
            "count",
        );
        metrics.put(
            "net.deadline_rejections",
            fleet.server.deadline_rejections() as f64,
            "count",
        );

        // In-process replay at the same per-tenant budgets: serve time per
        // batch and the frame costs of each answer. The replay servers are
        // first warmed, untimed, with the plain half's requests, as the live
        // server was, then time the traced half's requests; both streams are
        // interleaved in client order.
        let weights: Vec<u64> = fleet
            .readers
            .iter()
            .map(|r| r.meta().compressed_bytes())
            .collect();
        let servers: Vec<StoreServer> = fleet
            .readers
            .iter()
            .zip(partition_budget(fleet.budget, &weights))
            .map(|(r, b)| StoreServer::new(Arc::clone(r), b))
            .collect();
        let interleave = |loads: &[Load]| -> Vec<(usize, usize)> {
            let longest = loads.iter().map(|l| l.issued.len()).max().unwrap_or(0);
            (0..longest)
                .flat_map(|i| loads.iter().filter_map(move |l| l.issued.get(i).copied()))
                .collect()
        };
        let warm = interleave(&plain);
        attempted += warm.len() as u64;
        for (ds, qi) in warm {
            failed += u64::from(servers[ds].serve_batch(&[query(&datasets, qi)]).is_err());
        }
        let mut replay = interleave(&loads);
        replay.truncate(REPLAY_MAX);
        let (mut hit_us, mut miss_us, mut enc_us, mut dec_us, mut kib) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (n, &(ds, qi)) in replay.iter().enumerate() {
            let req = n as u64 + 1;
            let server = &servers[ds];
            let misses = server.stats().misses;
            let q = query(&datasets, qi);
            let (out, us) = timed(Some(&tr), "serve.StoreServer::serve_batch", 0, req, || {
                server.serve_batch(&[q])
            });
            let Ok(responses) = out else {
                failed += 1;
                continue;
            };
            if server.stats().misses == misses {
                hit_us.push(us);
            } else {
                miss_us.push(us);
            }
            let resp = NetResponse::Batch(responses);
            let (frame, us) = timed(Some(&tr), "net.NetResponse::encode", 0, req, || {
                let body = resp.encode();
                let mut frame = Vec::with_capacity(body.len() + 17);
                write_frame(&mut frame, Kind::RBatch, req, &body).expect("write to a Vec");
                frame
            });
            enc_us.push(us);
            kib.push(frame.len() as f64 / 1024.0);
            let (back, us) = timed(Some(&tr), "net.NetResponse::decode", 0, req, || {
                NetResponse::decode(Kind::RBatch, &frame[hqmr_net::proto::HEADER_LEN..])
            });
            dec_us.push(us);
            match back {
                Ok(NetResponse::Batch(r))
                    if r.len() == 1 && digest_response(&r[0]) == expected[qi].0 => {}
                _ => failed += 1,
            }
        }
        attempted += replay.len() as u64;
        metrics.put("serve.batch_hit_us", median_or_zero(&hit_us), "us");
        metrics.put("serve.batch_miss_us", median_or_zero(&miss_us), "us");
        metrics.put("net.frame_encode_us", mean(&enc_us), "us");
        metrics.put("net.frame_decode_us", mean(&dec_us), "us");
        metrics.put("net.response_kib", mean(&kib), "KiB");
        let serve_us = mean(&hit_us.iter().chain(&miss_us).copied().collect::<Vec<_>>());
        metrics.put(
            "net.transport_us",
            mean(&rtt) * 1e6 - serve_us - mean(&enc_us) - mean(&dec_us),
            "us",
        );
        let refs: Vec<&StoreReader> = fleet.readers.iter().map(|r| r.as_ref()).collect();
        failed += chunks::measure(&refs, &tr, 3, &mut metrics);
        metrics.0.extend(deterministic.0.iter().cloned());
        crate::write_trace(args, &tr);
    }
    drop(fleet);
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

/// The server's cache counters since the last take, summed over the
/// tenants and taken (reset), and how many of the stats requests failed.
fn cache_stats(fleet: &mut Fleet, datasets: usize) -> (hqmr_serve::CacheStats, u64) {
    let mut cache = hqmr_serve::CacheStats::default();
    let mut failed = 0;
    for d in 0..datasets {
        match fleet.clients[0].stats(d as u32, true) {
            Ok(s) => {
                cache.requests += s.cache.requests;
                cache.hits += s.cache.hits;
                cache.shared += s.cache.shared;
                cache.misses += s.cache.misses;
                cache.evictions += s.cache.evictions;
            }
            Err(_) => failed += 1,
        }
    }
    (cache, failed)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}
