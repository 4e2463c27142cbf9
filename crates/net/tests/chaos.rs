//! Chaos suite: a real fleet with fault injection armed must degrade, not
//! collapse. Under a seeded storm of injected disconnects, stalls, partial
//! writes, wire bit-flips and chunk corruption, every operation ends in
//! bounded time with either correct data, quality-flagged data, or a typed
//! error — and with chaos off, the degraded path is bit-identical to the
//! exact one.

use hqmr_core::MrcConfig;
use hqmr_core::TemporalWriter;
use hqmr_grid::{synth, Dims3};
use hqmr_mr::{resample_like, to_adaptive, RoiConfig};
use hqmr_net::{
    ChaosConfig, ClientConfig, DatasetSpec, ErrorFrame, NetClient, NetConfig, NetError, NetServer,
    WireStoreError,
};
use hqmr_serve::{Query, StoreServer, UNBOUNDED};
use hqmr_store::temporal::{Prediction, TemporalReader};
use hqmr_store::{parse_head, read, write_store, StoreConfig, StoreError, StoreReader};
use hqmr_sz3::Sz3Codec;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_bytes(seed: u64) -> Vec<u8> {
    let f = synth::nyx_like(16, seed);
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    write_store(
        &mr,
        &StoreConfig::new(1e6).with_chunk_blocks(2),
        &Sz3Codec::default(),
    )
}

fn spawn_fleet(buf: Vec<u8>, chaos: Option<ChaosConfig>) -> NetServer {
    NetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            chaos,
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_secs(5)),
            request_deadline: Some(Duration::from_secs(5)),
            ..NetConfig::default()
        },
        vec![DatasetSpec {
            id: 0,
            name: "chaos".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).expect("open store")),
        }],
    )
    .expect("spawn fleet")
}

fn storm_client_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        request_deadline: Some(Duration::from_secs(3)),
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(5),
        ..ClientConfig::default()
    }
}

/// With chaos off, the degraded read path over the wire is bit-identical
/// to the in-process exact path, and nothing is flagged.
#[test]
fn chaos_off_degraded_reads_are_bit_identical_to_exact() {
    let buf = store_bytes(400);
    let oracle = StoreServer::new(
        Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
        UNBOUNDED,
    );
    let server = spawn_fleet(buf, None);
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let queries = vec![
        Query::Level { level: 0 },
        Query::Level { level: 1 },
        Query::Roi {
            level: 0,
            lo: [1, 2, 0],
            hi: [15, 10, 16],
            fill: -3.0,
        },
        Query::Iso { level: 0, iso: 5e7 },
    ];
    let remote = client.batch_degraded(0, &queries).unwrap();
    let direct = oracle.serve_batch(&queries).unwrap();
    assert!(
        remote.iter().all(|r| r.is_exact()),
        "nothing may be flagged"
    );
    let responses: Vec<_> = remote.into_iter().map(|r| r.response).collect();
    assert_eq!(responses, direct, "degraded path must serve exact bytes");
}

/// The acceptance storm: a fleet with every fault class armed, hammered by
/// concurrent retrying clients. Requirements: zero hangs (every operation
/// completes within its deadline envelope), every failure is typed, some
/// operations succeed, and degraded answers carry their quality flags.
#[test]
fn seeded_chaos_storm_completes_typed_with_zero_hangs() {
    let chaos =
        ChaosConfig::parse("drop:0.03,partial:0.03,wire:0.02,stall:1ms@0.15,flip:0.05,seed:4242")
            .unwrap();
    let server = spawn_fleet(store_bytes(410), Some(chaos));
    let addr = server.local_addr();

    const THREADS: usize = 8;
    const OPS: usize = 25;
    // Generous per-op bound: deadline (3s) + retries (12) × backoff cap.
    const HANG: Duration = Duration::from_secs(60);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut cfg = storm_client_cfg();
                cfg.jitter_seed = 0x5EED ^ t as u64;
                // Chaos also shoots down handshakes; keep dialing until one
                // survives (typed transport failures only).
                let mut client = (0..100)
                    .find_map(|_| match NetClient::connect_with(addr, cfg.clone()) {
                        Ok(c) => Some(c),
                        Err(NetError::Io(_) | NetError::Protocol(_) | NetError::TimedOut) => {
                            std::thread::sleep(Duration::from_millis(2));
                            None
                        }
                        Err(e) => panic!("storm connect: {e:?}"),
                    })
                    .expect("no handshake survived 100 dials");
                let mut ok = 0u32;
                let mut degraded = 0u32;
                let mut gave_up = 0u32;
                for i in 0..OPS {
                    let queries = [Query::Level {
                        level: (i % 2) as u32 as usize,
                    }];
                    let t0 = Instant::now();
                    match client.batch_degraded_retry(0, &queries, 12) {
                        Ok(rs) => {
                            ok += 1;
                            if rs.iter().any(|r| !r.is_exact()) {
                                degraded += 1;
                            }
                        }
                        // Typed transport-level give-ups are acceptable
                        // storm outcomes; anything untyped is a bug and
                        // panics the thread.
                        Err(NetError::RetriesExhausted { .. }) => gave_up += 1,
                        Err(
                            e @ (NetError::Io(_)
                            | NetError::Protocol(_)
                            | NetError::TimedOut
                            | NetError::Busy
                            | NetError::DeadlineExceeded
                            | NetError::TooManyConnections
                            | NetError::UnexpectedResponse),
                        ) => panic!("retry wrapper must absorb or wrap, got {e:?}"),
                        Err(NetError::Remote(e)) => panic!("unexpected remote error: {e}"),
                    }
                    let elapsed = t0.elapsed();
                    assert!(elapsed < HANG, "op {i} on thread {t} hung for {elapsed:?}");
                }
                (ok, degraded, gave_up)
            })
        })
        .collect();

    let mut total_ok = 0u32;
    for h in handles {
        let (ok, _degraded, _gave_up) = h.join().expect("storm thread must not panic");
        total_ok += ok;
    }
    assert!(total_ok > 0, "the storm must make some progress");
}

/// End-to-end at-rest corruption: flip one byte inside a chunk's compressed
/// payload. The exact path fails the batch with the typed `CorruptChunk`;
/// the degraded path serves the batch and flags exactly that chunk.
#[test]
fn corrupt_store_chunk_fails_exact_and_flags_degraded() {
    let mut buf = store_bytes(420);
    let (meta, data_start) = parse_head(&buf).expect("parse store head");
    let cm = &meta.levels[0].chunks[0];
    assert!(cm.len > 0);
    let victim = data_start as usize + cm.offset as usize;
    buf[victim] ^= 0xFF;

    let server = spawn_fleet(buf, None);
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let queries = [Query::Level { level: 0 }];

    match client.batch(0, &queries) {
        Err(NetError::Remote(ErrorFrame::Store(
            WireStoreError::CorruptChunk { level: 0, block: 0 }
            | WireStoreError::Codec {
                level: 0, block: 0, ..
            },
        ))) => {}
        other => panic!("exact read of a corrupt chunk must fail typed, got {other:?}"),
    }

    let rs = client
        .batch_degraded(0, &queries)
        .expect("degraded read succeeds");
    assert_eq!(rs.len(), 1);
    assert_eq!(
        rs[0].degraded,
        vec![(0, 0)],
        "exactly the corrupt chunk is flagged"
    );
    // The filled data is usable: finite everywhere.
    match &rs[0].response {
        hqmr_serve::Response::Level(ld) => {
            assert!(ld
                .blocks
                .iter()
                .flat_map(|b| b.data.iter())
                .all(|v| v.is_finite()));
        }
        other => panic!("expected a Level response, got {other:?}"),
    }
}

/// With parity sidecars armed, chunk-rot chaos stops being degradation:
/// every faulted chunk is reconstructed from parity and served bit-exactly
/// through the *exact* path, and the wire stats report the repairs.
#[test]
fn flip_chaos_with_parity_serves_exact_over_the_wire() {
    let buf = store_bytes(430);
    let oracle = StoreServer::new(
        Arc::new(StoreReader::from_bytes(buf.clone()).unwrap()),
        UNBOUNDED,
    );
    // flip:1 faults every chunk on first fetch — the worst case rot —
    // while parity reconstruction reads the clean at-rest bytes.
    let chaos = ChaosConfig::parse("flip:1,seed:4242").unwrap();
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            chaos: Some(chaos),
            parity_group: 4,
            ..NetConfig::default()
        },
        vec![DatasetSpec {
            id: 0,
            name: "healed".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).expect("open store")),
        }],
    )
    .expect("spawn fleet");
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let queries = vec![Query::Level { level: 0 }, Query::Level { level: 1 }];
    let remote = client.batch(0, &queries).expect("exact batch heals");
    assert_eq!(remote, oracle.serve_batch(&queries).unwrap());

    // The degraded path flags nothing: repair beat the fill fallback.
    let rs = client.batch_degraded(0, &queries).unwrap();
    assert!(
        rs.iter().all(|r| r.is_exact()),
        "repairs must not be flagged"
    );

    let stats = client.stats(0, false).unwrap();
    assert!(stats.cache.repairs > 0, "repairs must be counted");
    assert_eq!(stats.cache.repair_failures, 0);
}

/// The background scrubber heals a faulted tenant before any client query:
/// after one pass completes, the wire stats show scrub activity and a
/// subsequent exact read needs no on-demand repair.
#[test]
fn background_scrubber_reports_progress_over_the_wire() {
    let buf = store_bytes(440);
    let server = NetServer::spawn(
        "127.0.0.1:0",
        NetConfig {
            workers: 1,
            parity_group: 4,
            scrub_rate: Some(u64::MAX), // no pacing: finish a pass promptly
            ..NetConfig::default()
        },
        vec![DatasetSpec {
            id: 0,
            name: "scrubbed".into(),
            reader: Arc::new(StoreReader::from_bytes(buf).expect("open store")),
        }],
    )
    .expect("spawn fleet");
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats(0, false).unwrap();
        if stats.scrub_passes > 0 {
            assert!(stats.scrub_verified > 0, "a pass verifies every chunk");
            assert_eq!(stats.scrub_unrepairable, 0, "the store is healthy");
            break;
        }
        assert!(Instant::now() < deadline, "scrubber made no pass in 30s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Builds a short delta-predicted temporal run on disk (parity sidecars
/// included) and returns its directory.
fn temporal_run(name: &str, steps: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let frames = synth::advected_sequence(Dims3::cube(16), steps, [0.5, 0.25, 0.0], 33);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    let cfg = MrcConfig::baseline(0.02);
    let mut writer = TemporalWriter::create(&dir, &cfg, Prediction::delta()).unwrap();
    for (t, f) in frames.iter().enumerate() {
        writer
            .append(t as u64, &resample_like(&template, f))
            .unwrap();
    }
    dir
}

/// The temporal storm: 8 threads hammer a temporal [`StoreServer`] whose every
/// stored-chunk fetch faults, with disk parity armed. Requirements mirror
/// the wire storm: zero hangs, every answer either bit-exact (healed) or a
/// typed error — and with parity in place, all of them heal.
#[test]
fn temporal_chaos_storm_heals_every_frame() {
    const STEPS: usize = 4;
    let dir = temporal_run("hqnw_chaos_temporal_storm", STEPS);
    let clean = TemporalReader::open(&dir).unwrap();
    let oracle: Vec<_> = (0..STEPS).map(|t| clean.read_frame(t).unwrap()).collect();

    let reader = Arc::new(TemporalReader::open(&dir).unwrap());
    let server = Arc::new(
        StoreServer::temporal(Arc::clone(&reader), UNBOUNDED)
            .expect("the run has frames")
            .with_fault_hook(Arc::new(|_, _| true)) // every fetch rots
            .with_disk_parity()
            .expect("sidecars written by TemporalWriter"),
    );
    assert!(server.has_parity());

    const THREADS: usize = 8;
    const OPS: usize = 16;
    const HANG: Duration = Duration::from_secs(60);
    let oracle = Arc::new(oracle);
    let handles: Vec<_> = (0..THREADS)
        .map(|th| {
            let server = Arc::clone(&server);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let t = (th + i) % STEPS;
                    let t0 = Instant::now();
                    let frame = read::read_all(&server.frame(t).unwrap())
                        .expect("parity heals every fault");
                    assert_eq!(frame, oracle[t], "healed frame {t} must be bit-exact");
                    let elapsed = t0.elapsed();
                    assert!(elapsed < HANG, "op {i} on thread {th} hung for {elapsed:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread must not panic");
    }

    let stats = server.stats();
    assert!(stats.repairs > 0, "faults were injected, repairs must show");
    assert_eq!(
        stats.repair_failures, 0,
        "single-fault rot is always healable"
    );

    // The same storm *without* parity must fail typed, not hang or panic.
    let bare = StoreServer::temporal(reader, UNBOUNDED)
        .expect("the run has frames")
        .with_fault_hook(Arc::new(|_, _| true));
    match read::read_all(&bare.frame(0).unwrap()) {
        Err(StoreError::CorruptChunk { .. }) => {}
        other => panic!("unarmed server must fail typed, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
