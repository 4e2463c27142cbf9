//! The load harness behind the serving benches: the query mixes, a
//! one-dataset loopback fleet, one closed-loop TCP driver and the
//! percentile helper that summarizes its latencies.

use hqmr_mr::MultiResData;
use hqmr_net::{ChaosConfig, ClientConfig, DatasetSpec, NetClient, NetConfig, NetError, NetServer};
use hqmr_serve::Query;
use hqmr_store::StoreReader;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An operation running this long counts as a hang: far beyond the
/// deadline + full-backoff envelope of one retried request.
pub const HANG: Duration = Duration::from_secs(10);

/// The query mix one interactive client issues per pass: eight ROI bricks
/// sweeping the fine level (half of them revisiting earlier regions, as a
/// panning viewer does), one isovalue skim of the fine level, and the
/// coarsest level as an overview.
pub fn viewer_mix(mr: &MultiResData, fill: f32, iso: f32) -> Vec<Query> {
    let (fine, coarsest) = (mr.levels[0].dims, mr.levels.len() - 1);
    let brick = [fine.nx / 2, fine.ny / 2, fine.nz / 4].map(|n| n.max(1));
    let mut mix: Vec<Query> = (0..8usize)
        .map(|k| {
            let lo = [
                (k % 2) * (fine.nx - brick[0]),
                ((k / 2) % 2) * (fine.ny - brick[1]),
                (k % 4) * (fine.nz - brick[2]) / 3,
            ];
            let hi = [lo[0] + brick[0], lo[1] + brick[1], lo[2] + brick[2]];
            Query::Roi {
                level: 0,
                lo,
                hi,
                fill,
            }
        })
        .collect();
    mix.push(Query::Iso { level: 0, iso });
    mix.push(Query::Level { level: coarsest });
    mix
}

/// The chaos benches' mix: the coarsest level, the fine level's low-corner
/// octant, and an isovalue skim of the fine level.
pub fn chaos_mix(mr: &MultiResData, fill: f32, iso: f32) -> Vec<Query> {
    let (fine, coarsest) = (mr.levels[0].dims, mr.levels.len() - 1);
    let hi = [fine.nx, fine.ny, fine.nz].map(|n| (n / 2).max(1));
    vec![
        Query::Level { level: coarsest },
        Query::Roi {
            level: 0,
            lo: [0, 0, 0],
            hi,
            fill,
        },
        Query::Iso { level: 0, iso },
    ]
}

/// Spawns a loopback fleet hosting the encoded store `store` as dataset 0.
/// Admission is capped at 64 connections, above any client count the
/// benches drive.
pub fn fleet(name: &str, store: &[u8], cfg: NetConfig) -> NetServer {
    let dataset = DatasetSpec {
        id: 0,
        name: name.to_string(),
        reader: Arc::new(StoreReader::from_bytes(store.to_vec()).expect("fresh store parses")),
    };
    let cfg = NetConfig {
        max_connections: 64,
        ..cfg
    };
    NetServer::spawn("127.0.0.1:0", cfg, vec![dataset]).expect("spawn fleet")
}

/// Fleet policy of the chaos benches (`faults`, `scrub`): fault injection
/// from the `chaos` switches, and a short read timeout so connections the
/// chaos broke are reaped quickly.
pub fn chaos_fleet(chaos: Option<&str>) -> NetConfig {
    NetConfig {
        chaos: chaos.map(|s| ChaosConfig::parse(s).expect("chaos grammar")),
        read_timeout: Some(Duration::from_millis(500)),
        write_timeout: Some(Duration::from_secs(5)),
        request_deadline: Some(Duration::from_secs(5)),
        ..NetConfig::default()
    }
}

/// The chaos benches' load: [`drive`] with degraded reads of dataset 0
/// under `retries` retries. Client `i` has tight timeouts, a fast capped
/// backoff jittered from `seed ^ i` (so runs repeat), and gives up on
/// connecting after `dials` failed handshakes.
pub fn chaos_drive(
    addr: SocketAddr,
    clients: usize,
    passes: usize,
    mix: &[Query],
    seed: u64,
    dials: usize,
    retries: usize,
) -> Tally {
    let connect = |i: usize| {
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            request_deadline: Some(Duration::from_secs(3)),
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
            jitter_seed: seed ^ i as u64,
        };
        (0..dials)
            .find_map(|_| NetClient::connect_with(addr, cfg.clone()).ok())
            .unwrap_or_else(|| panic!("no handshake survived {dials} dial(s)"))
    };
    drive(clients, passes, mix, connect, |c, q| {
        let rs = c.batch_degraded_retry(0, std::slice::from_ref(q), retries)?;
        Ok(rs.iter().all(|r| r.is_exact()))
    })
}

/// What a closed-loop run did, summed over its clients.
#[derive(Debug, Default)]
pub struct Tally {
    pub exact: u64,
    pub degraded: u64,
    /// Operations that ended in the typed `RetriesExhausted` give-up.
    pub gave_up: u64,
    /// `Busy` answers; the driver retries each one at once.
    pub busy: u64,
    /// Operations that took [`HANG`] or longer.
    pub hangs: u64,
    /// Seconds per operation (Busy retries included), sorted ascending.
    pub latency: Vec<f64>,
    /// Wall-clock seconds of the whole run.
    pub wall: f64,
}

impl Tally {
    /// The `q` latency quantile in milliseconds.
    pub fn pct_ms(&self, q: f64) -> f64 {
        pct(&self.latency, q) * 1e3
    }
}

/// Closed-loop load: `clients` threads, each opened with `connect(i)`, run
/// `passes` passes over `mix`, one `op` per query, and time every
/// operation. `op` returns whether the answer was exact. `Busy` is retried
/// at once and counted; `RetriesExhausted` counts as a give-up; any other
/// error panics, since the benches accept only typed give-ups.
pub fn drive(
    clients: usize,
    passes: usize,
    mix: &[Query],
    connect: impl Fn(usize) -> NetClient + Sync,
    op: impl Fn(&mut NetClient, &Query) -> Result<bool, NetError> + Sync,
) -> Tally {
    let total = Mutex::new(Tally::default());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..clients {
            let (total, connect, op) = (&total, &connect, &op);
            s.spawn(move || {
                let mut client = connect(i);
                for q in (0..passes).flat_map(|_| mix) {
                    let (start, mut busy) = (Instant::now(), 0);
                    let result = loop {
                        match op(&mut client, q) {
                            Err(NetError::Busy) => busy += 1,
                            r => break r,
                        }
                        std::thread::yield_now();
                    };
                    let elapsed = start.elapsed();
                    let mut t = total.lock().expect("a client panicked mid-update");
                    match result {
                        Ok(true) => t.exact += 1,
                        Ok(false) => t.degraded += 1,
                        Err(NetError::RetriesExhausted { .. }) => t.gave_up += 1,
                        Err(e) => panic!("untyped failure: {e}"),
                    }
                    t.busy += busy;
                    t.hangs += u64::from(elapsed >= HANG);
                    t.latency.push(elapsed.as_secs_f64());
                }
            });
        }
    });
    let mut total = total.into_inner().expect("a client panicked mid-update");
    total.wall = t0.elapsed().as_secs_f64();
    total.latency.sort_by(f64::total_cmp);
    total
}

/// The `q` quantile of ascending `sorted`: the sample at index
/// `round((n - 1) · q)`.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_is_every_quantile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(pct(&[4.2], q), 4.2);
        }
    }

    #[test]
    fn quantile_index_rounds_to_nearest() {
        let xs: Vec<f64> = (0..30).map(f64::from).collect();
        // (29 · 0.5).round() = 15 (half rounds away from zero), and
        // (29 · 0.99).round() = 29: the p50/p99 of a 30-request `net` cell.
        assert_eq!(pct(&xs, 0.5), 15.0);
        assert_eq!(pct(&xs, 0.99), 29.0);
        // 72 `faults` operations: 35.5 → 36 and 70.29 → 70.
        let xs: Vec<f64> = (0..72).map(f64::from).collect();
        assert_eq!(pct(&xs, 0.5), 36.0);
        assert_eq!(pct(&xs, 0.99), 70.0);
        // The 7-run median of the hot-path chunk floor is the middle run.
        let xs: Vec<f64> = (0..7).map(f64::from).collect();
        assert_eq!(pct(&xs, 0.5), 3.0);
    }
}
