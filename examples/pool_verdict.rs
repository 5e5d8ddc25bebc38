//! The keep-alive pool's verdict measurement (ROADMAP item 1(b)).
//!
//! Serves application models and plain pages on loopback TCP, half on
//! `127.0.0.1` and half on `127.0.1.1` so a two-shard scan has two
//! batches, and times `Pipeline::run` over them with and without
//! `PooledTransport`, in alternating order. Three mixes: the 18
//! in-scope models (every host is sent stage-III and fingerprint
//! requests — the case the pool was built for), 400 plain pages (one
//! request per host), and the paper's one AWE host in forty (10 + 390).
//!
//! ```sh
//! cargo run --release --offline --example pool_verdict [PAIRS]
//! ```
//!
//! Prints, per mix, each side's median and quartiles over PAIRS
//! (default 21) alternating pairs, how many pairs the pool won, and the
//! pool's hits / connects / evictions in the last pooled run. Two
//! clocks: `run` stops when `Pipeline::run` returns; `run+close` also
//! covers dropping the client, which is where a pooled scan closes the
//! idle sockets it still holds (an unpooled one has none left).

use nokeys::apps::{build_instance, release_history, AppConfig, AppId};
use nokeys::http::server::{serve_tcp, ServerHandle};
use nokeys::http::transport::{TcpTransport, Transport};
use nokeys::http::{Client, PooledTransport, Request, Response};
use nokeys::scanner::plugin::AppHandler;
use nokeys::scanner::telemetry::PoolMetrics;
use nokeys::scanner::{Pipeline, PipelineConfig, ScanReport, Telemetry};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

const ADDRS: [Ipv4Addr; 2] = [Ipv4Addr::new(127, 0, 0, 1), Ipv4Addr::new(127, 0, 1, 1)];

fn serve_awe(app: AppId, addr: Ipv4Addr) -> ServerHandle {
    let history = release_history(app);
    let version = *history
        .iter()
        .rev()
        .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
        .expect("a vulnerable version exists");
    let cfg = AppConfig::vulnerable_for(app, &version);
    let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
    serve_tcp(addr, 0, handler).expect("bind loopback")
}

fn serve_plain(addr: Ipv4Addr) -> ServerHandle {
    let handler = Arc::new(|_: &Request, _: Ipv4Addr| {
        Response::html(
            "<html><head><title>Welcome</title></head>\
             <body><h1>It works!</h1><p>Nothing to see here.</p></body></html>",
        )
    });
    serve_tcp(addr, 0, handler).expect("bind loopback")
}

struct Mix {
    name: &'static str,
    awe: usize,
    plain: usize,
}

fn scan<T: Transport + Clone>(ports: &[u16], transport: T) -> ([f64; 2], ScanReport) {
    let targets = ADDRS
        .iter()
        .map(|a| format!("{a}/32").parse().expect("cidr"))
        .collect();
    let config = PipelineConfig::builder(targets)
        .ports(ports.to_vec())
        .exclude_reserved(false)
        .tarpit_port_threshold(ports.len() + 1)
        .blocks_per_batch(1)
        .shards(2)
        .build();
    let pipeline = Pipeline::new(config);
    let client = Client::new(transport);
    let start = Instant::now();
    let report = pipeline.run(&client).expect("pipeline failed");
    let run = start.elapsed().as_secs_f64();
    drop(client);
    ([run, start.elapsed().as_secs_f64()], report)
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn summary(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
    )
}

fn main() {
    let pairs: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("PAIRS is a number"))
        .unwrap_or(21);
    let mixes = [
        Mix {
            name: "18 in-scope models",
            awe: 18,
            plain: 0,
        },
        Mix {
            name: "400 plain pages",
            awe: 0,
            plain: 400,
        },
        Mix {
            name: "10 AWE + 390 plain (1:40)",
            awe: 10,
            plain: 390,
        },
    ];
    println!(
        "threads available: {}, pairs per mix: {pairs}, shards: 2",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for mix in mixes {
        let mut servers = Vec::new();
        for (i, app) in AppId::in_scope().take(mix.awe).enumerate() {
            servers.push(serve_awe(app, ADDRS[i % 2]));
        }
        for i in 0..mix.plain {
            servers.push(serve_plain(ADDRS[i % 2]));
        }
        let ports: Vec<u16> = servers.iter().map(|s| s.port).collect();

        let mut unpooled = Vec::new();
        let mut pooled = Vec::new();
        let mut last_pool = Telemetry::new();
        let mut reference: Option<String> = None;
        // One untimed warm-up of each side, then alternating pairs.
        for pair in 0..=pairs {
            let mut sides = [false, true];
            if pair % 2 == 1 {
                sides.reverse();
            }
            for with_pool in sides {
                let (secs, report) = if with_pool {
                    last_pool = Telemetry::new();
                    let transport = PooledTransport::new(TcpTransport::default())
                        .with_observer(PoolMetrics::observer(&last_pool));
                    scan(&ports, transport)
                } else {
                    scan(&ports, TcpTransport::default())
                };
                assert_eq!(report.findings.len(), mix.awe, "every model identified");
                assert_eq!(report.total_mavs(), mix.awe as u64);
                assert_eq!(report.prefilter_discarded, mix.plain as u64);
                let json = report.to_json_string();
                assert_eq!(reference.get_or_insert(json.clone()), &json);
                if pair > 0 {
                    if with_pool { &mut pooled } else { &mut unpooled }.push(secs);
                }
            }
        }

        let snap = last_pool.snapshot();
        let (hits, misses) = (
            snap.counter("transport.pool.hit"),
            snap.counter("transport.pool.miss"),
        );
        println!("\n== {} ==", mix.name);
        for (clock, name) in ["run", "run+close"].into_iter().enumerate() {
            let column = |side: &[[f64; 2]]| side.iter().map(|s| s[clock]).collect::<Vec<_>>();
            let (unpooled, pooled) = (column(&unpooled), column(&pooled));
            let wins = pooled.iter().zip(&unpooled).filter(|(p, u)| p < u).count();
            let (uq1, umed, uq3) = summary(&unpooled);
            let (pq1, pmed, pq3) = summary(&pooled);
            println!("[{name}] unpooled median {umed:.4} s  quartiles {uq1:.4}-{uq3:.4}");
            println!("[{name}] pooled   median {pmed:.4} s  quartiles {pq1:.4}-{pq3:.4}");
            println!(
                "[{name}] pool wins {wins}/{pairs} pairs; medians differ by {:+.1} % of unpooled \
                 ({:+.4} s; unpooled inter-quartile distance {:.4} s)",
                (pmed - umed) / umed * 100.0,
                pmed - umed,
                uq3 - uq1
            );
        }
        println!(
            "pool served {hits} of {} connects, {} stale retries, {} evicted",
            hits + misses,
            snap.counter("transport.pool.stale_retry"),
            snap.counter("transport.pool.evicted")
        );
        for server in servers {
            server.shutdown();
        }
    }
}
