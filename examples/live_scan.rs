//! Real-socket demonstration: serve three application models on actual
//! loopback TCP ports and run the *same* scanning pipeline against them
//! over the real-TCP transport — proving the pipeline is not tied to the
//! simulation.
//!
//! ```sh
//! cargo run --example live_scan
//! ```

use nokeys::apps::{build_instance, release_history, AppConfig, AppId};
use nokeys::http::server::serve_tcp;
use nokeys::http::transport::TcpTransport;
use nokeys::scanner::plugin::AppHandler;
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn instance(app: AppId, vulnerable: bool) -> Arc<AppHandler> {
    let history = release_history(app);
    let version = if vulnerable {
        *history
            .iter()
            .rev()
            .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
            .expect("a vulnerable version exists")
    } else {
        *history.last().expect("non-empty history")
    };
    let cfg = if vulnerable {
        AppConfig::vulnerable_for(app, &version)
    } else {
        AppConfig::secure_for(app, &version)
    };
    Arc::new(AppHandler::new(build_instance(app, version, cfg)))
}

fn main() {
    // Serve a vulnerable Hadoop, a vulnerable Jupyter Notebook and a
    // *secured* Docker daemon on OS-assigned loopback ports.
    let servers = [
        (AppId::Hadoop, true),
        (AppId::JupyterNotebook, true),
        (AppId::Docker, false),
    ];
    let mut handles = Vec::new();
    let mut ports = Vec::new();
    for (app, vulnerable) in servers {
        let handler = instance(app, vulnerable);
        let server = serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).expect("bind loopback");
        println!(
            "serving {} ({}) on 127.0.0.1:{}",
            app.name(),
            if vulnerable { "vulnerable" } else { "secured" },
            server.port
        );
        ports.push(server.port);
        handles.push(server);
    }

    // Scan 127.0.0.1 on exactly those ports with the real-TCP transport.
    let config = PipelineConfig {
        ports: ports.clone(),
        exclude_reserved: false, // loopback is IANA-reserved
        tarpit_port_threshold: Some(ports.len() + 1), // tiny port set; no artifact filter
        shards: 4,               // four worker threads probing over real sockets
        ..PipelineConfig::new(vec!["127.0.0.1/32".parse().expect("cidr")])
    };
    let pipeline = Pipeline::new(config, &Telemetry::new());
    let client = nokeys::http::Client::new(TcpTransport::default());

    let report = pipeline.run(&client).expect("pipeline failed");
    println!(
        "\nscan over real TCP finished: {} probes, {} findings",
        report.probes_sent,
        report.findings.len()
    );
    for f in &report.findings {
        println!(
            "  {} -> {} {} (version {})",
            f.endpoint,
            f.app.name(),
            if f.vulnerable {
                "VULNERABLE"
            } else {
                "not vulnerable"
            },
            f.version.map(|v| v.number()).unwrap_or_else(|| "?".into()),
        );
    }

    let mavs = report.total_mavs();
    for server in handles {
        server.shutdown();
    }
    assert_eq!(mavs, 2, "the two vulnerable services must be detected");
    println!("\nlive scan OK: 2 of 3 services correctly flagged as vulnerable");
}
