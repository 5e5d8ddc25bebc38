//! The pipeline over real sockets: serve application models on loopback
//! TCP and scan them with the real-TCP transport — the substitution-free
//! path of the reproduction.

use nokeys::apps::{build_instance, release_history, AppConfig, AppId};
use nokeys::http::server::serve_tcp;
use nokeys::http::transport::TcpTransport;
use nokeys::scanner::plugin::AppHandler;
use nokeys::scanner::{Pipeline, PipelineConfig, Telemetry};
use std::net::Ipv4Addr;
use std::sync::Arc;

fn serve(app: AppId, vulnerable: bool) -> nokeys::http::server::ServerHandle {
    let history = release_history(app);
    let version = if vulnerable {
        *history
            .iter()
            .rev()
            .find(|v| AppConfig::vulnerable_for(app, v).is_vulnerable(app, v))
            .expect("vulnerable version exists")
    } else {
        *history.last().expect("non-empty")
    };
    let cfg = if vulnerable {
        AppConfig::vulnerable_for(app, &version)
    } else {
        AppConfig::secure_for(app, &version)
    };
    let handler = Arc::new(AppHandler::new(build_instance(app, version, cfg)));
    serve_tcp(Ipv4Addr::LOCALHOST, 0, handler).expect("bind")
}

#[test]
fn pipeline_detects_mavs_over_real_tcp() {
    let vulnerable_gocd = serve(AppId::Gocd, true);
    let secure_zeppelin = serve(AppId::Zeppelin, false);
    let ports = vec![vulnerable_gocd.port, secure_zeppelin.port];

    let config = PipelineConfig {
        ports,
        exclude_reserved: false,
        tarpit_port_threshold: Some(3),
        ..PipelineConfig::new(vec!["127.0.0.1/32".parse().expect("cidr")])
    };
    let pipeline = Pipeline::new(config, &Telemetry::new());
    let client = nokeys::http::Client::new(TcpTransport::default());
    let report = pipeline.run(&client).expect("pipeline failed");

    assert_eq!(report.findings.len(), 2, "both apps identified");
    let gocd = report
        .findings
        .iter()
        .find(|f| f.app == AppId::Gocd)
        .expect("GoCD identified");
    assert!(gocd.vulnerable);
    let zeppelin = report
        .findings
        .iter()
        .find(|f| f.app == AppId::Zeppelin)
        .expect("Zeppelin identified");
    assert!(!zeppelin.vulnerable);
    // Fingerprinting works over real sockets too.
    assert!(zeppelin.version.is_some());

    vulnerable_gocd.shutdown();
    secure_zeppelin.shutdown();
}

#[test]
fn portscan_over_real_tcp() {
    let server = serve(AppId::Polynote, true);
    let config = PipelineConfig {
        ports: vec![server.port],
        exclude_reserved: false,
        ..PipelineConfig::new(vec!["127.0.0.1/32".parse().expect("cidr")])
    };
    let scanner = nokeys::scanner::PortScanner::new(&config);
    let open = scanner.scan(&TcpTransport::default());
    assert_eq!(open.len(), 1);
    server.shutdown();
}
