//! Records the compiler's version, one of the machine facts every result
//! file carries.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=NOKEYS_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
