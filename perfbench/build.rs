//! Stamps the compiler version and source commit into the binary, so
//! every result line names the build it came from. Both fall back to
//! `unknown` (a checkout without `.git`, a compiler that will not
//! report its version).

use std::path::Path;
use std::process::Command;

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolve `HEAD` from the repository's `.git` directory by reading
/// files only (no `git` process): a detached hash, a loose ref, or a
/// packed ref.
fn commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest)
        .parent()
        .expect("the benchmark sits inside the repository");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", rustc_version());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", commit(repo));
    // A missing path would re-run this script on every build.
    if repo.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
