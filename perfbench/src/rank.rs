//! Pins the rank worker `procs_launch` measures.
//!
//! The worker is found the way the process launcher finds it: the
//! `BSML_RANK_BIN` override, else a `bsml-rank` next to the running
//! executable or one directory up. A worker older than the library
//! sources it is built from would silently measure old code, so that
//! fails loudly, as does a missing worker.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// The repository root this benchmark was built from.
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Sources compiled into `bsml-rank`: its main and the crates it links.
const RANK_SOURCES: [&str; 6] = [
    "src/bin/bsml-rank.rs",
    "crates/ast/src",
    "crates/syntax/src",
    "crates/eval/src",
    "crates/bsp/src",
    "crates/obs/src",
];

/// Locates the rank worker and checks it is current.
///
/// # Errors
///
/// The worker is missing, or older than a source it is built from.
pub fn locate() -> Result<PathBuf, String> {
    let worker = discover().ok_or_else(|| {
        format!(
            "bsml-rank not found: set {} or build it next to the benchmark \
             (cargo build --release -p bsml-repro --bin bsml-rank)",
            bsml_bsp::RANK_BIN_ENV
        )
    })?;
    let built = mtime(&worker).ok_or_else(|| format!("cannot stat {}", worker.display()))?;
    let repo = Path::new(REPO);
    for src in RANK_SOURCES {
        let newest = newest_mtime(&repo.join(src)).ok_or_else(|| {
            format!(
                "cannot read the rank worker's sources at {}",
                repo.join(src).display()
            )
        })?;
        if newest > built {
            return Err(format!(
                "stale rank worker {}: {src} changed after it was built; rebuild it \
                 (cargo build --release -p bsml-repro --bin bsml-rank)",
                worker.display()
            ));
        }
    }
    Ok(worker)
}

fn discover() -> Option<PathBuf> {
    if let Some(bin) = std::env::var_os(bsml_bsp::RANK_BIN_ENV) {
        return Some(PathBuf::from(bin));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .map(|d| d.join("bsml-rank"))
        .find(|c| c.is_file());
    found
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).ok()?.modified().ok()
}

/// The newest modification time of a file or of any file under a
/// directory.
fn newest_mtime(path: &Path) -> Option<SystemTime> {
    let meta = std::fs::metadata(path).ok()?;
    if !meta.is_dir() {
        return meta.modified().ok();
    }
    let mut newest = meta.modified().ok()?;
    for entry in std::fs::read_dir(path).ok()? {
        let t = newest_mtime(&entry.ok()?.path())?;
        newest = newest.max(t);
    }
    Some(newest)
}
