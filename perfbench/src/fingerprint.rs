//! The machine and source a result was measured on. Results whose
//! fingerprints differ must not be compared as if they were one series.

use std::path::Path;
use std::process::Command;

use crate::check::Fnv;

/// First line of a command's stdout, or `"unavailable"`.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

fn read_trimmed(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `L1d:48K L1i:32K L2:2048K L3:107520K` for the first CPU.
fn cache_sizes() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut caches = Vec::new();
    for i in 0.. {
        let dir = base.join(format!("index{i}"));
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&dir.join("level")),
            read_trimmed(&dir.join("type")),
            read_trimmed(&dir.join("size")),
        ) else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        caches.push(format!("L{level}{suffix}:{size}"));
    }
    if caches.is_empty() {
        "unavailable".to_string()
    } else {
        caches.join(" ")
    }
}

fn cpu_model() -> String {
    read_trimmed(Path::new("/proc/cpuinfo"))
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// FNV-1a over every file under `crates/` plus `Cargo.lock`, in path
/// order: identifies the measured source where no git revision exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        h.write(rel.to_string_lossy().as_bytes());
        h.write(&std::fs::read(path).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// The fingerprint as one JSON object.
pub fn json(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {:?}, \"caches\": {:?}, \"rustc\": {:?}, \
         \"git_rev\": {:?}, \"source_fnv\": {:?}}}",
        cpu_model(),
        cache_sizes(),
        command_line("rustc", &["--version"], root),
        command_line("git", &["rev-parse", "HEAD"], root),
        source_digest(root),
    )
}
