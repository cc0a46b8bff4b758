//! The host record printed with every result: what a number was
//! measured on.

use std::path::Path;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// JSON-escapes `s` (quotes, backslashes and control characters).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    read("/proc/self/mounts")
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The host as one JSON object.
pub fn record(data_dir: &Path) -> String {
    let cpuinfo = read("/proc/cpuinfo");
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, m)| m.trim())
        })
        .unwrap_or("unknown")
        .to_string();
    let pinned = read("/proc/self/status")
        .lines()
        .find_map(|l| {
            l.strip_prefix("Cpus_allowed_list:")
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"cpus_allowed\":{},\"rustc\":{},\"data_dir_fs\":{}}}",
        json_str(&model),
        json_str(&pinned),
        json_str(&rustc),
        json_str(&filesystem_of(data_dir)),
    )
}
