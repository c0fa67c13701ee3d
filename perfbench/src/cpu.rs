//! On-CPU time of this process's threads, from Linux `schedstat`.
//!
//! Time the hypervisor steals is not on-CPU time, so this figure moves
//! less with a noisy neighbour than wall-clock time does.

/// The kernel's id of the calling thread.
///
/// # Errors
///
/// When `/proc/thread-self` cannot be read.
pub fn current_tid() -> Result<u64, String> {
    let link =
        std::fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("unexpected /proc/thread-self target {}", link.display()))
}

/// Nanoseconds on CPU, summed over the live threads of this process
/// except `exclude`.
///
/// # Errors
///
/// When `/proc/self/task` cannot be listed or no thread's `schedstat`
/// can be read.
pub fn threads_ns(exclude: Option<u64>) -> Result<u64, String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut total = 0u64;
    let mut read_any = false;
    for entry in tasks.flatten() {
        let tid: Option<u64> = entry.file_name().to_str().and_then(|n| n.parse().ok());
        if tid.is_some() && tid == exclude {
            continue;
        }
        // A thread may exit between listing and reading; skip it.
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(ns) = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            total += ns;
            read_any = true;
        }
    }
    if read_any {
        Ok(total)
    } else {
        Err("no readable /proc/self/task/*/schedstat".to_owned())
    }
}
