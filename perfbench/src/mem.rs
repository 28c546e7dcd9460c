//! Process memory from `/proc/self/status`.

/// `(VmHWM, VmRSS)` of this process in MB, or `None` where the file or
/// the fields are unavailable.
pub fn sample() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: f64 = line[key.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    };
    Some((field("VmHWM:")?, field("VmRSS:")?))
}

/// Memory samples taken over one run: the RSS right after the cold runs
/// and after each later rerun of the stream.
#[derive(Debug, Default)]
pub struct MemTrack {
    base_rss: Vec<f64>,
    last_rss: Vec<f64>,
    open: bool,
}

impl MemTrack {
    /// Marks the end of one scope's cold runs (one scope per subject).
    pub fn after_cold(&mut self) {
        if let Some((_, rss)) = sample() {
            self.base_rss.push(rss);
            self.last_rss.push(rss);
            self.open = true;
        }
    }

    /// Samples after a rerun of the current scope, until it ends.
    pub fn after_rerun(&mut self) {
        if !self.open {
            return;
        }
        if let (Some((_, rss)), Some(last)) = (sample(), self.last_rss.last_mut()) {
            *last = rss;
        }
    }

    /// Ends the current scope's stream: later reruns (the cold runs after
    /// it) are not sampled.
    pub fn end_stream(&mut self) {
        self.open = false;
    }

    /// RSS growth per scope, in MB: last sample minus the post-cold one.
    pub fn growth(&self) -> Vec<f64> {
        self.last_rss
            .iter()
            .zip(&self.base_rss)
            .map(|(last, base)| last - base)
            .collect()
    }
}
