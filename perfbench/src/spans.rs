//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! The harness is single-threaded, so a stack gives every span its parent.
//! Spans stay in memory until the run ends; [`Spans::self_seconds`] reduces
//! them to self time per span name (duration minus the part of it that
//! direct children cover).

use std::collections::BTreeMap;
use std::time::Instant;

use fpga_route::trace::json::ObjectWriter;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Spans::records`].
    pub parent: Option<usize>,
    /// The job (circuit instance) the span belongs to; `None` for spans
    /// around a whole stage.
    pub job: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder; every call is a no-op when it is off.
pub struct Spans {
    on: bool,
    epoch: Instant,
    records: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: Option<usize>) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.records.push(Span {
            name,
            parent: self.open.last().copied(),
            job,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.records.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self
            .open
            .pop()
            .expect("Spans::exit without a matching enter");
        self.records[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.enter(name, job);
        let out = f();
        self.exit();
        out
    }

    /// Each span's self time in nanoseconds, by record index.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.records.len()];
        for span in &self.records {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.records
            .iter()
            .zip(child_ns)
            .map(|(span, children)| (span.end_ns - span.start_ns).saturating_sub(children))
            .collect()
    }

    /// Self time in seconds, summed per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.records.iter().zip(self.self_ns()) {
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Every span as a JSON array, with ids equal to record indices.
    pub fn to_json(&self) -> String {
        let spans = self.records.iter().zip(self.self_ns()).enumerate();
        crate::array(spans.map(|(i, (span, own))| {
            let mut v = ObjectWriter::new();
            v.u64("id", i as u64).str("name", span.name);
            if let Some(parent) = span.parent {
                v.u64("parent", parent as u64);
            }
            if let Some(job) = span.job {
                v.u64("job", job as u64);
            }
            v.u64("start_ns", span.start_ns)
                .u64("end_ns", span.end_ns)
                .raw("self_s", &crate::num(own as f64 / 1e9));
            v.finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut spans = Spans::new(true);
        spans.enter("outer", None);
        spans.scope("inner", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        spans.exit();
        let self_s = spans.self_seconds();
        assert!(self_s["inner"] >= 0.02);
        assert!(self_s["outer"] < self_s["inner"]);
        assert_eq!(spans.records[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::new(false);
        spans.scope("x", None, || ());
        assert!(spans.self_seconds().is_empty());
    }
}
