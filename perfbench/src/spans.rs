//! In-memory span recording for the traced run.
//!
//! A span covers one call the benchmark makes into a layer: its name,
//! start and end (ns since the recorder started), the span it is
//! nested in, and an id shared by every span of one cell or request.
//! Recording is off unless [`Recorder::enabled`]; a disabled recorder
//! costs one branch per call site.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use gtr_sim::json::Json;

/// One finished span; spans refer to each other by their position
/// in the recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer call, e.g. `system.run`.
    pub name: &'static str,
    /// Cell or request id; spans of one operation share it.
    pub id: u64,
    /// Enclosing span's index, if any (same thread).
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from every thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of this thread, innermost last (their indices).
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// An open span; dropping it records the end time.
pub struct Guard<'a> {
    rec: &'a Recorder,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        self.rec.spans.lock().expect("span lock")[self.index].end_ns = end;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&i| i == self.index) {
                o.remove(pos);
            }
        });
    }
}

impl Recorder {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for operation `id`, nested in this
    /// thread's innermost open span.
    pub fn span(&self, name: &'static str, id: u64) -> Option<Guard<'_>> {
        if !self.enabled {
            return None;
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span lock");
            let index = spans.len();
            spans.push(SpanRec {
                name,
                id,
                parent,
                start_ns: start,
                end_ns: start,
            });
            index
        };
        OPEN.with(|o| o.borrow_mut().push(index));
        Some(Guard { rec: self, index })
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, id);
        f()
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Total seconds and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        let spans = self.spans.lock().expect("span lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
    }

    /// Mean duration of the spans named `name`, in seconds (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64
        }
    }

    /// The spans as a JSON document (`{"spans":[{...}]}`).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans()
            .into_iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::from(s.name)),
                    ("id".to_string(), Json::from(s.id)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, Json::from),
                    ),
                    ("start_ns".to_string(), Json::from(s.start_ns)),
                    ("end_ns".to_string(), Json::from(s.end_ns)),
                ])
            })
            .collect();
        Json::Obj(vec![("spans".to_string(), Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_id() {
        let r = Recorder::new(true);
        {
            let _cell = r.span("cell", 7);
            r.time("system.run", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        r.time("export.encode", 8, || ());
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("cell", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].id),
            ("system.run", Some(0), 7)
        );
        assert_eq!(s[2].parent, None, "closed spans are not parents");
        assert!(s[1].secs() >= 0.002 && s[0].end_ns >= s[1].end_ns);
        assert_eq!(r.total("system.run").1, 1);
        let j = r.to_json();
        assert_eq!(
            j.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.time("x", 1, || 5), 5);
        assert!(r.spans().is_empty());
        assert_eq!(r.mean("x"), 0.0);
    }
}
