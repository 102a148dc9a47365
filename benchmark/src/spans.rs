//! Spans the benchmark records around its own calls into each layer:
//! name, start, end, and the span that caused it. Kept in memory and
//! written out when the traced run ends.
//!
//! Timing is always returned to the caller; rows are kept only when
//! recording is on, so an untraced run pays one `Instant::now` pair
//! per span and nothing else.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span (`None` for top level, or when off).
pub type SpanId = Option<usize>;

struct Row {
    name: String,
    parent: SpanId,
    start: Duration,
    end: Duration,
}

pub struct Spans {
    origin: Instant,
    on: bool,
    rows: Vec<Row>,
}

/// A span that has been opened and not yet closed.
pub struct Open {
    id: SpanId,
    start: Instant,
}

impl Open {
    /// This span, as the parent of spans opened inside it.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            origin: Instant::now(),
            on,
            rows: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &str, parent: SpanId) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.rows.push(Row {
                name: name.to_string(),
                parent,
                start: start - self.origin,
                end: start - self.origin,
            });
            self.rows.len() - 1
        });
        Open { id, start }
    }

    /// Ends `span` and returns its duration.
    pub fn close(&mut self, span: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = span.id {
            self.rows[i].end = end - self.origin;
        }
        end - span.start
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self.open(name, parent);
        let out = f();
        (out, self.close(span))
    }

    /// The recorded spans as TSV: `id parent name start_us end_us`.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for (i, r) in self.rows.iter().enumerate() {
            let parent = r.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i}\t{parent}\t{}\t{:.3}\t{:.3}",
                r.name,
                r.start.as_secs_f64() * 1e6,
                r.end.as_secs_f64() * 1e6
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nesting_only_when_on() {
        let mut on = Spans::new(true);
        let outer = on.open("outer", None);
        let (v, _) = on.time("inner", outer.id(), || 5);
        assert_eq!(v, 5);
        let d = on.close(outer);
        assert!(d > Duration::ZERO);
        let tsv = on.to_tsv();
        assert!(tsv.contains("0\t-\touter\t"), "{tsv}");
        assert!(tsv.contains("1\t0\tinner\t"), "{tsv}");

        let mut off = Spans::new(false);
        let s = off.open("x", None);
        assert!(s.id().is_none());
        off.close(s);
        assert_eq!(off.to_tsv().lines().count(), 1);
    }
}
