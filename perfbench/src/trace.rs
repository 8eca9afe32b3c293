//! The benchmark's own spans, kept in memory and rolled up into self time.
//!
//! A span records a name, an optional mode, start and end (seconds since the
//! tracer was made), the span that caused it, and the workload or query id it
//! belongs to. A span's self time is its duration minus the part of its
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub mode: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Records nested spans when enabled; runs the body untimed otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Sets the workload or query id stamped on the spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Runs `f` inside a span named `name` (child of the innermost open span).
    pub fn span<R>(
        &mut self,
        name: &str,
        mode: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            mode,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            id: self.id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds spans recorded elsewhere (another rank), re-parented into this
    /// tracer's index space.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        for mut s in spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            // Union of the children's intervals, clipped to the parent's.
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// Self time summed per span name, and per `(name, mode)` for spans that
/// carry a mode.
#[derive(Debug, Default)]
pub struct Rollup {
    by_name: BTreeMap<String, f64>,
    by_mode: BTreeMap<(String, usize), f64>,
}

impl Rollup {
    pub fn of(spans: &[Span]) -> Rollup {
        let mut r = Rollup::default();
        for (s, t) in spans.iter().zip(self_times(spans)) {
            *r.by_name.entry(s.name.clone()).or_default() += t;
            if let Some(m) = s.mode {
                *r.by_mode.entry((s.name.clone(), m)).or_default() += t;
            }
        }
        r
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    pub fn mode_self_s(&self, name: &str, mode: usize) -> f64 {
        self.by_mode
            .get(&(name.to_string(), mode))
            .copied()
            .unwrap_or(0.0)
    }
}

/// The spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"i\": {i}, \"name\": \"{}\", \"mode\": {}, \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {}, \"id\": {}}}{}",
            s.name,
            s.mode.map_or("null".to_string(), |m| m.to_string()),
            s.start,
            s.end,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.id,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            mode: None,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,10] ⊃ a [1,4] ⊃ b [2,3]; root ⊃ c [5,9].
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 2.0, 3.0, Some(1)),
            span("c", 5.0, 9.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![3.0, 2.0, 1.0, 4.0]);
        // Self times partition the root's interval.
        assert_eq!(t.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 2.0, 6.0, Some(0)),
            span("y", 4.0, 8.0, Some(0)),
            span("z", 9.0, 12.0, Some(0)),
        ];
        // Covered: [2,8] ∪ [9,10] = 7 → root self 3.
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn rollup_sums_by_name_and_mode() {
        let mut spans = vec![
            span("core", 0.0, 10.0, None),
            span("gram", 0.0, 2.0, Some(0)),
            span("gram", 3.0, 4.0, Some(0)),
        ];
        spans[1].mode = Some(0);
        spans[2].mode = Some(1);
        let r = Rollup::of(&spans);
        assert_eq!(r.self_s("core"), 7.0);
        assert_eq!(r.self_s("gram"), 3.0);
        assert_eq!(r.mode_self_s("gram", 0), 2.0);
        assert_eq!(r.mode_self_s("gram", 1), 1.0);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let mut t = Tracer::new(true);
        t.set_id(7);
        let v = t.span("outer", None, |t| t.span("inner", Some(2), |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].mode, Some(2));
        assert_eq!(s[0].id, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let other = vec![span("r", 0.0, 1.0, None), span("k", 0.0, 0.5, Some(0))];
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", None, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
