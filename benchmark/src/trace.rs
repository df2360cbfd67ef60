//! In-memory spans recorded by the benchmark around the public calls it
//! makes, and the self-time attribution that turns them into a per-layer
//! table whose rows sum to the traced wall time.
//!
//! Two kinds of span exist:
//!
//! * **timed** spans wrap a call from the benchmark's own code and carry
//!   their real start and end;
//! * **derived** spans carry a duration measured elsewhere — a delta of
//!   one of the program's own `acm.*` timers across the parent call, or
//!   an isolated re-drive of one layer. They are laid out back to back
//!   from their parent's start, scaled down together when their sum
//!   exceeds the parent (work done on several threads inside one call),
//!   so only their durations carry information, never their positions.

use acm_obs::json::JsonObject;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span (`None` when tracing is off).
pub type SpanId = Option<u64>;

static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK: u32 = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Unique id (allocation order).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Unit of work the span belongs to (experiment, deployment, plane
    /// run or case index).
    pub run: u64,
    /// Layer-qualified name, e.g. `core.era`.
    pub name: &'static str,
    /// Thread the span ran on (small integer per thread).
    pub track: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Duration measured inside the program; position synthetic.
    pub derived: bool,
}

struct Pending {
    id: u64,
    parent: u64,
    run: u64,
    name: &'static str,
    dur_ns: u64,
}

/// Span recorder. With `on == false` every method is a pass-through.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    timed: Mutex<Vec<SpanRec>>,
    derived: Mutex<Vec<Pending>>,
}

impl Tracer {
    /// A recorder; spans are kept only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(0),
            timed: Mutex::new(Vec::new()),
            derived: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a timed span named `name`; `f` receives the span's
    /// id so calls it makes can be recorded as children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id,
            parent,
            run,
            name,
            track: TRACK.with(|t| *t),
            start_ns,
            end_ns,
            derived: false,
        };
        self.timed.lock().expect("span list poisoned").push(rec);
        out
    }

    /// Records a derived child of `parent` lasting `dur_ns`.
    pub fn derive(&self, parent: SpanId, run: u64, name: &'static str, dur_ns: u64) -> SpanId {
        let parent = parent?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let p = Pending {
            id,
            parent,
            run,
            name,
            dur_ns,
        };
        self.derived.lock().expect("span list poisoned").push(p);
        Some(id)
    }

    /// Every span, derived ones laid out inside their parents, by id.
    pub fn finish(self) -> Vec<SpanRec> {
        let mut spans = self.timed.into_inner().expect("span list poisoned");
        let mut pending = self.derived.into_inner().expect("span list poisoned");
        pending.sort_by_key(|p| p.id);
        let mut sibling_ns: HashMap<u64, u64> = HashMap::new();
        for p in &pending {
            *sibling_ns.entry(p.parent).or_default() += p.dur_ns;
        }
        spans.sort_by_key(|s| s.id);
        let mut index: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut cursor: HashMap<u64, f64> = HashMap::new();
        for p in pending {
            let Some(&pi) = index.get(&p.parent) else {
                continue;
            };
            let (p_start, p_end, track) = (spans[pi].start_ns, spans[pi].end_ns, spans[pi].track);
            let total = sibling_ns[&p.parent] as f64;
            let room = (p_end - p_start) as f64;
            let scale = if total > room { room / total } else { 1.0 };
            let at = cursor.entry(p.parent).or_insert(p_start as f64);
            let start = *at;
            *at += p.dur_ns as f64 * scale;
            index.insert(p.id, spans.len());
            spans.push(SpanRec {
                id: p.id,
                parent: Some(p.parent),
                run: p.run,
                name: p.name,
                track,
                start_ns: start.round() as u64,
                end_ns: (*at).round().min(p_end as f64) as u64,
                derived: true,
            });
        }
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time per span name over the window `[t0, t1]`, plus the time no
/// span covered.
///
/// The window is cut at every span boundary. In each piece, every thread
/// contributes its innermost open span (latest start; on a tie the one
/// ending first), and the piece's length is shared equally among those
/// spans. Nested spans thus get the classic duration-minus-children self
/// time, overlapping spans on different threads split the time they
/// share, and the rows plus the uncovered remainder sum to `t1 - t0`.
pub fn self_times(spans: &[SpanRec], t0: u64, t1: u64) -> (BTreeMap<&'static str, f64>, f64) {
    let clipped: Vec<(u64, u64, &SpanRec)> = spans
        .iter()
        .map(|s| (s.start_ns.max(t0), s.end_ns.min(t1), s))
        .filter(|(a, b, _)| a < b)
        .collect();
    let mut cuts: Vec<u64> = vec![t0, t1];
    for &(a, b, _) in &clipped {
        cuts.push(a);
        cuts.push(b);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut by_start: Vec<usize> = (0..clipped.len()).collect();
    by_start.sort_by_key(|&i| clipped[i].0);
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut uncovered = 0.0;
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut next = 0;
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        for list in open.values_mut() {
            list.retain(|&i| clipped[i].1 > a);
        }
        while next < by_start.len() && clipped[by_start[next]].0 <= a {
            let i = by_start[next];
            open.entry(clipped[i].2.track).or_default().push(i);
            next += 1;
        }
        let inner: Vec<usize> = open
            .values()
            .filter_map(|list| {
                list.iter().copied().max_by(|&x, &y| {
                    let (sx, ex, rx) = clipped[x];
                    let (sy, ey, ry) = clipped[y];
                    sx.cmp(&sy).then(ey.cmp(&ex)).then(rx.id.cmp(&ry.id))
                })
            })
            .collect();
        let len = (b - a) as f64;
        if inner.is_empty() {
            uncovered += len;
        } else {
            let share = len / inner.len() as f64;
            for i in inner {
                *rows.entry(clipped[i].2.name).or_default() += share;
            }
        }
    }
    (rows, uncovered)
}

/// Renders the self-time table: one row per layer (renamed through
/// `rename`), largest first, then `unattributed`, then the wall total.
/// Returns the text and the rows as `(name, ms)`.
pub fn self_time_table(
    spans: &[SpanRec],
    t0: u64,
    t1: u64,
    rename: &[(&str, &str)],
) -> (String, Vec<(String, f64)>) {
    let (rows, uncovered) = self_times(spans, t0, t1);
    let mut merged: BTreeMap<String, f64> = BTreeMap::new();
    for (name, ns) in rows {
        let row = rename
            .iter()
            .find(|(from, _)| *from == name)
            .map_or(name, |(_, to)| to);
        *merged.entry(row.to_string()).or_default() += ns / 1e6;
    }
    let mut out: Vec<(String, f64)> = merged.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.push(("unattributed".to_string(), uncovered / 1e6));
    let wall_ms = (t1 - t0) as f64 / 1e6;
    let mut text = format!("{:<32} {:>12} {:>7}\n", "self time", "ms", "%wall");
    for (name, ms) in &out {
        text.push_str(&format!(
            "{name:<32} {ms:>12.3} {:>6.1}%\n",
            100.0 * ms / wall_ms
        ));
    }
    let sum: f64 = out.iter().map(|r| r.1).sum();
    text.push_str(&format!(
        "{:<32} {sum:>12.3} {:>6.1}%  (wall {wall_ms:.3} ms)\n",
        "total",
        100.0 * sum / wall_ms
    ));
    (text, out)
}

/// One JSON object per span, one per line.
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let mut o = JsonObject::new();
        o.field_u64("id", s.id);
        match s.parent {
            Some(p) => o.field_u64("parent", p),
            None => o.field_raw("parent", "null"),
        };
        o.field_u64("run", s.run)
            .field_str("name", s.name)
            .field_u64("track", u64::from(s.track))
            .field_u64("start_ns", s.start_ns)
            .field_u64("end_ns", s.end_ns)
            .field_bool("derived", s.derived);
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        track: u32,
        a: u64,
        b: u64,
    ) -> SpanRec {
        SpanRec {
            id,
            parent,
            run: 0,
            name,
            track,
            start_ns: a,
            end_ns: b,
            derived: false,
        }
    }

    #[test]
    fn nested_spans_get_duration_minus_children() {
        let spans = vec![
            span(0, None, "outer", 0, 10, 110),
            span(1, Some(0), "inner", 0, 20, 50),
            span(2, Some(0), "inner", 0, 60, 70),
            span(3, Some(1), "leaf", 0, 30, 40),
        ];
        let (rows, uncovered) = self_times(&spans, 0, 120);
        assert_eq!(rows["outer"], 60.0);
        assert_eq!(rows["inner"], 30.0);
        assert_eq!(rows["leaf"], 10.0);
        assert_eq!(uncovered, 20.0);
        let total: f64 = rows.values().sum::<f64>() + uncovered;
        assert_eq!(total, 120.0);
    }

    #[test]
    fn overlapping_spans_on_two_threads_split_shared_time() {
        let spans = vec![
            span(0, None, "a", 0, 0, 100),
            span(1, None, "b", 1, 50, 150),
        ];
        let (rows, uncovered) = self_times(&spans, 0, 200);
        assert_eq!(rows["a"], 75.0);
        assert_eq!(rows["b"], 75.0);
        assert_eq!(uncovered, 50.0);
    }

    #[test]
    fn partially_overlapping_spans_on_one_thread_go_to_the_later() {
        let spans = vec![span(0, None, "a", 0, 0, 10), span(1, None, "b", 0, 5, 15)];
        let (rows, uncovered) = self_times(&spans, 0, 15);
        assert_eq!(rows["a"], 5.0);
        assert_eq!(rows["b"], 10.0);
        assert_eq!(uncovered, 0.0);
    }

    #[test]
    fn spans_are_clipped_to_the_window() {
        let spans = vec![span(0, None, "a", 0, 0, 100)];
        let (rows, uncovered) = self_times(&spans, 40, 60);
        assert_eq!(rows["a"], 20.0);
        assert_eq!(uncovered, 0.0);
    }

    #[test]
    fn derived_children_fill_and_are_scaled_into_their_parent() {
        let tr = Tracer::new(true);
        let p = tr.span("parent", None, 7, |id| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            id
        });
        // Far longer than the parent together: both are scaled down to
        // share it, back to back from its start.
        tr.derive(p, 7, "x", 4_000_000_000);
        tr.derive(p, 7, "y", 4_000_000_000);
        let spans = tr.finish();
        let parent = spans.iter().find(|s| s.name == "parent").expect("parent");
        let x = spans.iter().find(|s| s.name == "x").expect("x");
        let y = spans.iter().find(|s| s.name == "y").expect("y");
        assert!(x.derived && y.derived);
        assert_eq!(x.start_ns, parent.start_ns);
        assert_eq!(x.end_ns, y.start_ns);
        assert!(y.end_ns <= parent.end_ns && parent.end_ns - y.end_ns <= 1);
        let (rows, _) = self_times(&spans, parent.start_ns, parent.end_ns);
        assert!(rows.get("parent").copied().unwrap_or(0.0) <= 1.0);
    }

    #[test]
    fn table_rows_sum_to_wall_and_rename_applies() {
        let spans = vec![
            span(0, None, "core.era", 0, 0, 100),
            span(1, Some(0), "core.monitor", 0, 0, 30),
        ];
        let (text, rows) = self_time_table(&spans, 0, 200, &[("core.era", "core.outside_phases")]);
        assert_eq!(rows[0].0, "core.outside_phases");
        assert_eq!(rows.last().expect("rows").0, "unattributed");
        let sum: f64 = rows.iter().map(|r| r.1).sum();
        assert!((sum - 200e-6).abs() < 1e-12);
        assert!(text.contains("core.monitor"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let got = tr.span("a", None, 0, |id| id);
        assert_eq!(got, None);
        assert_eq!(tr.derive(got, 0, "b", 5), None);
        assert!(tr.finish().is_empty());
    }
}
