//! ASCII Gantt charts of schedules: one row per component, operations as
//! labelled blocks, washes as `~`, idle time as spaces.

use mfb_model::prelude::*;
use mfb_sched::prelude::Schedule;
use std::fmt::Write as _;

/// Maximum rendered width in characters before the time axis is compressed.
const MAX_COLS: usize = 110;

/// Renders `schedule` as an ASCII Gantt chart.
///
/// Each component gets a row; an operation `o7` running on it paints
/// `[7777]` over its time span, washes paint `~`, and the header carries
/// the time axis in seconds. The chart compresses the tick-per-column scale
/// to fit roughly 110 columns.
pub fn render_gantt(schedule: &Schedule, components: &ComponentSet) -> String {
    let end = schedule.completion_time().as_ticks().max(1);
    // Ticks per column, rounded up so the chart fits.
    let scale = end.div_ceil(MAX_COLS as u64).max(1);
    let cols = (end / scale + 1) as usize;

    let col_of = |t: Instant| (t.as_ticks() / scale) as usize;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "time: one column = {:.1}s, total {:.1}s",
        scale as f64 / 10.0,
        end as f64 / 10.0
    );

    for comp in components.iter() {
        let mut row = vec![' '; cols];
        for w in schedule.washes().filter(|w| w.component == comp.id()) {
            let (a, b) = (col_of(w.start), col_of(w.end).max(col_of(w.start) + 1));
            for c in row.iter_mut().take(b.min(cols)).skip(a) {
                *c = '~';
            }
        }
        for op in schedule.ops().filter(|o| o.component == comp.id()) {
            let (a, b) = (col_of(op.start), col_of(op.end).max(col_of(op.start) + 1));
            let label: Vec<char> = op.op.index().to_string().chars().collect();
            for (k, slot) in (a..b.min(cols)).enumerate() {
                row[slot] = if k == 0 {
                    '['
                } else if slot + 1 == b.min(cols) {
                    ']'
                } else {
                    label[(k - 1) % label.len()]
                };
            }
        }
        let _ = writeln!(
            s,
            "{:>3} {:<8} |{}|",
            comp.id().to_string(),
            components.component(comp.id()).kind().to_string(),
            row.into_iter().collect::<String>()
        );
    }

    // Channel-cache summary row.
    let mut cache = vec![' '; cols];
    for t in schedule.transports() {
        if t.cache_time().is_zero() {
            continue;
        }
        let (a, b) = (col_of(t.arrive), col_of(t.consumed_at));
        for c in cache.iter_mut().take(b.min(cols)).skip(a) {
            *c = '=';
        }
    }
    let _ = writeln!(
        s,
        "    {:<8} |{}|",
        "cache",
        cache.into_iter().collect::<String>()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_sched::list::{schedule, SchedulerConfig};

    #[test]
    fn gantt_shows_ops_and_washes() {
        let (wash, pristine) = (LogLinearWash::paper_calibrated(), DefectMap::pristine());
        let d = |secs: f64| wash.coefficient_for(Duration::from_secs_f64(secs));
        let mut b = SequencingGraph::builder();
        // Two independent mixes on one mixer: eviction wash in between.
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(2.0));
        let _ = (o0, o1);
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa(), &pristine).unwrap();
        let chart = render_gantt(&s, &comps);
        assert!(chart.contains("mixer"));
        assert!(chart.contains('['), "operation blocks missing:\n{chart}");
        assert!(chart.contains('~'), "wash missing:\n{chart}");
    }

    #[test]
    fn gantt_marks_channel_cache() {
        let (wash, pristine) = (LogLinearWash::paper_calibrated(), DefectMap::pristine());
        let d = |secs: f64| wash.coefficient_for(Duration::from_secs_f64(secs));
        let mut b = SequencingGraph::builder();
        // One mixer: o0's fluid is evicted by o1 and cached until o2.
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d(2.0));
        let _o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(2.0));
        let o2 = b.operation(OperationKind::Mix, Duration::from_secs(3), d(2.0));
        b.edge(o0, o2).unwrap();
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa(), &pristine).unwrap();
        assert!(s.total_cache_time() > Duration::ZERO);
        let chart = render_gantt(&s, &comps);
        assert!(chart.contains('='), "cache row missing:\n{chart}");
    }

    #[test]
    fn long_schedules_compress() {
        let (wash, pristine) = (LogLinearWash::paper_calibrated(), DefectMap::pristine());
        let d = DiffusionCoefficient::PROTEIN;
        let mut b = SequencingGraph::builder();
        let mut prev = b.operation(OperationKind::Mix, Duration::from_secs(60), d);
        for _ in 0..10 {
            let next = b.operation(OperationKind::Mix, Duration::from_secs(60), d);
            b.edge(prev, next).unwrap();
            prev = next;
        }
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(&g, &comps, &wash, &SchedulerConfig::paper_dcsa(), &pristine).unwrap();
        let chart = render_gantt(&s, &comps);
        for line in chart.lines() {
            assert!(line.len() <= MAX_COLS + 20, "line too wide: {}", line.len());
        }
    }
}
