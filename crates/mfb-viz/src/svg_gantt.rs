//! SVG Gantt charts of schedules — the publication-quality sibling of the
//! ASCII renderer in [`crate::gantt`].

use mfb_model::prelude::*;
use mfb_sched::prelude::Schedule;
use std::fmt::Write as _;

/// Pixels per second on the time axis.
const PX_PER_SEC: f64 = 14.0;
/// Row height in pixels.
const ROW_H: u32 = 26;
/// Left margin for row labels.
const MARGIN_L: u32 = 90;
/// Top margin for the time axis.
const MARGIN_T: u32 = 24;

/// Fill colours per component kind (mixer, heater, filter, detector).
const KIND_FILL: [&str; 4] = ["#7eb0d5", "#fd7f6f", "#b2e061", "#ffee65"];

/// Renders `schedule` as a standalone SVG Gantt chart: one row per
/// component, operations as labelled blocks coloured by component kind,
/// washes as grey hatched blocks, and a seconds axis on top.
pub fn render_svg_gantt(schedule: &Schedule, components: &ComponentSet) -> String {
    let total_secs = schedule.completion_time().as_secs_f64().max(1.0);
    let w = MARGIN_L + (total_secs * PX_PER_SEC).ceil() as u32 + 10;
    let h = MARGIN_T + ROW_H * components.len() as u32 + 10;
    let x_of = |t: Instant| MARGIN_L as f64 + t.as_secs_f64() * PX_PER_SEC;

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">"#
    );
    let _ = writeln!(s, r##"<rect width="{w}" height="{h}" fill="#ffffff"/>"##);

    // Time axis: a tick every 5 seconds.
    let mut t = 0.0;
    while t <= total_secs {
        let x = MARGIN_L as f64 + t * PX_PER_SEC;
        let _ = writeln!(
            s,
            r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{h}" stroke="#eee"/>"##
        );
        let _ = writeln!(
            s,
            r##"<text x="{x:.1}" y="14" text-anchor="middle" fill="#666">{t:.0}s</text>"##
        );
        t += 5.0;
    }

    for (row, comp) in components.iter().enumerate() {
        let y = MARGIN_T + ROW_H * row as u32;
        let _ = writeln!(
            s,
            r##"<text x="4" y="{}" fill="#333">{} {}</text>"##,
            y + ROW_H / 2 + 4,
            comp.id(),
            comp.kind()
        );
        // Washes first (under the ops).
        for wsh in schedule.washes().filter(|w| w.component == comp.id()) {
            let x = x_of(wsh.start);
            let wdt = (wsh.wash_time().as_secs_f64() * PX_PER_SEC).max(1.0);
            let _ = writeln!(
                s,
                r##"<rect x="{x:.1}" y="{}" width="{wdt:.1}" height="{}" fill="#bbb" opacity="0.7"/>"##,
                y + 4,
                ROW_H - 8
            );
        }
        for op in schedule.ops().filter(|o| o.component == comp.id()) {
            let x = x_of(op.start);
            let wdt = ((op.end - op.start).as_secs_f64() * PX_PER_SEC).max(2.0);
            let fill = KIND_FILL[comp.kind() as usize];
            let _ = writeln!(
                s,
                r##"<rect x="{x:.1}" y="{}" width="{wdt:.1}" height="{}" fill="{fill}" stroke="#333"/>"##,
                y + 2,
                ROW_H - 4
            );
            let _ = writeln!(
                s,
                r##"<text x="{:.1}" y="{}" text-anchor="middle">o{}</text>"##,
                x + wdt / 2.0,
                y + ROW_H / 2 + 4,
                op.op.index()
            );
        }
    }
    let _ = writeln!(s, "</svg>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfb_sched::list::{schedule, SchedulerConfig};

    #[test]
    fn renders_rows_blocks_and_axis() {
        let wash = LogLinearWash::paper_calibrated();
        let d = |secs: f64| wash.coefficient_for(Duration::from_secs_f64(secs));
        let mut b = SequencingGraph::builder();
        let o0 = b.operation(OperationKind::Mix, Duration::from_secs(5), d(6.0));
        let o1 = b.operation(OperationKind::Mix, Duration::from_secs(4), d(2.0));
        let _ = (o0, o1);
        let g = b.build().unwrap();
        let comps = Allocation::new(1, 0, 0, 0).instantiate(&ComponentLibrary::default());
        let s = schedule(
            &g,
            &comps,
            &wash,
            &SchedulerConfig::paper_dcsa(),
            &DefectMap::pristine(),
        )
        .unwrap();
        let svg = render_svg_gantt(&s, &comps);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Two op blocks, at least one wash rect, axis labels.
        assert!(svg.matches(">o0<").count() == 1);
        assert!(svg.matches(">o1<").count() == 1);
        assert!(svg.contains("#bbb"), "wash block missing");
        assert!(svg.contains("0s"));
    }
}
