//! Report renderers: pretty terminal text, a JSON document, and a SARIF
//! 2.1.0 log consumable by code-scanning UIs.

use crate::diag::{Severity, VerifyReport};
use crate::rules::RuleRegistry;
use serde::Serialize;
use serde_json::Value;

/// Renders the report for a terminal: one line per finding, most severe
/// first, followed by a summary line.
pub fn render_pretty(report: &VerifyReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let (e, w, i) = (
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info),
    );
    if report.diagnostics.is_empty() {
        out.push_str("mfb-verify: clean — no design-rule violations\n");
    } else {
        out.push_str(&format!(
            "mfb-verify: {e} error{}, {w} warning{}, {i} info\n",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" },
        ));
    }
    out
}

/// Renders the report as a standalone JSON document:
/// `{"tool": …, "diagnostics": […], "summary": …}`.
pub fn render_json(report: &VerifyReport) -> String {
    let doc = Value::object(vec![
        (
            "tool",
            Value::object(vec![
                ("name", Value::Str("mfb-verify".into())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
            ]),
        ),
        ("diagnostics", report.diagnostics.to_content()),
        (
            "summary",
            Value::object(vec![
                ("errors", Value::U64(report.count(Severity::Error) as u64)),
                (
                    "warnings",
                    Value::U64(report.count(Severity::Warning) as u64),
                ),
                ("infos", Value::U64(report.count(Severity::Info) as u64)),
                ("exit_code", Value::U64(report.exit_code() as u64)),
            ]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("JSON rendering is infallible")
}

/// Renders the report as a SARIF 2.1.0 log. The `registry` supplies the
/// rule table (`runs[0].tool.driver.rules`); every result references its
/// rule by id and index.
pub fn render_sarif(report: &VerifyReport, registry: &RuleRegistry) -> String {
    let rule_infos: Vec<_> = registry.rules().collect();
    let rules: Vec<Value> = rule_infos
        .iter()
        .map(|r| {
            Value::object(vec![
                ("id", Value::Str(r.id.into())),
                ("name", Value::Str(r.name.into())),
                (
                    "shortDescription",
                    Value::object(vec![("text", Value::Str(r.description.into()))]),
                ),
                (
                    "defaultConfiguration",
                    Value::object(vec![("level", Value::Str(r.severity.sarif_level().into()))]),
                ),
            ])
        })
        .collect();
    let results: Vec<Value> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("ruleId", Value::Str(d.rule.clone())),
                ("level", Value::Str(d.severity.sarif_level().into())),
                (
                    "message",
                    Value::object(vec![("text", Value::Str(d.message.clone()))]),
                ),
                (
                    "locations",
                    Value::Seq(vec![Value::object(vec![(
                        "logicalLocations",
                        Value::Seq(vec![Value::object(vec![
                            ("name", Value::Str(d.location.to_string())),
                            ("kind", Value::Str(d.location.kind().into())),
                        ])]),
                    )])]),
                ),
            ];
            if let Some(ix) = rule_infos.iter().position(|r| r.id == d.rule) {
                fields.insert(1, ("ruleIndex", Value::U64(ix as u64)));
            }
            Value::object(fields)
        })
        .collect();
    let doc = Value::object(vec![
        (
            "$schema",
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version", Value::Str("2.1.0".into())),
        (
            "runs",
            Value::Seq(vec![Value::object(vec![
                (
                    "tool",
                    Value::object(vec![(
                        "driver",
                        Value::object(vec![
                            ("name", Value::Str("mfb-verify".into())),
                            ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
                            (
                                "informationUri",
                                Value::Str(env!("CARGO_PKG_REPOSITORY").into()),
                            ),
                            ("rules", Value::Seq(rules)),
                        ]),
                    )]),
                ),
                ("results", Value::Seq(results)),
            ])]),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("SARIF rendering is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diagnostic, Location};
    use mfb_model::prelude::*;

    fn sample_report() -> VerifyReport {
        VerifyReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "DRC-ROUTE-003".into(),
                    severity: Severity::Error,
                    message: "two fluids collide".into(),
                    location: Location::Cell(CellPos::new(2, 5)),
                    window: Some(Interval::new(Instant::from_secs(1), Instant::from_secs(3))),
                },
                Diagnostic {
                    rule: "DRC-WASH-003".into(),
                    severity: Severity::Warning,
                    message: "wash not planned".into(),
                    location: Location::Task(TaskId::new(1)),
                    window: None,
                },
            ],
        }
    }

    #[test]
    fn pretty_lists_findings_and_summary() {
        let text = render_pretty(&sample_report());
        assert!(text.contains("error[DRC-ROUTE-003]"), "{text}");
        assert!(text.contains("warning[DRC-WASH-003]"), "{text}");
        assert!(text.contains("1 error, 1 warning, 0 info"), "{text}");
        let clean = render_pretty(&VerifyReport::default());
        assert!(clean.contains("clean"), "{clean}");
    }

    #[test]
    fn json_document_round_trips() {
        let text = render_json(&sample_report());
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("tool")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str),
            Some("mfb-verify")
        );
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("errors").and_then(Value::as_u64), Some(1));
        assert_eq!(summary.get("exit_code").and_then(Value::as_u64), Some(2));
        let diags = doc.get("diagnostics").unwrap();
        assert!(diags.get_index(0).is_some());
    }

    /// The SARIF 2.1.0 shape: schema/version headers, a tool driver with a
    /// rule table, and results referencing rules by id and index.
    #[test]
    fn sarif_shape_is_valid() {
        let registry = RuleRegistry::with_all_rules();
        let text = render_sarif(&sample_report(), &registry);
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            doc.get("$schema").and_then(Value::as_str),
            Some("https://json.schemastore.org/sarif-2.1.0.json")
        );
        assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = doc.get("runs").and_then(|r| r.get_index(0)).unwrap();
        let driver = run.get("tool").and_then(|t| t.get("driver")).unwrap();
        assert_eq!(
            driver.get("name").and_then(Value::as_str),
            Some("mfb-verify")
        );
        let rules = match driver.get("rules").unwrap() {
            Value::Seq(rules) => rules,
            other => panic!("rules is not an array: {other:?}"),
        };
        assert_eq!(rules.len(), registry.rules().count());
        for rule in rules {
            assert!(rule.get("id").and_then(Value::as_str).is_some());
            assert!(rule
                .get("shortDescription")
                .and_then(|s| s.get("text"))
                .is_some());
            let level = rule
                .get("defaultConfiguration")
                .and_then(|c| c.get("level"))
                .and_then(Value::as_str)
                .unwrap();
            assert!(matches!(level, "note" | "warning" | "error"), "{level}");
        }
        let results = match run.get("results").unwrap() {
            Value::Seq(results) => results,
            other => panic!("results is not an array: {other:?}"),
        };
        assert_eq!(results.len(), 2);
        for result in results {
            let id = result.get("ruleId").and_then(Value::as_str).unwrap();
            let ix = result.get("ruleIndex").and_then(Value::as_u64).unwrap() as usize;
            assert_eq!(rules[ix].get("id").and_then(Value::as_str), Some(id));
            assert!(result.get("message").and_then(|m| m.get("text")).is_some());
            let lvl = result.get("level").and_then(Value::as_str).unwrap();
            assert!(matches!(lvl, "note" | "warning" | "error"), "{lvl}");
            assert!(result
                .get("locations")
                .and_then(|l| l.get_index(0))
                .and_then(|l| l.get("logicalLocations"))
                .and_then(|l| l.get_index(0))
                .and_then(|l| l.get("name"))
                .is_some());
        }
    }
}
