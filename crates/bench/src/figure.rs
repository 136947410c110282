//! Figure rendering: aligned text tables on stdout plus JSON dumps under
//! `experiments/`, rendered through the workspace's one JSON codec
//! ([`uniclean_model::Json`]).

use std::fmt::Write as _;
use std::path::Path;

use uniclean_model::Json;

/// One plotted line.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. "Uni", "Quaid").
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One figure of the paper.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. "fig10a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render the figure as an aligned table (rows = x values, one column
    /// per series), matching how the paper's plots read.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{:>12}", trim_float(*x));
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {:>16}", format!("{y:.4}"));
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The machine-readable JSON form: `{"id": …, "title": …, "x_label": …,
    /// "y_label": …, "series": [{"label": …, "points": [[x, y], …]}, …]}`,
    /// with non-finite coordinates as `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let num = |x: f64| {
            if x.is_finite() {
                Json::Num(x)
            } else {
                Json::Null
            }
        };
        let series = self.series.iter().map(|s| {
            let points = s
                .points
                .iter()
                .map(|&(x, y)| Json::Arr(vec![num(x), num(y)]));
            Json::Obj(vec![
                ("label".into(), Json::str(&s.label)),
                ("points".into(), Json::Arr(points.collect())),
            ])
        });
        let mut out = Json::Obj(vec![
            ("id".into(), Json::str(&self.id)),
            ("title".into(), Json::str(&self.title)),
            ("x_label".into(), Json::str(&self.x_label)),
            ("y_label".into(), Json::str(&self.y_label)),
            ("series".into(), Json::Arr(series.collect())),
        ])
        .render();
        out.push('\n');
        out
    }

    /// Write the JSON dump under `dir/<id>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "fig10a".into(),
            title: "Matching helps repairing (HOSP)".into(),
            x_label: "noise %".into(),
            y_label: "F-measure".into(),
            series: vec![
                Series {
                    label: "Uni".into(),
                    points: vec![(2.0, 0.9), (4.0, 0.85)],
                },
                Series {
                    label: "Quaid".into(),
                    points: vec![(2.0, 0.7), (4.0, 0.66)],
                },
            ],
        }
    }

    #[test]
    fn render_contains_all_series_and_points() {
        let text = fig().render();
        assert!(text.contains("fig10a"));
        assert!(text.contains("Uni"));
        assert!(text.contains("Quaid"));
        assert!(text.contains("0.9000"));
        assert!(text.contains("0.6600"));
    }

    /// The dump parses back to exactly the figure: every key, an escaped
    /// label, and a NaN point as `null`.
    #[test]
    fn json_round_trips_through_the_parser() {
        const LABEL: &str = "Quaid \"q\" \\\n";
        let mut f = fig();
        f.series[1].label = LABEL.into();
        f.series[1].points[1].1 = f64::NAN;
        let doc = Json::parse(&f.to_json()).expect("valid JSON");
        let pt = |x, y| Json::Arr(vec![Json::Num(x), y]);
        let series = |label: &str, points| {
            Json::Obj(vec![
                ("label".into(), Json::str(label)),
                ("points".into(), Json::Arr(points)),
            ])
        };
        let want = Json::Obj(vec![
            ("id".into(), Json::str("fig10a")),
            ("title".into(), Json::str("Matching helps repairing (HOSP)")),
            ("x_label".into(), Json::str("noise %")),
            ("y_label".into(), Json::str("F-measure")),
            (
                "series".into(),
                Json::Arr(vec![
                    series(
                        "Uni",
                        vec![pt(2.0, Json::Num(0.9)), pt(4.0, Json::Num(0.85))],
                    ),
                    series(LABEL, vec![pt(2.0, Json::Num(0.7)), pt(4.0, Json::Null)]),
                ]),
            ),
        ]);
        assert_eq!(doc, want);
    }

    #[test]
    fn integer_x_values_render_without_decimals() {
        assert_eq!(trim_float(4.0), "4");
        assert_eq!(trim_float(2.5), "2.50");
    }
}
