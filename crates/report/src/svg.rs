//! A minimal, deterministic SVG writer.
//!
//! Everything the report renders goes through this module, and the module
//! promises *byte stability*: the same chart data produces the same bytes
//! on every run and platform. That promise rests on three rules:
//!
//! 1. Every coordinate and value is formatted through [`fmt3`], a pinned
//!    `{:.3}` fixed-point helper — no locale, no shortest-float codepath.
//! 2. No collection with nondeterministic iteration order is used;
//!    everything renders in input (or explicitly sorted) order.
//! 3. No timestamps, random ids, or environment data appear in output.
//!
//! The golden-file tests in `tests/golden.rs` hold the writer to the
//! byte-stability promise.

use bgp_tune::sweep::fmt_size;

/// The pinned float formatter: fixed three decimal places.
///
/// All geometry and data labels go through this single chokepoint so the
/// snapshot tests pin one formatting behavior, not many.
pub fn fmt3(v: f64) -> String {
    debug_assert!(v.is_finite(), "fmt3 on non-finite value");
    format!("{v:.3}")
}

/// Escape text content / attribute values for XML.
pub fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Line/fill colors for series, in column order. Chosen to stay readable
/// on the white chart background.
pub const PALETTE: [&str; 9] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    "#bcbd22",
];

/// An SVG canvas accumulating elements in emit order.
pub struct Svg {
    width: f64,
    height: f64,
    body: String,
}

impl Svg {
    /// A canvas of `width` × `height` user units with a white background.
    pub fn new(width: f64, height: f64) -> Self {
        let mut s = Svg {
            width,
            height,
            body: String::new(),
        };
        s.rect(0.0, 0.0, width, height, "#ffffff", None);
        s
    }

    /// A filled rectangle; `stroke` outlines it when given.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: Option<&str>) {
        let stroke = match stroke {
            Some(s) => format!(" stroke=\"{}\" stroke-width=\"1\"", xml_escape(s)),
            None => String::new(),
        };
        self.body.push_str(&format!(
            "  <rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"{stroke}/>\n",
            fmt3(x),
            fmt3(y),
            fmt3(w),
            fmt3(h),
            xml_escape(fill),
        ));
    }

    /// A straight line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.body.push_str(&format!(
            "  <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            fmt3(x1),
            fmt3(y1),
            fmt3(x2),
            fmt3(y2),
            xml_escape(stroke),
            fmt3(width),
        ));
    }

    /// A dashed straight line segment from `p1` to `p2` (`dash` is an
    /// SVG dasharray).
    pub fn dashed_line(&mut self, p1: (f64, f64), p2: (f64, f64), stroke: &str, dash: &str) {
        self.body.push_str(&format!(
            "  <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"{}\" stroke-width=\"1.000\" \
             stroke-dasharray=\"{}\"/>\n",
            fmt3(p1.0),
            fmt3(p1.1),
            fmt3(p2.0),
            fmt3(p2.1),
            xml_escape(stroke),
            xml_escape(dash),
        ));
    }

    /// An unfilled polyline through `pts`.
    pub fn polyline(&mut self, pts: &[(f64, f64)], stroke: &str, width: f64) {
        let coords = pts
            .iter()
            .map(|&(x, y)| format!("{},{}", fmt3(x), fmt3(y)))
            .collect::<Vec<_>>()
            .join(" ");
        self.body.push_str(&format!(
            "  <polyline points=\"{coords}\" fill=\"none\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            xml_escape(stroke),
            fmt3(width),
        ));
    }

    /// A raw path element (`d` is emitted verbatim; callers format
    /// coordinates through [`fmt3`]).
    pub fn path(&mut self, d: &str, fill: &str, stroke: &str, width: f64) {
        self.body.push_str(&format!(
            "  <path d=\"{}\" fill=\"{}\" stroke=\"{}\" stroke-width=\"{}\"/>\n",
            xml_escape(d),
            xml_escape(fill),
            xml_escape(stroke),
            fmt3(width),
        ));
    }

    /// A filled circle marker.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str) {
        self.body.push_str(&format!(
            "  <circle cx=\"{}\" cy=\"{}\" r=\"{}\" fill=\"{}\"/>\n",
            fmt3(cx),
            fmt3(cy),
            fmt3(r),
            xml_escape(fill),
        ));
    }

    /// Text anchored per `anchor` (`start` / `middle` / `end`).
    pub fn text(&mut self, x: f64, y: f64, size: f64, anchor: &str, fill: &str, content: &str) {
        self.body.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" font-size=\"{}\" font-family=\"monospace\" \
             text-anchor=\"{}\" fill=\"{}\">{}</text>\n",
            fmt3(x),
            fmt3(y),
            fmt3(size),
            xml_escape(anchor),
            xml_escape(fill),
            xml_escape(content),
        ));
    }

    /// Text rotated 90° counterclockwise about `(x, y)` (y-axis labels).
    pub fn vtext(&mut self, x: f64, y: f64, size: f64, fill: &str, content: &str) {
        self.body.push_str(&format!(
            "  <text x=\"{}\" y=\"{}\" font-size=\"{}\" font-family=\"monospace\" \
             text-anchor=\"middle\" fill=\"{}\" transform=\"rotate(-90 {} {})\">{}</text>\n",
            fmt3(x),
            fmt3(y),
            fmt3(size),
            xml_escape(fill),
            fmt3(x),
            fmt3(y),
            xml_escape(content),
        ));
    }

    /// Close the document and return the full SVG text.
    pub fn finish(self) -> String {
        format!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\">\n{}</svg>\n",
            fmt3(self.width),
            fmt3(self.height),
            fmt3(self.width),
            fmt3(self.height),
            self.body,
        )
    }
}

/// How an axis maps data values to pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    /// Proportional mapping.
    Linear,
    /// Log base 2 — the natural x-axis for power-of-two message sizes
    /// (and the y-axis of the paper's latency figures).
    Log2,
}

/// One axis: a data range plus the mapping kind.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub kind: ScaleKind,
    pub min: f64,
    pub max: f64,
}

impl Scale {
    /// A scale covering `[min, max]`; log scales clamp the floor to a
    /// tiny positive value so zero never reaches `log2`.
    pub fn new(kind: ScaleKind, min: f64, max: f64) -> Self {
        let (min, max) = if kind == ScaleKind::Log2 {
            (min.max(1e-9), max.max(2e-9))
        } else {
            (min, max)
        };
        let max = if max > min { max } else { min + 1.0 };
        Scale { kind, min, max }
    }

    /// Normalize `v` into `[0, 1]` along the axis (clamped).
    pub fn norm(&self, v: f64) -> f64 {
        let t = match self.kind {
            ScaleKind::Linear => (v - self.min) / (self.max - self.min),
            ScaleKind::Log2 => {
                let v = v.max(self.min);
                (v.log2() - self.min.log2()) / (self.max.log2() - self.min.log2())
            }
        };
        t.clamp(0.0, 1.0)
    }

    /// Tick positions: powers of two for log axes (thinned to at most
    /// ~12), "nice" steps for linear axes.
    pub fn ticks(&self) -> Vec<f64> {
        match self.kind {
            ScaleKind::Log2 => {
                let lo = self.min.log2().ceil() as i32;
                let hi = self.max.log2().floor() as i32;
                let n = (hi - lo + 1).max(1);
                let step = ((n + 11) / 12).max(1);
                (lo..=hi)
                    .step_by(step as usize)
                    .map(|e| (e as f64).exp2())
                    .collect()
            }
            ScaleKind::Linear => {
                let span = self.max - self.min;
                let raw = span / 5.0;
                let mag = 10f64.powf(raw.log10().floor());
                let norm = raw / mag;
                let step = if norm < 1.5 {
                    mag
                } else if norm < 3.5 {
                    2.0 * mag
                } else if norm < 7.5 {
                    5.0 * mag
                } else {
                    10.0 * mag
                };
                let mut v = (self.min / step).ceil() * step;
                let mut out = Vec::new();
                while v <= self.max + step * 1e-9 {
                    // Snap near-zero accumulation error so labels read "0".
                    if v.abs() < step * 1e-9 {
                        v = 0.0;
                    }
                    out.push(v);
                    v += step;
                }
                out
            }
        }
    }
}

/// Format a generic tick value: integers plainly, else via [`fmt3`].
pub fn fmt_tick(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        fmt3(v)
    }
}

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

/// A labeled vertical marker (tuned crossover boundaries).
#[derive(Debug, Clone)]
pub struct VMark {
    pub x: f64,
    pub label: String,
}

/// A labeled point marker (gate violations on trend charts).
#[derive(Debug, Clone)]
pub struct PointMark {
    pub x: f64,
    pub y: f64,
    pub label: String,
}

/// A line chart: series, optional log axes, vertical markers, an optional
/// horizontal band, point marks, and a legend.
pub struct LineChart {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub x_kind: ScaleKind,
    pub y_kind: ScaleKind,
    /// Label x ticks as byte sizes (`64K`) instead of raw numbers.
    pub x_bytes: bool,
    pub series: Vec<Series>,
    pub vmarks: Vec<VMark>,
    /// Shaded horizontal band `(lo, hi)` — the gate's tolerance zone.
    pub band: Option<(f64, f64)>,
    pub marks: Vec<PointMark>,
    /// Explicit x tick labels (categorical axes); overrides computed ticks.
    pub x_tick_labels: Vec<(f64, String)>,
}

impl LineChart {
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        LineChart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            x_kind: ScaleKind::Linear,
            y_kind: ScaleKind::Linear,
            x_bytes: false,
            series: Vec::new(),
            vmarks: Vec::new(),
            band: None,
            marks: Vec::new(),
            x_tick_labels: Vec::new(),
        }
    }

    fn data_range(&self) -> (f64, f64, f64, f64) {
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, y) in &s.points {
                xs.push(x);
                ys.push(y);
            }
        }
        for m in &self.marks {
            xs.push(m.x);
            ys.push(m.y);
        }
        if let Some((lo, hi)) = self.band {
            ys.push(lo);
            ys.push(hi);
        }
        let fold = |v: &[f64], init, f: fn(f64, f64) -> f64| v.iter().copied().fold(init, f);
        let (x0, x1) = (fold(&xs, f64::MAX, f64::min), fold(&xs, f64::MIN, f64::max));
        let (y0, y1) = (fold(&ys, f64::MAX, f64::min), fold(&ys, f64::MIN, f64::max));
        if xs.is_empty() {
            return (0.0, 1.0, 0.0, 1.0);
        }
        (x0, x1, y0, y1)
    }

    /// Render to SVG text.
    pub fn render(&self) -> String {
        const W: f64 = 720.0;
        const H: f64 = 420.0;
        const ML: f64 = 70.0; // left margin (y labels)
        const MR: f64 = 160.0; // right margin (legend)
        const MT: f64 = 40.0;
        const MB: f64 = 55.0;
        let pw = W - ML - MR;
        let ph = H - MT - MB;

        let (x0, x1, y0, y1) = self.data_range();
        // Pad linear y so curves don't hug the frame; log axes keep exact
        // power-of-two bounds so ticks land on the frame.
        let (y0, y1) = if self.y_kind == ScaleKind::Linear {
            let pad = (y1 - y0).abs().max(1e-9) * 0.08;
            ((y0 - pad).min(y0 * 0.98), y1 + pad)
        } else {
            (y0, y1)
        };
        let sx = Scale::new(self.x_kind, x0, x1);
        let sy = Scale::new(self.y_kind, y0, y1);
        let px = |v: f64| ML + sx.norm(v) * pw;
        let py = |v: f64| MT + (1.0 - sy.norm(v)) * ph;

        let mut svg = Svg::new(W, H);
        svg.text(ML + pw / 2.0, 20.0, 14.0, "middle", "#000000", &self.title);

        // Band below everything else.
        if let Some((lo, hi)) = self.band {
            let (ty, by) = (py(hi), py(lo));
            svg.rect(ML, ty, pw, (by - ty).max(0.5), "#fff3cd", None);
        }

        // Frame and grid.
        for &t in &sy.ticks() {
            let y = py(t);
            svg.line(ML, y, ML + pw, y, "#e0e0e0", 0.5);
            svg.text(ML - 6.0, y + 3.0, 9.0, "end", "#444444", &fmt_tick(t));
        }
        let xticks: Vec<(f64, String)> = if self.x_tick_labels.is_empty() {
            sx.ticks()
                .iter()
                .map(|&t| {
                    let label = if self.x_bytes {
                        fmt_size(t.round() as u64)
                    } else {
                        fmt_tick(t)
                    };
                    (t, label)
                })
                .collect()
        } else {
            self.x_tick_labels.clone()
        };
        for (t, label) in &xticks {
            let x = px(*t);
            svg.line(x, MT, x, MT + ph, "#e0e0e0", 0.5);
            svg.text(x, MT + ph + 14.0, 9.0, "middle", "#444444", label);
        }
        svg.rect(ML, MT, pw, ph, "none", Some("#000000"));
        svg.text(
            ML + pw / 2.0,
            H - 12.0,
            11.0,
            "middle",
            "#000000",
            &self.x_label,
        );
        svg.vtext(18.0, MT + ph / 2.0, 11.0, "#000000", &self.y_label);

        // Vertical markers (crossovers).
        for (i, m) in self.vmarks.iter().enumerate() {
            let x = px(m.x);
            svg.dashed_line((x, MT), (x, MT + ph), "#555555", "4 3");
            svg.text(
                x + 3.0,
                MT + 12.0 + 11.0 * i as f64,
                9.0,
                "start",
                "#555555",
                &m.label,
            );
        }

        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let pts: Vec<(f64, f64)> = s.points.iter().map(|&(x, y)| (px(x), py(y))).collect();
            if pts.len() > 1 {
                svg.polyline(&pts, color, 1.5);
            }
            for &(x, y) in &pts {
                svg.circle(x, y, 2.0, color);
            }
        }

        // Point marks (violations) on top.
        for m in &self.marks {
            let (x, y) = (px(m.x), py(m.y));
            svg.circle(x, y, 5.0, "none");
            svg.path(
                &format!(
                    "M {} {} L {} {} M {} {} L {} {}",
                    fmt3(x - 4.0),
                    fmt3(y - 4.0),
                    fmt3(x + 4.0),
                    fmt3(y + 4.0),
                    fmt3(x - 4.0),
                    fmt3(y + 4.0),
                    fmt3(x + 4.0),
                    fmt3(y - 4.0),
                ),
                "none",
                "#d62728",
                2.0,
            );
            svg.text(x + 6.0, y - 6.0, 9.0, "start", "#d62728", &m.label);
        }

        // Legend.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let ly = MT + 10.0 + 14.0 * i as f64;
            svg.line(ML + pw + 8.0, ly, ML + pw + 26.0, ly, color, 2.0);
            svg.text(ML + pw + 30.0, ly + 3.0, 9.0, "start", "#000000", &s.name);
        }

        svg.finish()
    }
}

/// One labeled group of bars (e.g. a message size), one value per series.
#[derive(Debug, Clone)]
pub struct BarGroup {
    pub label: String,
    pub values: Vec<f64>,
}

/// A grouped bar chart — the Table-I layout (series = paths, groups =
/// collectives/sizes, height = bandwidth).
pub struct BarChart {
    pub title: String,
    pub y_label: String,
    pub series: Vec<String>,
    pub groups: Vec<BarGroup>,
}

impl BarChart {
    pub fn render(&self) -> String {
        const W: f64 = 720.0;
        const H: f64 = 420.0;
        const ML: f64 = 70.0;
        const MR: f64 = 160.0;
        const MT: f64 = 40.0;
        const MB: f64 = 55.0;
        let pw = W - ML - MR;
        let ph = H - MT - MB;

        let max = self
            .groups
            .iter()
            .flat_map(|g| g.values.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let sy = Scale::new(ScaleKind::Linear, 0.0, max * 1.08);
        let py = |v: f64| MT + (1.0 - sy.norm(v)) * ph;

        let mut svg = Svg::new(W, H);
        svg.text(ML + pw / 2.0, 20.0, 14.0, "middle", "#000000", &self.title);
        for &t in &sy.ticks() {
            let y = py(t);
            svg.line(ML, y, ML + pw, y, "#e0e0e0", 0.5);
            svg.text(ML - 6.0, y + 3.0, 9.0, "end", "#444444", &fmt_tick(t));
        }
        svg.rect(ML, MT, pw, ph, "none", Some("#000000"));
        svg.vtext(18.0, MT + ph / 2.0, 11.0, "#000000", &self.y_label);

        let ng = self.groups.len().max(1) as f64;
        let ns = self.series.len().max(1) as f64;
        let gw = pw / ng;
        let bw = gw * 0.8 / ns;
        for (gi, g) in self.groups.iter().enumerate() {
            let gx = ML + gw * gi as f64 + gw * 0.1;
            for (si, &v) in g.values.iter().enumerate() {
                let color = PALETTE[si % PALETTE.len()];
                let x = gx + bw * si as f64;
                let top = py(v);
                svg.rect(
                    x,
                    top,
                    bw.max(1.0) - 1.0,
                    (MT + ph - top).max(0.0),
                    color,
                    None,
                );
            }
            svg.text(
                ML + gw * gi as f64 + gw / 2.0,
                MT + ph + 14.0,
                9.0,
                "middle",
                "#444444",
                &g.label,
            );
        }

        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let ly = MT + 10.0 + 14.0 * i as f64;
            svg.rect(ML + pw + 8.0, ly - 4.0, 10.0, 8.0, color, None);
            svg.text(ML + pw + 22.0, ly + 3.0, 9.0, "start", "#000000", s);
        }
        svg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt3_is_pinned_fixed_point() {
        assert_eq!(fmt3(0.0), "0.000");
        assert_eq!(fmt3(1.0 / 3.0), "0.333");
        assert_eq!(fmt3(1234.5), "1234.500");
        assert_eq!(fmt3(-2.6667), "-2.667");
    }

    #[test]
    fn escape_covers_markup_characters() {
        assert_eq!(
            xml_escape("a<b & 'c'>\"d\""),
            "a&lt;b &amp; &apos;c&apos;&gt;&quot;d&quot;"
        );
    }

    #[test]
    fn log2_scale_normalizes_powers_of_two() {
        let s = Scale::new(ScaleKind::Log2, 64.0, 4.0 * 1024.0 * 1024.0);
        assert_eq!(s.norm(64.0), 0.0);
        assert_eq!(s.norm(4.0 * 1024.0 * 1024.0), 1.0);
        let mid = s.norm(16.0 * 1024.0);
        assert!(mid > 0.49 && mid < 0.51, "midpoint {mid}");
        assert!(s.ticks().iter().all(|t| t.log2().fract() == 0.0));
    }

    #[test]
    fn linear_ticks_are_nice_and_cover_the_range() {
        let s = Scale::new(ScaleKind::Linear, 0.0, 103.0);
        let t = s.ticks();
        assert!(t.len() >= 4 && t.len() <= 8, "{t:?}");
        assert_eq!(t[0], 0.0);
        assert!(*t.last().unwrap() <= 103.0);
    }

    #[test]
    fn byte_labels_match_paper_figures() {
        let mut c = LineChart::new("t", "bytes", "us");
        c.x_kind = ScaleKind::Log2;
        c.x_bytes = true;
        c.series.push(Series {
            name: "s".into(),
            points: vec![(64.0, 1.0), ((4u64 << 20) as f64, 2.0)],
        });
        let svg = c.render();
        for label in ["64", "1K", "64K", "4M"] {
            assert!(svg.contains(&format!(">{label}</text>")), "tick {label}");
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut c = LineChart::new("t", "x", "y");
        c.series.push(Series {
            name: "s".into(),
            points: vec![(1.0, 2.0), (2.0, 3.0), (3.0, 2.5)],
        });
        c.band = Some((2.0, 2.8));
        c.marks.push(PointMark {
            x: 2.0,
            y: 3.0,
            label: "violation".into(),
        });
        assert_eq!(c.render(), c.render());
        assert!(c.render().contains("violation"));
    }
}
