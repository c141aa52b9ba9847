//! Order statistics and the JSON the benchmark prints.

/// The median (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `p`-quantile with linear interpolation between order statistics
/// (0 for no samples).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A JSON number with every digit Rust keeps; non-finite values (which
/// JSON cannot carry) become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON array of numbers.
pub fn list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    )
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    pub fn raw(&mut self, key: &str, json: &str) {
        self.fields.push(format!("{}:{json}", quote(key)));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, &quote(value));
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.raw(key, &num(value));
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut o = JsonObject::default();
    for &(name, unit, value) in metrics {
        let mut m = JsonObject::default();
        m.num("value", value);
        m.str("unit", unit);
        o.raw(name, &m.finish());
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(
            (percentile(
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0],
                0.9
            ) - 10.0)
                .abs()
                < 1e-12
        );
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_the_result_line_expects() {
        let j = metrics_json(&[("pass_s", "s", 1.5)]);
        assert_eq!(j, r#"{"pass_s":{"value":1.5,"unit":"s"}}"#);
    }
}
